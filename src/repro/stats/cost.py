"""Cost-based build-side choice over a sampled :class:`StatsSnapshot`.

The rewrite fixpoint is purely structural: it never looks at the data,
so hash joins always build on the right.  This module adds the one
data-dependent decision, run *after* the fixpoint when statistics are
available: the estimated-smaller input of each hash join becomes its
build side (``Join.build_side``).

Joins run in the order of the query's ``for`` clauses, and every keyed
join hash-partitions both sides, as in Hyracks' partitioned dataflow: a
tiny side is exchanged like any other, and a hot join key hashes to
one bucket like every other key.

The decision is a plan annotation, recorded through the same
:class:`RewriteAudit` as the rewrite rules, and deterministic given the
snapshot: ties keep the default, candidate scans sort by name, and the
sampled statistics themselves are positional.  The phase is advisory —
with no snapshot (or ``REPRO_COST`` off) plans are byte-identical to
the un-costed ones.
"""

from __future__ import annotations

from repro.algebra.expressions import ComparisonExpr, Expression, PathStepExpr
from repro.algebra.operators import (
    Aggregate,
    Assign,
    DataScan,
    GroupBy,
    Join,
    Operator,
    Select,
    Subplan,
    Unnest,
)
from repro.algebra.plan import LogicalPlan, read_set
from repro.algebra.rules.base import conjuncts
from repro.jsonlib.path import KeysOrMembers, ValueByIndex, ValueByKey
from repro.stats.sampling import CollectionStats, KeyStats, StatsSnapshot

#: environment variable consulted when no explicit cost toggle is given.
COST_ENV_VAR = "REPRO_COST"

#: cardinality assumed for a scan of a collection without statistics.
DEFAULT_CARDINALITY = 1024.0

#: members assumed per array-unnest step when the stats don't say.
DEFAULT_FANOUT = 4.0

#: selectivity assumed for a predicate the model can't estimate.
DEFAULT_SELECTIVITY = 0.5

#: swap the build side only on a clear win, not an estimation wobble.
BUILD_SWAP_MARGIN = 0.9


def resolve_cost_enabled(explicit: bool | None = None) -> bool:
    """Resolve the cost-phase toggle (``repro.envutil`` resolution rule).

    An explicit argument wins; otherwise ``REPRO_COST`` is consulted
    (unset means on; set-but-empty or ``0``/``off``/``false``/``no``
    means off; anything else means on).
    """
    if explicit is not None:
        return bool(explicit)
    from repro.envutil import env_setting

    value = env_setting(COST_ENV_VAR)
    if value is None:
        return True
    return value.strip().lower() not in ("", "0", "off", "false", "no")


# ---------------------------------------------------------------------------
# Cardinality model
# ---------------------------------------------------------------------------


class CostModel:
    """Cardinality estimates for logical operators from sampled stats.

    Estimates are coarse — the one consumer only ever *compares* two
    estimates (which join input is smaller) — but they are deterministic
    functions of the snapshot, which is what the byte-identity
    guarantees need.
    """

    def __init__(self, snapshot: StatsSnapshot):
        self.snapshot = snapshot

    # -- operator cardinalities ---------------------------------------

    def cardinality(self, op: Operator) -> float:
        """Estimated tuples produced by *op* (always >= 1)."""
        if isinstance(op, DataScan):
            return self._scan_cardinality(op)
        if isinstance(op, Select):
            return max(
                1.0,
                self.cardinality(op.input_op) * self._selectivity(op),
            )
        if isinstance(op, Unnest):
            return max(
                1.0,
                self.cardinality(op.input_op) * self._fanout(op.expression, op),
            )
        if isinstance(op, Join):
            return self._join_cardinality(op)
        if isinstance(op, Aggregate):
            return 1.0
        if isinstance(op, GroupBy):
            return self._group_cardinality(op)
        if isinstance(op, (Assign, Subplan)):
            return self.cardinality(op.input_op)
        inputs = op.inputs
        if inputs:
            return self.cardinality(inputs[0])
        return 1.0

    def _scan_cardinality(self, scan: DataScan) -> float:
        stats = self.snapshot.for_collection(scan.collection)
        if stats is None:
            return DEFAULT_CARDINALITY
        card = float(max(1, stats.documents))
        last_key: KeyStats | None = None
        at_root = True
        for step in scan.project_path:
            if isinstance(step, ValueByKey):
                last_key = stats.key(step.key)
                if last_key is not None and stats.sampled_objects:
                    presence = last_key.count / stats.sampled_objects
                    card *= max(min(presence, 1.0), 1e-3)
            elif isinstance(step, KeysOrMembers):
                if last_key is not None and last_key.arrays:
                    card *= max(1.0, last_key.avg_array_len)
                elif at_root and stats.root_fanout is not None:
                    card *= max(1.0, stats.root_fanout)
                else:
                    card *= DEFAULT_FANOUT
                last_key = None
            elif isinstance(step, ValueByIndex):
                last_key = None
            at_root = False
        return max(1.0, card)

    def _join_cardinality(self, join: Join) -> float:
        left = self.cardinality(join.left)
        right = self.cardinality(join.right)
        distinct = 1.0
        for conjunct in conjuncts(join.condition):
            if not (
                isinstance(conjunct, ComparisonExpr) and conjunct.op == "eq"
            ):
                continue
            sides = [
                self._field_distinct(conjunct.left, join),
                self._field_distinct(conjunct.right, join),
            ]
            known = [d for d in sides if d is not None]
            if known:
                distinct = max(distinct, *known)
        if distinct <= 1.0:
            # No usable key stats: assume a key join keeps roughly the
            # larger side, a pure cross product multiplies.
            has_eq = any(
                isinstance(c, ComparisonExpr) and c.op == "eq"
                for c in conjuncts(join.condition)
            )
            return max(left, right) if has_eq else max(1.0, left * right)
        return max(1.0, left * right / distinct)

    def _group_cardinality(self, op: GroupBy) -> float:
        card = self.cardinality(op.input_op)
        groups = card**0.5
        for _, expression in op.keys:
            distinct = self._field_distinct(expression, op)
            if distinct is not None:
                groups = min(groups if groups > 1.0 else distinct, distinct)
        return max(1.0, min(card, groups))

    # -- expression-level estimates -----------------------------------

    def _selectivity(self, op: Select) -> float:
        selectivity = 1.0
        for conjunct in conjuncts(op.condition):
            selectivity *= self._conjunct_selectivity(conjunct, op)
        return max(selectivity, 1e-4)

    def _conjunct_selectivity(self, conjunct: Expression, scope: Operator) -> float:
        if not isinstance(conjunct, ComparisonExpr):
            return DEFAULT_SELECTIVITY
        for side in (conjunct.left, conjunct.right):
            distinct = self._field_distinct(side, scope)
            if distinct is not None and distinct > 0:
                if conjunct.op == "eq":
                    return 1.0 / distinct
                return min(DEFAULT_SELECTIVITY, 1.0)
        return DEFAULT_SELECTIVITY

    def _fanout(self, expression: Expression, scope: Operator) -> float:
        stats = self._field_stats(expression, scope)
        if stats is not None and stats.arrays:
            return max(1.0, stats.avg_array_len)
        return DEFAULT_FANOUT

    def _field_distinct(self, expression: Expression, scope: Operator) -> float | None:
        stats = self._field_stats(expression, scope)
        if stats is None or stats.count <= 0:
            return None
        distinct = float(stats.distinct)
        if stats.distinct_saturated:
            # The cap was hit: the true count is unknown but at least
            # this large; scale with the sample so bigger keys look
            # more selective rather than all saturating identically.
            distinct = max(distinct, stats.count / 2.0)
        return max(distinct, 1.0)

    def _field_stats(self, expression: Expression, scope: Operator) -> KeyStats | None:
        """Stats of the object key *expression* finally navigates into."""
        field = key_field(expression)
        if field is None:
            return None
        best: KeyStats | None = None
        for stats in self._scope_collections(scope):
            candidate = stats.key(field)
            if candidate is not None and (
                best is None or candidate.count > best.count
            ):
                best = candidate
        return best

    def _scope_collections(self, scope: Operator) -> list[CollectionStats]:
        found: dict[str, CollectionStats] = {}
        for name in read_set(scope).collections:
            stats = self.snapshot.for_collection(name)
            if stats is not None:
                found.setdefault(stats.collection, stats)
        return [found[name] for name in sorted(found)]


def key_field(expression: Expression) -> str | None:
    """The object key name an expression finally navigates into, if any.

    ``$t("station")`` and ``$r("properties")("station")`` give
    ``station``; anything not ending in a :class:`ValueByKey` step gives
    ``None``.  Key-name statistics are merged across nesting depth, so
    the final step is all the lookup needs.
    """
    if not isinstance(expression, PathStepExpr):
        return None
    step = expression.step
    if isinstance(step, ValueByKey):
        return step.key
    return None


# ---------------------------------------------------------------------------
# The planning phase
# ---------------------------------------------------------------------------


def apply_cost_planning(
    plan: LogicalPlan,
    snapshot: StatsSnapshot | None,
    audit=None,
    trace: list | None = None,
) -> LogicalPlan:
    """Choose each hash join's build side from *snapshot*.

    A plan the choice changes is recorded as one ``CostBuildSide``
    audit firing and, when *trace* is given, appended as an explain
    step.
    """
    if snapshot is None or not snapshot:
        return plan
    from repro.hyracks.operators import split_join_condition

    model = CostModel(snapshot)
    changed = False

    def visit(op: Operator) -> Operator:
        nonlocal changed
        if not isinstance(op, Join) or not split_join_condition(op)[0]:
            return op  # not a hash join: no build side to choose
        left = model.cardinality(op.left)
        right = model.cardinality(op.right)
        side = "left" if left < right * BUILD_SWAP_MARGIN else "right"
        if side == op.build_side:
            return op
        changed = True
        return Join(op.left, op.right, op.condition, side)

    rewritten = plan.transform_bottom_up(visit)
    if not changed:
        return plan
    if audit is not None:
        audit.record("CostBuildSide", plan, rewritten)
    if trace is not None:
        trace.append(("CostBuildSide", rewritten))
    return rewritten
