"""Cost-based join planning over a sampled :class:`StatsSnapshot`.

The rewrite fixpoint is purely structural: it never looks at the data,
so hash joins always build on the right and every join exchanges both
sides.  This module adds the
data-dependent phase that runs *after* the fixpoint when statistics are
available:

* **Join ordering** — multi-join graphs are re-associated left-deep,
  greedily joining the smallest connected inputs first.
* **Build-side choice** — the estimated-smaller input becomes the hash
  build side (``Join.build_side``).
* **Broadcast exchange** — when one side is tiny and the other is much
  larger, the tiny side is replicated to every partition instead of
  hash-exchanging both sides (``Join.exchange``).

A hot join key hashes to one bucket like every other key: as in
Hyracks' partitioned dataflow, there is no hot-key bucket splitting.

Every decision is a plan-annotation (or a re-association of existing
operators), recorded through the same :class:`RewriteAudit` as the
rewrite rules, and deterministic given the snapshot: ties break on
original operand order, candidate scans sort by name, and the sampled
statistics themselves are positional.  The phase is advisory — with no
snapshot (or ``REPRO_COST`` off) plans are byte-identical to today's.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    AndExpr,
    ComparisonExpr,
    Expression,
    PathStepExpr,
)
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
from repro.algebra.rules.base import conjuncts, subtree_variables
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

#: broadcast only sides estimated at most this many tuples ...
BROADCAST_MAX_TUPLES = 512.0

#: ... and only when the other side is at least this many times larger.
BROADCAST_MIN_RATIO = 4.0

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

    Estimates are coarse — the consumers only ever *compare* two
    estimates (which join input is smaller, is one side tiny) — but they
    are deterministic functions of the snapshot, which is what the
    byte-identity guarantees need.
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
    """Apply the cost-based decisions to *plan*, in a fixed order.

    Runs join re-ordering, then build-side choice, then exchange
    selection; each category that changes the plan is recorded as one
    audit firing (``CostJoinOrder``, ``CostBuildSide``,
    ``CostBroadcast``) and, when *trace* is given, appended as an
    explain step.
    """
    if snapshot is None or not snapshot:
        return plan
    model = CostModel(snapshot)
    for name, transform in (
        ("CostJoinOrder", _order_joins),
        ("CostBuildSide", _choose_build_sides),
        ("CostBroadcast", _choose_exchanges),
    ):
        rewritten = transform(plan, model)
        if rewritten is not plan:
            if audit is not None:
                audit.record(name, plan, rewritten)
            if trace is not None:
                trace.append((name, rewritten))
            plan = rewritten
    return plan


def _transform_joins(plan: LogicalPlan, visit) -> LogicalPlan:
    changed = False

    def visitor(op: Operator) -> Operator:
        nonlocal changed
        if isinstance(op, Join):
            replacement = visit(op)
            if replacement is not None:
                changed = True
                return replacement
        return op

    rewritten = plan.transform_bottom_up(visitor)
    return rewritten if changed else plan


# -- build side --------------------------------------------------------


def _hash_keys(join: Join):
    from repro.hyracks.operators import split_join_condition

    return split_join_condition(join)


def _choose_build_sides(plan: LogicalPlan, model: CostModel) -> LogicalPlan:
    def visit(join: Join) -> Join | None:
        left_keys, _, _ = _hash_keys(join)
        if not left_keys:
            return None  # nested-loop join: no build side to choose
        left = model.cardinality(join.left)
        right = model.cardinality(join.right)
        side = "left" if left < right * BUILD_SWAP_MARGIN else "right"
        if side == join.build_side:
            return None
        return join.with_physical(build_side=side)

    return _transform_joins(plan, visit)


# -- exchange ----------------------------------------------------------


def _choose_exchanges(plan: LogicalPlan, model: CostModel) -> LogicalPlan:
    def visit(join: Join) -> Join | None:
        left_keys, _, _ = _hash_keys(join)
        if not left_keys:
            return None
        left = model.cardinality(join.left)
        right = model.cardinality(join.right)
        small, big = min(left, right), max(left, right)
        if small > BROADCAST_MAX_TUPLES or big < small * BROADCAST_MIN_RATIO:
            return None
        exchange = "broadcast-left" if left <= right else "broadcast-right"
        if exchange == join.exchange:
            return None
        # The broadcast side is replicated everywhere, so it is also
        # the natural build side: keep the two decisions consistent.
        build_side = "left" if exchange == "broadcast-left" else "right"
        return join.with_physical(build_side=build_side, exchange=exchange)

    return _transform_joins(plan, visit)


# -- join ordering -----------------------------------------------------


def _order_joins(plan: LogicalPlan, model: CostModel) -> LogicalPlan:
    """Re-associate chains of >= 2 nested joins greedily by cardinality."""

    def find_root(op: Operator, parent_is_join: bool, out: list) -> None:
        is_join = isinstance(op, Join)
        if is_join and not parent_is_join:
            out.append(op)
        for child in op.inputs:
            find_root(child, is_join, out)

    roots: list[Join] = []
    find_root(plan.root, False, roots)
    for root in roots:
        reordered = _reorder_tree(root, model)
        if reordered is not None:
            from repro.algebra.rules.base import replace_operator

            return replace_operator(plan, root, reordered)
    return plan


def _reorder_tree(root: Join, model: CostModel) -> Join | None:
    leaves: list[Operator] = []
    predicates: list[Expression] = []

    def collect(op: Operator) -> None:
        if isinstance(op, Join) and not op.annotated:
            predicates.extend(
                c
                for c in conjuncts(op.condition)
                if not _is_true_literal(c)
            )
            collect(op.left)
            collect(op.right)
        else:
            leaves.append(op)

    collect(root)
    if len(leaves) < 3:
        return None  # a 2-way join has no ordering freedom beyond build side

    leaf_vars = [subtree_variables(leaf) for leaf in leaves]
    all_vars = set().union(*leaf_vars)
    for predicate in predicates:
        if not predicate.free_variables() <= all_vars:
            return None  # correlated condition: leave the tree alone

    cards = [model.cardinality(leaf) for leaf in leaves]
    order = _greedy_order(leaves, leaf_vars, cards, predicates)
    if order is None or order == list(range(len(leaves))):
        return None

    # Rebuild left-deep in the chosen order, attaching each predicate to
    # the first join where all its variables are bound.
    remaining = list(predicates)
    bound = set(leaf_vars[order[0]])
    current: Operator = leaves[order[0]]
    for position in order[1:]:
        bound |= leaf_vars[position]
        applicable = [
            p for p in remaining if p.free_variables() <= bound
        ]
        remaining = [p for p in remaining if p not in applicable]
        condition = _and_all(applicable)
        current = Join(current, leaves[position], condition)
    if remaining:
        return None  # should be unreachable given the closure check above
    return current if isinstance(current, Join) else None


def _greedy_order(leaves, leaf_vars, cards, predicates) -> list[int] | None:
    """Greedy smallest-connected-first order; None when disconnected."""
    count = len(leaves)
    start = min(range(count), key=lambda i: (cards[i], i))
    order = [start]
    bound = set(leaf_vars[start])
    remaining = set(range(count)) - {start}
    while remaining:
        connected = [
            i
            for i in sorted(remaining)
            if any(
                p.free_variables() & bound
                and p.free_variables() <= bound | leaf_vars[i]
                for p in predicates
            )
        ]
        if not connected:
            # Re-ordering would introduce a cross product the original
            # plan may not have had: abstain rather than risk a blowup.
            return None
        best = min(connected, key=lambda i: (cards[i], i))
        order.append(best)
        bound |= leaf_vars[best]
        remaining.discard(best)
    return order


def _is_true_literal(expression: Expression) -> bool:
    from repro.algebra.expressions import Literal

    return isinstance(expression, Literal) and expression.sequence == [True]


def _and_all(predicates: list[Expression]) -> Expression:
    from repro.algebra.expressions import Literal

    if not predicates:
        return Literal([True])
    if len(predicates) == 1:
        return predicates[0]
    return AndExpr(predicates)
