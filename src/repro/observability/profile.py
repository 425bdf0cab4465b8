"""Operator-level query profiles.

A :class:`QueryProfile` is a tree mirroring the rewritten logical plan,
one node per operator, carrying the counters the paper's per-query
analysis needs (tuples in/out, bytes scanned, projection hits and skips,
group counts, join bucket sizes, frames emitted at exchanges) plus a
timing span per operator read from an injectable clock
(:mod:`repro.observability.clock`).

Collection is two-phase, mirroring how ``ExecutionStats`` and
``DegradationReport`` already travel:

- each partition's worker builds a :class:`ProfileCollector` over (its
  pickled copy of) the plan and instruments execution through it; the
  collector exports a plain-dict :func:`ProfileCollector.data` snapshot
  that rides home in the :class:`~repro.hyracks.backends.PartitionOutcome`;
- the coordinator absorbs partition snapshots **in partition order** into
  its own collector, then assembles the :class:`QueryProfile` tree.

Operator identity across that round trip is the operator's position in a
deterministic pre-order traversal of the plan (nested plans included),
which is identical in the coordinator and in every worker because work
units pickle the plan and their operator references together.

With profiling off (``profile=None``) none of this is constructed and
the execution path stays wrapper-free — the <10% bench overhead bound is
met by not instrumenting at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.algebra.operators import Operator
from repro.algebra.plan import LogicalPlan
from repro.observability.clock import CLOCKS, make_clock
from repro.observability.rewrite_audit import RewriteAudit

#: environment variable consulted when no explicit profile argument is
#: given; value is a clock name (or "1" for the wall clock).
PROFILE_ENV_VAR = "REPRO_PROFILE"


@dataclass(frozen=True)
class ProfileConfig:
    """How to profile a query execution.

    ``clock`` is a clock *name* (``wall`` | ``counter`` | ``none``) so
    the config pickles cleanly into process-pool work units; every
    worker builds its own clock instance.
    """

    clock: str = "wall"

    def __post_init__(self):
        if self.clock not in CLOCKS:
            raise ValueError(
                f"unknown profile clock {self.clock!r}; "
                f"expected one of {sorted(CLOCKS)}"
            )


def resolve_profile_config(profile) -> ProfileConfig | None:
    """Normalize a profile argument into a config (or None = off).

    Accepts ``None`` (consult the ``REPRO_PROFILE`` environment
    variable), ``True``/``False``, a clock name, or a
    :class:`ProfileConfig`.
    """
    if profile is None:
        from repro.envutil import env_setting

        value = env_setting(PROFILE_ENV_VAR, "")
        if not value or value == "0":
            return None
        return ProfileConfig(clock="wall" if value == "1" else value)
    if profile is False:
        return None
    if profile is True:
        return ProfileConfig()
    if isinstance(profile, str):
        return ProfileConfig(clock=profile)
    if isinstance(profile, ProfileConfig):
        return profile
    raise TypeError(
        f"profile must be None, a bool, a clock name, or a ProfileConfig; "
        f"got {type(profile).__name__}"
    )


def iter_plan_operators(plan: LogicalPlan) -> Iterator[Operator]:
    """Deterministic pre-order traversal: node, nested plans, inputs.

    This is the traversal that assigns profile indices; it must be
    stable across pickling, which it is because it follows only the
    plan's own structure.
    """

    def walk(op: Operator) -> Iterator[Operator]:
        yield op
        for nested in op.nested_plans():
            yield from walk(nested)
        for child in op.inputs:
            yield from walk(child)

    return walk(plan.root)


class _Node:
    """Mutable per-operator accumulation (collector-internal)."""

    __slots__ = ("counters", "seconds", "details")

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.seconds: float = 0.0
        self.details: dict = {}


class ProfileCollector:
    """Accumulates per-operator counters and spans for one plan.

    One collector per partition worker plus one on the coordinator;
    worker snapshots (:meth:`data`) are absorbed coordinator-side in
    partition order, so merged profiles are identical under every
    execution backend.
    """

    def __init__(self, plan: LogicalPlan, config: ProfileConfig):
        self.config = config
        self.clock = make_clock(config.clock)
        self._index: dict[int, int] = {
            id(op): i for i, op in enumerate(iter_plan_operators(plan))
        }
        self._nodes: dict[int, _Node] = {}

    def fork(self) -> "ProfileCollector":
        """An empty collector over the same plan with a clock of its own,
        for work recorded apart and merged later with :meth:`absorb`."""
        fork = ProfileCollector.__new__(ProfileCollector)
        fork.config = self.config
        fork.clock = make_clock(self.config.clock)
        fork._index = self._index
        fork._nodes = {}
        return fork

    # -- lookup -----------------------------------------------------------------

    def _node(self, op: Operator) -> _Node:
        index = self._index.get(id(op))
        if index is None:
            # An operator outside the registered plan (executor-built
            # fragments in tests); register it deterministically after
            # the plan's own operators, in first-encounter order.
            index = len(self._index)
            self._index[id(op)] = index
        node = self._nodes.get(index)
        if node is None:
            node = self._nodes[index] = _Node()
        return node

    # -- recording --------------------------------------------------------------

    def add(self, op: Operator, counter: str, amount: int = 1) -> None:
        """Add *amount* to a named counter of *op*'s profile node."""
        counters = self._node(op).counters
        counters[counter] = counters.get(counter, 0) + amount

    def set_detail(self, op: Operator, key: str, value) -> None:
        """Attach a JSON-able detail (e.g. join bucket sizes) to *op*."""
        self._node(op).details[key] = value

    def charge(self, op: Operator, seconds: float, **counters: int) -> None:
        """Add a span and counter amounts to *op*'s node (the frame
        gear's record per frame).  A zero amount leaves its counter
        unset, as the wrappers below do for a stream that never yields."""
        node = self._node(op)
        node.seconds += seconds
        for counter, amount in counters.items():
            if amount:
                node.counters[counter] = node.counters.get(counter, 0) + amount

    def count_input(self, op: Operator, stream: Iterable) -> Iterator:
        """Wrap *stream* counting tuples flowing *into* op."""
        return self.count_into(op, "tuples_in", stream)

    def count_into(self, op: Operator, counter: str, stream: Iterable) -> Iterator:
        """Wrap *stream*, adding each item to a named counter of *op*."""
        counters = self._node(op).counters

        def counted():
            for item in stream:
                counters[counter] = counters.get(counter, 0) + 1
                yield item

        return counted()

    def observe(self, op: Operator, stream: Iterable) -> Iterator:
        """Wrap *stream* timing each pull and counting tuples out of op.

        The span is *inclusive* — it covers the operator plus everything
        below it; per-operator exclusive time is derived at report time
        by subtracting child spans.
        """
        node = self._node(op)
        counters = node.counters
        clock = self.clock

        def observed():
            iterator = iter(stream)
            while True:
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    node.seconds += clock() - started
                    return
                node.seconds += clock() - started
                counters["tuples_out"] = counters.get("tuples_out", 0) + 1
                yield item

        return observed()

    # -- snapshots and merging ---------------------------------------------------

    def data(self) -> dict[int, dict]:
        """Plain-dict snapshot (picklable; what workers send home)."""
        return {
            index: {
                "counters": dict(node.counters),
                "seconds": node.seconds,
                "details": dict(node.details),
            }
            for index, node in sorted(self._nodes.items())
        }

    def absorb(self, data: dict[int, dict] | None) -> None:
        """Merge a partition snapshot into this (coordinator) collector."""
        if not data:
            return
        for index, payload in sorted(data.items()):
            node = self._nodes.get(index)
            if node is None:
                node = self._nodes[index] = _Node()
            for counter, amount in payload["counters"].items():
                node.counters[counter] = node.counters.get(counter, 0) + amount
            node.seconds += payload["seconds"]
            node.details.update(payload["details"])

    def node_data(self, index: int) -> dict | None:
        node = self._nodes.get(index)
        if node is None:
            return None
        return {
            "counters": dict(node.counters),
            "seconds": node.seconds,
            "details": dict(node.details),
        }


# ---------------------------------------------------------------------------
# The assembled profile
# ---------------------------------------------------------------------------


@dataclass
class OperatorProfile:
    """One operator's merged counters and span in the profile tree."""

    index: int
    operator: str
    signature: str
    counters: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    details: dict = field(default_factory=dict)
    children: list["OperatorProfile"] = field(default_factory=list)
    nested: list["OperatorProfile"] = field(default_factory=list)

    @property
    def exclusive_seconds(self) -> float:
        """This operator's span minus its children's spans."""
        below = sum(c.seconds for c in self.children)
        below += sum(n.seconds for n in self.nested)
        return max(self.seconds - below, 0.0)

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "signature": self.signature,
            "counters": dict(sorted(self.counters.items())),
            "seconds": self.seconds,
            "details": self.details,
            "nested": [n.to_dict() for n in self.nested],
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class QueryProfile:
    """Everything one profiled execution measured, per operator."""

    strategy: str
    partitions: int
    clock: str
    root: OperatorProfile
    rewrite: RewriteAudit | None = None

    def find(self, operator: str) -> list[OperatorProfile]:
        """All profile nodes whose operator name equals *operator*."""
        found: list[OperatorProfile] = []

        def walk(node: OperatorProfile) -> None:
            if node.operator == operator:
                found.append(node)
            for nested in node.nested:
                walk(nested)
            for child in node.children:
                walk(child)

        walk(self.root)
        return found

    def to_dict(self) -> dict:
        """Structured-JSON trace export (deterministically ordered)."""
        return {
            "strategy": self.strategy,
            "partitions": self.partitions,
            "clock": self.clock,
            "plan": self.root.to_dict(),
            "rewrite": self.rewrite.to_dict() if self.rewrite else None,
        }

    def render(self) -> str:
        """Per-operator summary (the ``explain(profile=True)`` block)."""
        lines = [
            f"== query profile (strategy={self.strategy}, "
            f"partitions={self.partitions}, clock={self.clock}) =="
        ]

        def walk(node: OperatorProfile, depth: int) -> None:
            indent = "  " * depth
            parts = [f"{indent}{node.operator}"]
            for counter, amount in sorted(node.counters.items()):
                parts.append(f"{counter}={amount}")
            if node.seconds:
                parts.append(f"span={node.seconds:g}")
            for key, value in sorted(node.details.items()):
                parts.append(f"{key}={value}")
            lines.append(" ".join(parts))
            for nested in node.nested:
                walk(nested, depth + 1)
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        if self.rewrite is not None:
            lines.append("")
            lines.append("== rewrite audit ==")
            lines.append(self.rewrite.render())
        return "\n".join(lines)


def build_query_profile(
    plan: LogicalPlan,
    collector: ProfileCollector,
    strategy: str,
    partitions: int,
) -> QueryProfile:
    """Assemble the profile tree for *plan* from merged collector data."""
    indices: dict[int, int] = {
        id(op): i for i, op in enumerate(iter_plan_operators(plan))
    }

    def build(op: Operator) -> OperatorProfile:
        index = indices[id(op)]
        payload = collector.node_data(index) or {
            "counters": {},
            "seconds": 0.0,
            "details": {},
        }
        return OperatorProfile(
            index=index,
            operator=op.name,
            signature=op.signature(),
            counters=dict(sorted(payload["counters"].items())),
            seconds=payload["seconds"],
            details=payload["details"],
            nested=[build(nested) for nested in op.nested_plans()],
            children=[build(child) for child in op.inputs],
        )

    return QueryProfile(
        strategy=strategy,
        partitions=partitions,
        clock=collector.config.clock,
        root=build(plan.root),
    )
