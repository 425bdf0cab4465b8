"""The compilation pipeline.

Mirrors VXQuery's frontend flow (Section 3.1): the query string is
parsed into an AST, translated into a naive logical plan, and rewritten
by the configured rule families.  The :class:`CompiledQuery` keeps every
stage — including the per-rule rewrite trace — for ``explain`` output
and for the before/after experiments.

As in VXQuery, a query is compiled once and the compiled job is run
many times: :class:`PlanCache` is the LRU that
:class:`~repro.JsonProcessor` and the query service both compile
through.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.algebra.plan import LogicalPlan
from repro.algebra.rules import RewriteConfig, rule_pipeline
from repro.jsoniq.ast import AstNode
from repro.jsoniq.parser import parse_query
from repro.jsoniq.translator import translate
from repro.observability.rewrite_audit import RewriteAudit

#: compiled queries a :class:`PlanCache` keeps by default (the
#: processor's always; the service's unless ``plan_cache_size`` says).
PLAN_CACHE_CAPACITY = 128


@dataclass
class CompiledQuery:
    """A query through every compilation stage."""

    text: str
    ast: AstNode
    naive_plan: LogicalPlan
    plan: LogicalPlan
    config: RewriteConfig
    trace: list[tuple[str, LogicalPlan]] = field(default_factory=list)
    audit: RewriteAudit = field(default_factory=RewriteAudit)
    #: fingerprint of the stats snapshot the cost phase ran against
    #: (None when compiled without statistics).
    stats_fingerprint: str | None = None

    def explain(self, show_trace: bool = False) -> str:
        """Human-readable compilation report."""
        lines = [
            "== naive plan ==",
            self.naive_plan.explain(),
            "",
            f"== rewritten plan ({self._config_label()}) ==",
            self.plan.explain(),
        ]
        if show_trace and self.trace:
            lines.append("")
            lines.append("== rewrite trace ==")
            for index, (rule_name, _) in enumerate(self.trace, 1):
                lines.append(f"{index:3d}. {rule_name}")
        return "\n".join(lines)

    def _config_label(self) -> str:
        enabled = [
            name
            for name, on in (
                ("path", self.config.path),
                ("pipelining", self.config.pipelining),
                ("group-by", self.config.groupby),
                ("two-step-agg", self.config.two_step_aggregation),
            )
            if on
        ]
        return "+".join(enabled) if enabled else "built-ins only"


def compile_query(
    text: str, config: RewriteConfig | None = None, stats=None
) -> CompiledQuery:
    """Compile *text* under *config* (default: all rule families on).

    When *stats* (a :class:`~repro.stats.sampling.StatsSnapshot`) is
    given, the cost-based planning phase runs
    after the rewrite fixpoint; its decisions land in the trace and the
    audit like rule firings, and the snapshot's fingerprint is kept on
    the result (it is part of the plan-cache key).
    """
    if config is None:
        config = RewriteConfig.all()
    ast = parse_query(text)
    naive_plan = translate(ast)
    trace: list[tuple[str, LogicalPlan]] = []
    audit = RewriteAudit()
    plan = rule_pipeline(config).rewrite(naive_plan, trace=trace, audit=audit)
    stats_fingerprint = None
    if stats:
        from repro.stats.cost import apply_cost_planning

        plan = apply_cost_planning(plan, stats, audit=audit, trace=trace)
        stats_fingerprint = stats.fingerprint()
    return CompiledQuery(
        text=text,
        ast=ast,
        naive_plan=naive_plan,
        plan=plan,
        config=config,
        trace=trace,
        audit=audit,
        stats_fingerprint=stats_fingerprint,
    )


# -- what a compile runs against -----------------------------------------------


def compile_stats(source, cost: bool):
    """The statistics a compile runs against.

    The source's current :class:`~repro.stats.sampling.StatsSnapshot`
    when the cost phase is on and the source samples statistics
    (``stats_snapshot``); None otherwise.
    """
    snapshot = getattr(source, "stats_snapshot", None) if cost else None
    return snapshot() if snapshot is not None else None


class PlanCache:
    """Thread-safe LRU over ``(query text, RewriteConfig, stats
    fingerprint) -> CompiledQuery``.

    :func:`compile_query` is pure — parse, translate, the rewrite
    fixpoint and the cost phase depend only on the text, the rewrite
    config and the statistics snapshot — so that triple is the key: a
    :class:`RewriteConfig` is a frozen dataclass and a snapshot adds its
    fingerprint (None when there are no statistics).  Refreshed or
    re-registered statistics change the fingerprint, so no caller is
    ever served a plan costed against stale statistics.  A text that
    fails to compile raises and leaves no entry.

    A compiled query is shared and read-only at execution time (the
    same contract that lets the process backend pickle one plan into
    many workers), so one entry serves any number of queries, on any
    thread.
    """

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compile(
        self, text: str, config: RewriteConfig, stats=None
    ) -> tuple[CompiledQuery, bool]:
        """Return ``(compiled, was_hit)`` for *text* under *config*.

        *stats* (a :class:`~repro.stats.sampling.StatsSnapshot`, or
        None) feeds the cost phase; its fingerprint is part of the
        cache key so refreshed statistics always recompile.
        """
        key = (text, config, stats.fingerprint() if stats else None)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return compiled, True
        # Compile outside the lock: compilation is pure, so two threads
        # racing the same cold key at worst compile twice and store the
        # same plan — far better than serializing every compilation.
        compiled = compile_query(text, config, stats=stats)
        with self._lock:
            self.misses += 1
            if self.capacity and key not in self._entries:
                self._entries[key] = compiled
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return compiled, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
