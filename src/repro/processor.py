"""The public query-engine facade.

:class:`JsonProcessor` is the library's front door — the counterpart of
an Apache VXQuery deployment: point it at partitioned JSON collections
and run JSONiq queries against the raw files, no load phase::

    from repro import JsonProcessor

    processor = JsonProcessor.from_directory("/data")
    result = processor.execute(
        'for $r in collection("/sensors")("root")()("results")() '
        'where $r("dataType") eq "TMIN" return $r("value")'
    )
    print(result.items)

Rule families can be toggled per processor (``rewrite=``) to reproduce
the paper's before/after experiments, and ``explain`` shows the naive
plan, the rewritten plan, and the rewrite trace.
"""

from __future__ import annotations

from repro.algebra.rules import RewriteConfig
from repro.compiler.pipeline import CompiledQuery, PlanCache, compile_stats
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.hyracks.executor import PartitionedExecutor, QueryResult
from repro.jsonlib.items import Item
from repro.resilience.policies import ResilienceConfig
from repro.stats.cost import resolve_cost_enabled


class JsonProcessor:
    """A parallel JSONiq processor over raw, partitioned JSON files.

    Parameters
    ----------
    source:
        A :class:`~repro.algebra.context.DataSource` (a
        :class:`~repro.data.catalog.CollectionCatalog`, an
        :class:`~repro.data.catalog.InMemorySource`, or anything
        implementing the protocol).  Optional for queries that only use
        literals/constructors.  It is read as it was built, never
        changed: its scan mode and segment cache are its constructor's
        (or ``from_directory``'s / ``in_memory``'s) ``scan_mode=`` and
        ``segment_cache_dir=``.  To inject faults (testing and chaos
        experiments), pass ``plan.wrap(source)`` for a
        :class:`~repro.resilience.faults.FaultPlan` *plan*: besides data
        faults, it can kill workers (``kill_worker``) and stall
        partitions (``stall_partition``) to exercise the recovery path.
    rewrite:
        Which rewrite-rule families to apply (default: all).
    memory_budget_bytes:
        Optional per-plan-instance memory budget.  Blocking operators
        (GROUP-BY, JOIN, ORDER-BY, sequence aggregates) spill to disk
        when a charge would exceed it; only a charge that no operator
        can shed raises :class:`~repro.errors.MemoryBudgetExceededError`.
    resilience:
        Per-partition error handling
        (:class:`~repro.resilience.policies.ResilienceConfig`): how many
        attempts a partition gets while its failure is retryable
        (``max_attempts``, default 1), and whether a partition that
        still fails fails the query or is skipped (``on_exhausted``).
        Its ``recovery`` field
        (:class:`~repro.resilience.policies.RecoveryPolicy`) governs
        worker-loss recovery on the process backend: a work unit whose
        worker crashes is rescheduled, up to three starts in all, and
        repeated pool loss steps the remaining units down to sequential
        execution; a slow unit is waited for, never duplicated.  All
        recovery is recorded on the result's ``degradation`` report and
        ``stats``.
    backend:
        Execution backend for partition work: ``"sequential"``
        (default), ``"process"``, or an
        :class:`~repro.hyracks.backends.ExecutionBackend` instance.
        ``None`` consults the ``REPRO_BACKEND`` environment variable.
        Both backends produce identical results and degradation reports;
        ``process`` runs partitions on real cores.
    max_workers:
        Worker cap for the ``process`` backend (default: the cores this
        process may run on); a non-positive count is a ``ValueError``.
    spill_dir:
        Root directory for spill run files (default: ``REPRO_SPILL_DIR``
        or the system temp dir).
    deadline_seconds:
        Per-query deadline; a query running past it raises a
        :class:`~repro.errors.QueryTimeoutError` and releases every
        spill file on the way out.  ``None`` consults the
        ``REPRO_DEADLINE`` environment variable.
    cost:
        Cost-based join planning: when on and the source samples
        statistics (``stats_snapshot``), compilation runs the cost phase
        (:func:`repro.stats.cost.apply_cost_planning`), which builds
        each hash join on its estimated-smaller input.
        ``None`` consults the ``REPRO_COST`` environment variable (unset
        means on).  Purely a physical-plan decision: results are the
        same multiset with cost planning on or off (building on the
        other side may change their order).
    """

    def __init__(
        self,
        source=None,
        rewrite: RewriteConfig | None = None,
        memory_budget_bytes: int | None = None,
        resilience: ResilienceConfig | None = None,
        backend=None,
        max_workers: int | None = None,
        spill_dir: str | None = None,
        deadline_seconds: float | None = None,
        cost: bool | None = None,
    ):
        self.source = source
        self._closed = False
        self.rewrite = rewrite if rewrite is not None else RewriteConfig.all()
        self.cost = resolve_cost_enabled(cost)
        self.plan_cache = PlanCache()
        self._executor = PartitionedExecutor(
            source,
            two_step_aggregation=self.rewrite.two_step_aggregation,
            memory_budget_bytes=memory_budget_bytes,
            resilience=resilience,
            backend=backend,
            max_workers=max_workers,
            spill_dir=spill_dir,
            deadline_seconds=deadline_seconds,
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_directory(
        cls,
        base_dir: str,
        on_malformed: str = "fail",
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        **kwargs,
    ) -> "JsonProcessor":
        """Processor over ``<base_dir>/<collection>/partition<i>/*.json``;
        the catalog is built with the source arguments, the processor
        with *kwargs*."""
        source = CollectionCatalog(base_dir, on_malformed, scan_mode, segment_cache_dir)
        return cls(source=source, **kwargs)

    @classmethod
    def in_memory(
        cls,
        collections: dict[str, list[list[str]]] | None = None,
        documents: dict[str, str] | None = None,
        on_malformed: str = "fail",
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        **kwargs,
    ) -> "JsonProcessor":
        """Processor over in-memory JSON texts (tests, notebooks), built
        as :meth:`from_directory` builds its own."""
        source = InMemorySource(
            collections, documents, on_malformed, scan_mode, segment_cache_dir
        )
        return cls(source=source, **kwargs)

    # -- query API ---------------------------------------------------------------

    def compile(self, query: str) -> CompiledQuery:
        """Compile *query* under this processor's rewrite configuration.

        Each text compiles once: ``plan_cache`` (128 entries, least
        recently used out first) keys the compiled query by ``(text,
        rewrite config, stats fingerprint)``, and ``execute``,
        ``evaluate``, ``profile`` and ``explain`` all come through here.
        When cost-based planning is on (the ``cost`` parameter, else
        ``REPRO_COST``, else the rewrite config) and the source can
        sample statistics, the cost phase runs against the source's
        current stats snapshot, so re-sampled statistics recompile.  The
        compiled query is shared with later calls: treat it as read-only.
        """
        return self.plan_cache.get_or_compile(
            query, self.rewrite, stats=compile_stats(self.source, self.cost)
        )[0]

    def execute(self, query: str, profile=None, cancellation=None) -> QueryResult:
        """Compile and run *query*; returns items plus measurements.

        *profile* enables operator-level profiling: ``True`` (wall
        clock), a clock name (``"wall"`` | ``"counter"`` | ``"none"``),
        or a :class:`~repro.observability.profile.ProfileConfig`; the
        default ``None`` consults the ``REPRO_PROFILE`` environment
        variable.  A profiled result carries
        ``result.profile`` — a
        :class:`~repro.observability.profile.QueryProfile` with the
        per-operator counters, timing spans, and the rewrite audit of
        this query's compilation.

        *cancellation* is an optional
        :class:`~repro.hyracks.limits.CancellationToken`; cancelling it
        (from another thread, or through its filesystem flag) makes the
        running query raise
        :class:`~repro.errors.QueryCancelledError` at the next frame
        boundary with all spill files and memory charges released.
        """
        if self._closed:
            from repro.errors import ProcessorClosedError

            raise ProcessorClosedError("processor")
        compiled = self.compile(query)
        result = self._executor.run(
            compiled.plan, profile=profile, cancellation=cancellation
        )
        if result.profile is not None:
            result.profile.rewrite = compiled.audit
        return result

    def profile(self, query: str, clock: str = "counter"):
        """Run *query* profiled and return just its ``QueryProfile``.

        Defaults to the deterministic ``counter`` clock (spans count
        clock reads, not wall time), so profiles of seeded runs are
        byte-identical across the sequential and process backends.
        """
        return self.execute(query, profile=clock).profile

    def evaluate(self, query: str) -> list[Item]:
        """Compile and run *query*; returns just the result items."""
        return self.execute(query).items

    def explain(
        self, query: str, show_trace: bool = False, profile: bool = False
    ) -> str:
        """The naive and rewritten plans (optionally the rewrite trace).

        With ``profile=True`` the query is also *executed* under the
        deterministic counter clock and the rendered operator profile
        (plus the rewrite audit) is appended to the report.
        """
        compiled = self.compile(query)
        report = compiled.explain(show_trace=show_trace)
        if profile:
            query_profile = self.profile(query)
            report += "\n\n" + query_profile.render()
        return report

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the backend's worker pool.

        Idempotent — double-close is a no-op.  After close every
        ``execute``/``evaluate``/``profile`` raises
        :class:`~repro.errors.ProcessorClosedError` instead of silently
        re-creating worker pools.  ``__exit__`` routes through here, so
        a query that unwinds via an exception inside a ``with`` block
        still shuts the pools down.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.close()

    def __enter__(self) -> "JsonProcessor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
