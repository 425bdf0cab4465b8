"""Partitioned query execution.

The executor takes a (rewritten) logical plan and runs it over a
partitioned collection, mirroring how VXQuery's Hyracks jobs run.  Where
each operator runs follows from one bottom-up physical property (as in
Algebricks), the partitioning an operator's output comes in: DATASCAN
delivers ``partitioned``; ASSIGN, SELECT, UNNEST and SUBPLAN keep their
input's unless they read a collection themselves (in an expression or a
nested plan), which needs the whole input, ``global``; a JOIN with
equality keys over two partitioned sides delivers ``hash-partitioned``
(one share per exchange bucket); anything else delivers ``global``.

The strategy is one lookup in ``_STRATEGIES`` from the root-most
blocking operator and the partitioning it sees; the operators above it
run at the coordinator:

- none, over ``partitioned``: ``pipelined`` (Q0/Q0b), one plan instance
  per partition, results concatenated;
- GROUP-BY over ``partitioned``: partition-local GROUP-BYs and a
  coordinator combine (``grouped-two-step``, Q1/Q1b); with two-step
  aggregation disabled, raw tuples ship to the coordinator
  (``grouped-raw``, the ablation of Section 4.3's last rule);
- AGGREGATE over ``partitioned``: the same partial/combine
  decomposition (``aggregated-two-step`` / ``aggregated-raw``);
- JOIN over ``partitioned`` or AGGREGATE over ``hash-partitioned``
  (Q2): ``hash-join``, both sides hashed into per-partition buckets;
- any other pair runs as one ``global`` instance — the naive plans
  among them, which makes the "before rules" bars of Figures 13-16 tall.

Partition work is dispatched through a pluggable
:mod:`~repro.hyracks.backends` layer: ``sequential`` (the default) runs
partitions one after another in-process and ``process`` runs them on a
``ProcessPoolExecutor`` — real multi-core parallelism for the
pure-Python operators.  Every strategy below is the same two steps:
:meth:`PartitionedExecutor._map` runs one work callable per partition
on the backend and folds the outcomes, :meth:`PartitionedExecutor._finish`
runs the coordinator's share.  Every
partition's work is executed for real and timed; the result carries
per-partition seconds so a :class:`~repro.hyracks.cluster.ClusterSpec`
can compose a simulated cluster makespan, plus the *measured* parallel
wall time of the partition phases under the chosen backend.

Partition work additionally runs under a
:class:`~repro.resilience.policies.ResilienceConfig`: a failed partition
runs again, up to ``max_attempts`` attempts in all, while the failure
came from outside the query (:func:`~repro.errors.is_retryable`); then
``on_exhausted="fail"`` (the default) wraps the failure in a
:class:`~repro.errors.PartitionExecutionError` naming the collection,
partition, and file, and ``"skip"`` drops the failing partition and
records it in the result's
:class:`~repro.resilience.report.DegradationReport`.  Per-partition
stats and degradation entries are merged on the coordinator in
partition order, so both backends produce identical results and reports
under a fixed fault seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

from repro.errors import PlanError
from repro.algebra.context import EvaluationContext
from repro.algebra.operators import (
    Aggregate,
    Assign,
    DataScan,
    DistributeResult,
    GroupBy,
    Join,
    Operator,
    Select,
    Subplan,
    Unnest,
)
from repro.algebra.plan import LogicalPlan, read_set
from repro.hyracks.aggregates import GroupStates
from repro.hyracks.backends import (
    ExchangeWork,
    FoldPartialsWork,
    GroupTableWork,
    JoinBucketWork,
    PartitionOutcome,
    PipelinedWork,
    TupleStreamWork,
    WorkUnit,
    resolve_backend,
)
from repro.hyracks.cluster import ClusterSpec
from repro.hyracks.memory import MemoryTracker
from repro.hyracks.operators import run_chain, run_plan, split_join_condition
from repro.hyracks.tuples import (
    DEFAULT_FRAME_BYTES,
    Tuple,
    count_frames,
    sizeof_tuples,
)
from repro.jsonlib.items import Item
from repro.observability.profile import (
    ProfileCollector,
    build_query_profile,
    resolve_profile_config,
)
from repro.resilience.policies import ResilienceConfig
from repro.resilience.report import DegradationReport

@dataclass
class ExecutionStats:
    """Counters accumulated while a query runs."""

    items_scanned: int = 0
    scanned_item_bytes: int = 0
    exchange_tuples: int = 0
    exchange_bytes: int = 0
    #: spill-to-disk counters (bounded-memory execution)
    spill_events: int = 0
    spill_run_files: int = 0
    spill_bytes: int = 0
    spill_recursion_depth: int = 0
    #: crash-recovery counters (worker loss, ladder).
    #: ``worker_crashes`` and ``ladder_steps`` are deterministic under a
    #: seeded kill schedule; pool rebuilds are timing-dependent and
    #: deliberately kept out of the degradation report.
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    ladder_steps: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (coordinator merge)."""
        self.items_scanned += other.items_scanned
        self.scanned_item_bytes += other.scanned_item_bytes
        self.exchange_tuples += other.exchange_tuples
        self.exchange_bytes += other.exchange_bytes
        self.spill_events += other.spill_events
        self.spill_run_files += other.spill_run_files
        self.spill_bytes += other.spill_bytes
        if other.spill_recursion_depth > self.spill_recursion_depth:
            self.spill_recursion_depth = other.spill_recursion_depth
        self.worker_crashes += other.worker_crashes
        self.pool_rebuilds += other.pool_rebuilds
        self.ladder_steps += other.ladder_steps


@dataclass
class QueryResult:
    """Everything a query execution produced and measured."""

    items: list
    partition_seconds: list[float] = field(default_factory=list)
    global_seconds: float = 0.0
    wall_seconds: float = 0.0
    peak_memory_bytes: int = 0
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    strategy: str = "global"
    degradation: DegradationReport = field(default_factory=DegradationReport)
    backend: str = "sequential"
    parallel_wall_seconds: float = 0.0
    #: merged :class:`~repro.observability.profile.QueryProfile`
    #: (None unless the run was profiled)
    profile: object = None
    #: seconds left on the query deadline when execution finished
    #: (None when no deadline was set)
    deadline_slack_seconds: float | None = None

    @property
    def is_partial(self) -> bool:
        """True when degradation dropped data from this result."""
        return self.degradation.is_partial

    @property
    def warnings(self) -> list[str]:
        """Human-readable degradation warnings (empty for a clean run)."""
        return self.degradation.warnings

    def simulated_seconds(self, cluster: ClusterSpec, smooth: bool = True) -> float:
        """Cluster makespan for this execution under *cluster*.

        With ``smooth`` (the default), per-partition times are replaced
        by their mean before placement — **sequential backend only**:
        partitions carry symmetric data shares, so the variance measured
        by running them one after another in one process is
        scheduler/GC jitter, not real skew.  Under the ``process``
        backend the measured per-partition times include *real*
        contention (cores, memory bandwidth), which is
        exactly what a cluster placement should see, so smoothing is
        never applied there and ``smooth`` is ignored.  Pass
        ``smooth=False`` to place the raw sequential measurements too.
        """
        seconds = self.partition_seconds
        if smooth and self.backend == "sequential" and seconds:
            mean = sum(seconds) / len(seconds)
            seconds = [mean] * len(seconds)
        return cluster.makespan(
            seconds,
            exchange_bytes=self.stats.exchange_bytes,
            global_seconds=self.global_seconds,
        )


class PartitionedExecutor:
    """Runs logical plans over a partitioned data source.

    Parameters
    ----------
    source:
        A :class:`~repro.algebra.context.DataSource`.
    two_step_aggregation:
        Enable partition-local/global aggregation (Section 4.3); when
        off, grouped and global aggregations ship raw tuples to the
        coordinator.
    memory_budget_bytes:
        Optional per-instance memory budget.  Blocking operators spill
        to disk when a charge would exceed it; only a charge that no
        operator can shed raises
        :class:`~repro.errors.MemoryBudgetExceededError`.
    resilience:
        Per-partition error handling
        (:class:`~repro.resilience.policies.ResilienceConfig`); the
        default runs each partition once and fails the query on its
        error.
    backend:
        Execution backend for partition work: ``"sequential"`` (default),
        ``"process"``, or an
        :class:`~repro.hyracks.backends.ExecutionBackend` instance.
        ``None`` consults the ``REPRO_BACKEND`` environment variable.
    max_workers:
        Worker cap for the ``process`` backend (default: the cores this
        process may run on); must be positive.
    spill_dir:
        Root directory for spill run files (default: ``REPRO_SPILL_DIR``
        or the system temp dir), or a
        :class:`~repro.hyracks.spill.SpillConfig` for full control.
    deadline_seconds:
        Per-query deadline; a query running past it raises a
        :class:`~repro.errors.QueryTimeoutError`.  ``None`` consults the
        ``REPRO_DEADLINE`` environment variable.
    """

    def __init__(
        self,
        source,
        two_step_aggregation: bool = True,
        memory_budget_bytes: int | None = None,
        resilience: ResilienceConfig | None = None,
        backend=None,
        max_workers: int | None = None,
        spill_dir: str | None = None,
        deadline_seconds: float | None = None,
    ):
        from repro.hyracks.limits import resolve_deadline_seconds
        from repro.hyracks.spill import resolve_spill_config

        self._source = source
        self._two_step = two_step_aggregation
        self._memory_budget = memory_budget_bytes
        self._resilience = resilience if resilience is not None else ResilienceConfig()
        self._backend = resolve_backend(backend, max_workers=max_workers)
        # Spilling only ever triggers on a declined memory charge, so a
        # spill config without a budget would be inert — skip it.
        self._spill_config = (
            resolve_spill_config(spill_dir)
            if memory_budget_bytes is not None
            else None
        )
        self._deadline_seconds = resolve_deadline_seconds(deadline_seconds)
        self._parallel_wall = 0.0
        self._profile_config = None
        self._profile = None  # coordinator-side ProfileCollector while running
        self._limits = None  # ExecutionLimits for the in-flight query
        self._open_spills = []  # coordinator-side SpillManagers to close
        self._query_spill = None  # per-query scoped SpillConfig while running
        self._closed = False

    @property
    def backend(self):
        """The resolved :class:`~repro.hyracks.backends.ExecutionBackend`."""
        return self._backend

    def close(self) -> None:
        """Release the backend's worker pool.

        Idempotent; once closed, :meth:`run` raises
        :class:`~repro.errors.ProcessorClosedError` instead of silently
        re-creating pools.
        """
        if self._closed:
            return
        self._closed = True
        self._backend.close()

    # -- public ---------------------------------------------------------------

    def run(self, plan: LogicalPlan, profile=None, cancellation=None) -> QueryResult:
        """Execute *plan* and return items plus measurements.

        *profile* enables operator-level profiling: ``True`` (wall
        clock), a clock name (``"wall"`` | ``"counter"`` | ``"none"``),
        or a :class:`~repro.observability.profile.ProfileConfig`; the
        default ``None`` consults the ``REPRO_PROFILE`` environment
        variable.  When enabled, ``result.profile`` carries the merged
        :class:`~repro.observability.profile.QueryProfile`.

        *cancellation* is an optional
        :class:`~repro.hyracks.limits.CancellationToken`; triggering it
        makes the query raise
        :class:`~repro.errors.QueryCancelledError` at the next frame
        boundary, unwinding with every spill file released.
        """
        from repro.errors import (
            ProcessorClosedError,
            QueryCancelledError,
            QueryTimeoutError,
        )
        from repro.hyracks.limits import ExecutionLimits, QueryDeadline

        if self._closed:
            raise ProcessorClosedError("executor")
        started = time.perf_counter()
        stats = ExecutionStats()
        report = DegradationReport()
        self._parallel_wall = 0.0
        # Pin this query's spill scope: every attempt directory (on the
        # coordinator and inside workers) nests under one per-query
        # root, so concurrent queries can never collide on spill paths.
        self._query_spill = (
            self._spill_config.scoped()
            if self._spill_config is not None
            else None
        )
        self._profile_config = resolve_profile_config(profile)
        self._profile = (
            ProfileCollector(plan, self._profile_config)
            if self._profile_config is not None
            else None
        )
        deadline = (
            QueryDeadline.start(self._deadline_seconds)
            if self._deadline_seconds is not None
            else None
        )
        self._limits = (
            ExecutionLimits(deadline, cancellation)
            if deadline is not None or cancellation is not None
            else None
        )
        self._open_spills = []
        try:
            result = self._dispatch(
                plan, QueryResult([], stats=stats, degradation=report)
            )
        except (QueryTimeoutError, QueryCancelledError) as error:
            # Coordinator-side limit hit (worker-side hits arrive with
            # error.degradation already attached by _map).
            if getattr(error, "degradation", None) is None:
                report.record_cancellation(-1, error)
                error.degradation = report
            raise
        finally:
            # Guaranteed cleanup: every coordinator-side spill manager
            # closes (removing its run files) no matter how we unwound.
            # Each manager is isolated — a close that itself fails (a
            # cancelled query racing a spill-write error can leave a
            # manager whose run files are already gone) must not skip
            # the remaining managers or the scope-dir removal below.
            for manager in self._open_spills:
                try:
                    manager.fold_stats(stats)
                    manager.close()
                except Exception:
                    pass
            self._open_spills = []
            # The per-query scope directory is ours alone (the scope is
            # query-unique), so removing the whole tree cannot touch a
            # concurrent query's run files.
            query_spill = self._query_spill
            self._query_spill = None
            if query_spill is not None:
                scope_dir = query_spill.scope_directory()
                if scope_dir is not None:
                    import shutil

                    shutil.rmtree(scope_dir, ignore_errors=True)
            limits = self._limits
            self._limits = None
        if limits is not None:
            result.deadline_slack_seconds = limits.remaining_seconds()
        result.wall_seconds = time.perf_counter() - started
        result.backend = self._backend.name
        result.parallel_wall_seconds = self._parallel_wall
        if self._profile is not None:
            result.profile = build_query_profile(
                plan,
                self._profile,
                result.strategy,
                len(result.partition_seconds),
            )
            self._profile = None
            self._profile_config = None
        return result

    def _dispatch(self, plan: LogicalPlan, result: QueryResult) -> QueryResult:
        global_ops, blocking, seen = _placement(plan)
        strategy = _STRATEGIES.get((type(blocking), seen))
        if strategy is None:
            return self._run_global(plan, result)
        collections = read_set(plan.root).collections
        counts = {self._source.partition_count(name) for name in collections}
        if len(counts) > 1:
            # Collections partitioned differently cannot share one
            # partition-aligned job: run a single global instance.
            return self._run_global(plan, result)
        (partitions,) = counts
        if partitions <= 0:
            raise PlanError(f"collection {collections[0]!r} has no partitions")
        return strategy(self, plan, global_ops, blocking, partitions, result)

    # -- contexts ---------------------------------------------------------------

    def _context(
        self, memory: MemoryTracker, result: QueryResult
    ) -> EvaluationContext:
        """The coordinator's context: no partition, the query's stats and
        degradation report.  Spill faults are scheduled per partition,
        so its spill manager has no fault hook."""
        spill = None
        if self._query_spill is not None:
            from repro.hyracks.spill import SpillManager

            spill = SpillManager(self._query_spill)
            # run() closes every registered manager in its finally block,
            # so coordinator-side run files never outlive the query.
            self._open_spills.append(spill)
        return EvaluationContext(
            source=self._source,
            memory=memory,
            stats=result.stats,
            profile=self._profile,
            spill=spill,
            limits=self._limits,
            report=result.degradation,
        )

    def _tracker(self) -> MemoryTracker:
        return MemoryTracker(self._memory_budget, context="query execution")

    # -- backend dispatch --------------------------------------------------------

    def _map(
        self,
        plan: LogicalPlan,
        works: list,
        result: QueryResult,
    ) -> list[PartitionOutcome]:
        """Run ``works[p]`` as partition *p* on the backend; fold the
        outcomes into *result*; return those of the partitions kept.

        Outcomes come back in submission (partition-id) order regardless
        of completion order, so the merged stats, degradation report,
        and any partition error are deterministic under every
        backend.  Timing adds up per partition across calls (a join maps
        twice); a skipped partition is timed but not returned.
        """
        stats, report = result.stats, result.degradation
        units = [
            WorkUnit(
                plan=plan,
                partition=partition,
                work=work,
                source=self._source,
                memory_budget=self._memory_budget,
                resilience=self._resilience,
                profile=self._profile_config,
                spill=self._query_spill,
                limits=self._limits,
            )
            for partition, work in enumerate(works)
        ]
        started = time.perf_counter()
        outcomes: list[PartitionOutcome] = []
        events: list = []
        try:
            for outcome in self._backend.run_units(units, events):
                if outcome.error is not None:
                    # A query-global limit fired in a worker.  Fold what
                    # that partition measured, attach the merged report,
                    # and unwind — run()'s finally releases every spill.
                    stats.merge(outcome.stats)
                    report.absorb(outcome.report)
                    outcome.error.degradation = report
                    raise outcome.error
                outcomes.append(outcome)
        finally:
            self._parallel_wall += time.perf_counter() - started
            # Fold whatever the crash-recovery layer logged (worker
            # losses, ladder steps) into the query's stats and
            # degradation report — on success and on unwind alike.
            for event in events:
                _fold_recovery_event(event, stats, report)
        if not result.partition_seconds:
            result.partition_seconds = [0.0] * len(outcomes)
        for outcome in outcomes:
            stats.merge(outcome.stats)
            report.absorb(outcome.report)
            if self._profile is not None:
                self._profile.absorb(outcome.profile)
            result.partition_seconds[outcome.partition] += outcome.measured_seconds
            result.peak_memory_bytes = max(
                result.peak_memory_bytes, outcome.peak_memory_bytes
            )
        return [outcome for outcome in outcomes if not outcome.skipped]

    def _finish(
        self, result: QueryResult, global_ops: list[Operator], make_stream
    ) -> QueryResult:
        """The coordinator's share of a partitioned strategy, timed: run
        ``make_stream(ctx)`` through the operators peeled off the root."""
        memory = self._tracker()
        ctx = self._context(memory, result)
        started = time.perf_counter()
        result.items = _finish_through_globals(global_ops, make_stream(ctx), ctx)
        result.global_seconds = time.perf_counter() - started
        result.peak_memory_bytes = max(result.peak_memory_bytes, memory.peak)
        return result

    def _record_frames(self, op: Operator, sizes=(), n_bytes: int = 0) -> None:
        """Charge ``frames_emitted`` for tuples shipped at an exchange.

        Raw tuple streams count the frames :func:`count_frames` packs
        *sizes* into (``sizeof_tuples``, one entry per tuple in shipping
        order); partial/byte-counted exchanges charge whole frames over
        *n_bytes*.  Only runs while profiling.
        """
        if self._profile is None:
            return
        frames = count_frames(sizes) + -(-n_bytes // DEFAULT_FRAME_BYTES)
        if frames:
            self._profile.add(op, "frames_emitted", frames)

    def _ship_raw(
        self, op: Operator, outcomes: list[PartitionOutcome], stats: ExecutionStats
    ) -> list[Tuple]:
        """Gather the tuples the partitions shipped raw to the coordinator
        for *op*, charging the exchange once for the whole batch."""
        shipped = [tup for outcome in outcomes for tup in outcome.value]
        sizes = sizeof_tuples(shipped)
        stats.exchange_tuples += len(shipped)
        stats.exchange_bytes += sum(sizes)
        self._record_frames(op, sizes)
        return shipped

    def _combine(
        self,
        op: Operator,
        blocking: GroupBy | Aggregate,
        tables: list[dict],
        stats: ExecutionStats,
    ):
        """Charge the exchange at *op* for one partial tuple per entry of
        the partition *tables*; return the stream maker that merges them
        into one tuple per group of *blocking*.

        Tables merge in partition order: a group's first entry is taken
        as it came (key values and partials), a later one's partials
        merge into it.  An AGGREGATE starts from its group of no keys
        with empty partials, so it answers one tuple even when no
        partition was kept.
        """
        shipped = sum(len(table) for table in tables)
        stats.exchange_tuples += shipped
        stats.exchange_bytes += shipped * _PARTIAL_TUPLE_BYTES
        self._record_frames(op, n_bytes=shipped * _PARTIAL_TUPLE_BYTES)
        if isinstance(blocking, GroupBy):
            specs = blocking.nested_root.specs
            key_vars = [var for var, _ in blocking.keys]
        else:
            specs, key_vars = blocking.specs, []

        def combined(ctx):
            aggregates = GroupStates(specs, ctx)
            merged: dict = {}
            if isinstance(blocking, Aggregate):
                merged[()] = ((), aggregates.take(aggregates.new(), ctx))
            for table in tables:
                for key, entry in table.items():
                    group = merged.get(key)
                    if group is None:
                        merged[key] = entry
                    else:
                        aggregates.merge(group[1], entry[1])
            for key_values, partials in merged.values():
                yield aggregates.bindings(partials, key_vars, key_values)

        return combined

    # -- strategies ---------------------------------------------------------------

    def _run_global(self, plan: LogicalPlan, result: QueryResult) -> QueryResult:
        """Single-instance execution (naive plans, unsupported shapes).

        A global instance has no partitions to retry or skip, so the
        resilience policies do not apply here.
        """
        memory = self._tracker()
        ctx = self._context(memory, result)
        started = time.perf_counter()
        result.items = run_plan(plan, ctx)
        result.partition_seconds = [time.perf_counter() - started]
        result.peak_memory_bytes = memory.peak
        return result

    def _run_pipelined(
        self, plan: LogicalPlan, global_ops, blocking, partitions: int, result
    ) -> QueryResult:
        """Fully pipelined plan: one independent instance per partition
        runs every operator (*global_ops* and *blocking* are empty)."""
        result.strategy = "pipelined"
        for outcome in self._map(plan, [PipelinedWork(plan)] * partitions, result):
            result.items.extend(outcome.value)
        return result

    def _run_two_step(
        self,
        plan: LogicalPlan,
        global_ops: list[Operator],
        op: GroupBy | Aggregate,
        partitions: int,
        result: QueryResult,
    ) -> QueryResult:
        """Partition-local GROUP-BY or AGGREGATE *op* plus coordinator
        combine; with two-step aggregation off, the partitions ship raw
        tuples and *op* runs at the coordinator."""
        kind = "grouped" if isinstance(op, GroupBy) else "aggregated"
        if not self._two_step:
            result.strategy = f"{kind}-raw"
            outcomes = self._map(
                plan, [TupleStreamWork(op.input_op)] * partitions, result
            )
            shipped = self._ship_raw(op, outcomes, result.stats)
            return self._finish(
                result, global_ops, lambda ctx: run_chain([op], iter(shipped), ctx)
            )
        result.strategy = f"{kind}-two-step"
        work = GroupTableWork(op) if kind == "grouped" else FoldPartialsWork(op)
        outcomes = self._map(plan, [work] * partitions, result)
        tables = [outcome.value for outcome in outcomes]
        return self._finish(
            result, global_ops, self._combine(op, op, tables, result.stats)
        )

    def _run_join(
        self,
        plan: LogicalPlan,
        global_ops: list[Operator],
        blocking: Aggregate | Join,
        partitions: int,
        result: QueryResult,
    ) -> QueryResult:
        """Hash-partitioned join (plus optional aggregate on top).

        Phase 1: each partition scans its share of both sides and hashes
        tuples into per-partition buckets (the exchange).  Phase 2: each
        bucket joins locally, runs the intermediate operators, and — when
        an aggregate sits on top — folds a partial that the coordinator
        combines.  Both phases run on the configured backend; the bucket
        hash is process-stable so exchange sides hashed in different
        workers still meet in the same bucket.

        The resilience config applies to both phases: a skipped phase-1
        partition contributes no tuples to any bucket; a skipped phase-2
        bucket contributes nothing to the result.
        """
        if isinstance(blocking, Join):
            aggregate, mid_ops, join = None, [], blocking
        else:
            aggregate = blocking
            mid_ops, join = _peel(aggregate.input_op)
            mid_ops.reverse()
        left_keys, right_keys, residual = split_join_condition(join)
        result.strategy = "hash-join"
        stats = result.stats
        buckets = partitions
        # The coordinator moves sealed parcels and opens none: parcels[b]
        # is what bucket b's join opens, one parcel per partition in
        # partition order.  sizes[side][b] lists that side of the
        # bucket's tuple sizes (profiled runs only; the workers weigh
        # every exchanged tuple anyway).
        parcels: list[list] = [[] for _ in range(buckets)]
        sizes = [[[] for _ in range(buckets)] for _side in range(2)]
        exchange = ExchangeWork(join, tuple(left_keys), tuple(right_keys), buckets)
        for outcome in self._map(plan, [exchange] * partitions, result):
            shipped, n_tuples, n_bytes, weighed = outcome.value
            for bucket_parcels, parcel in zip(parcels, shipped):
                bucket_parcels.append(parcel)
            for side, side_weighed in zip(sizes, weighed):
                for bucket_sizes, chunk in zip(side, side_weighed):
                    bucket_sizes.extend(chunk)
            stats.exchange_tuples += n_tuples
            stats.exchange_bytes += n_bytes
        if self._profile is not None:
            if join.build_side != "right":
                self._profile.set_detail(
                    join, "physical", {"build_side": join.build_side}
                )
            for detail, side in zip(("left_buckets", "right_buckets"), sizes):
                self._profile.set_detail(join, detail, list(map(len, side)))
            self._record_frames(
                join, chain.from_iterable(sizes[0] + sizes[1])
            )
        use_two_step = aggregate is not None and self._two_step
        bucket_outcomes = self._map(
            plan,
            [
                JoinBucketWork(
                    tuple(bucket_parcels),
                    residual,
                    tuple(mid_ops),
                    aggregate if use_two_step else None,
                    build_side=join.build_side,
                )
                for bucket_parcels in parcels
            ],
            result,
        )
        if use_two_step:
            tables = [outcome.value for outcome in bucket_outcomes]
            return self._finish(
                result, global_ops, self._combine(join, aggregate, tables, stats)
            )
        # Joined tuples ship to the coordinator for the global
        # aggregate / result assembly.
        bucket_outputs = self._ship_raw(join, bucket_outcomes, stats)
        above = [aggregate] if aggregate is not None else []
        return self._finish(
            result,
            global_ops,
            lambda ctx: run_chain(above, iter(bucket_outputs), ctx),
        )


_PARTIAL_TUPLE_BYTES = 128


def _fold_recovery_event(
    event, stats: ExecutionStats, report: DegradationReport
) -> None:
    """Route one recovery-layer event into stats and/or the report.

    Worker losses and ladder steps are deterministic under a seeded kill
    schedule and belong in the degradation report; pool rebuilds are
    timing-dependent and stay stats-only so the report keeps its
    byte-identical-across-runs guarantee.
    """
    kind = event.kind
    if kind == "worker_loss":
        stats.worker_crashes += 1
        report.record_worker_loss(event.partition, event.attempt, event.message)
    elif kind == "ladder_step":
        stats.ladder_steps += 1
        report.record_ladder_step(event.tier, event.to_tier, event.message)
    elif kind == "pool_rebuild":
        stats.pool_rebuilds += 1


# ---------------------------------------------------------------------------
# Placement: where each operator runs
# ---------------------------------------------------------------------------

#: one instance per scan partition
PARTITIONED = "partitioned"
#: one instance per join bucket (the exchange hashed both sides by key)
HASH_PARTITIONED = "hash-partitioned"
#: one instance over the whole input, at the coordinator
GLOBAL = "global"

_CHAIN_OPS = (Assign, Select, Unnest, Subplan, DistributeResult)


def _delivered(op: Operator) -> str:
    """The partitioning *op*'s output stream comes in."""
    if isinstance(op, DataScan):
        return PARTITIONED
    if isinstance(op, _CHAIN_OPS):
        return _required(op)
    if isinstance(op, Join) and _required(op) == PARTITIONED:
        return HASH_PARTITIONED
    return GLOBAL


def _required(op: Operator) -> str:
    """The partitioning *op* sees its input in.

    An operator that reads a collection itself (in an expression or a
    nested plan) needs its input gathered: per partition it would read
    only that partition's share.  A JOIN sees partitioned input when
    both sides are and it has equality keys to hash them on."""
    if read_set(op, inputs=False).collections or not op.inputs:
        return GLOBAL
    if isinstance(op, Join):
        sides = {_delivered(side) for side in op.inputs}
        keyed = split_join_condition(op)[0]
        return PARTITIONED if sides == {PARTITIONED} and keyed else GLOBAL
    return _delivered(op.inputs[0])


def _peel(op: Operator) -> tuple[list[Operator], Operator]:
    """Walk down the pipelined operators from *op*: (them top-down, the
    first operator that is not one)."""
    chain_ops: list[Operator] = []
    while isinstance(op, _CHAIN_OPS):
        chain_ops.append(op)
        op = op.inputs[0]
    return chain_ops, op


def _placement(plan: LogicalPlan):
    """``(global_ops, blocking, seen)``: the root-most blocking operator,
    the operators above it (top-down) and the partitioning it sees.  With
    no blocking operator every operator runs per partition: *blocking*
    is None and *seen* is what the root delivers."""
    global_ops, blocking = _peel(plan.root)
    if not blocking.inputs:
        return [], None, _delivered(plan.root)
    return global_ops, blocking, _required(blocking)


#: (root-most blocking operator type, the partitioning it sees) ->
#: strategy; every other pair runs as one global instance.
_STRATEGIES = {
    (type(None), PARTITIONED): PartitionedExecutor._run_pipelined,
    (GroupBy, PARTITIONED): PartitionedExecutor._run_two_step,
    (Aggregate, PARTITIONED): PartitionedExecutor._run_two_step,
    (Aggregate, HASH_PARTITIONED): PartitionedExecutor._run_join,
    (Join, PARTITIONED): PartitionedExecutor._run_join,
}


def _finish_through_globals(
    global_ops: list[Operator], stream, ctx: EvaluationContext
) -> list[Item]:
    """Run the peeled root operators (top-down list) over *stream*."""
    if not global_ops or not isinstance(global_ops[0], DistributeResult):
        raise PlanError("expected DISTRIBUTE-RESULT at the plan root")
    bottom_up = list(reversed(global_ops))
    items: list[Item] = []
    for tup in run_chain(bottom_up, stream, ctx):
        items.extend(tup["__result__"])
    return items
