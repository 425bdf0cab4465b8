"""Pluggable execution backends: real multi-core partition execution.

The paper's headline claim is *parallel* scalable JSON processing —
partitioned Hyracks jobs running one plan instance per partition
concurrently.  This module supplies the execution layer that makes the
partitions actually run in parallel:

- :class:`SequentialBackend` — one partition after another in the
  calling thread (the default);
- :class:`ProcessBackend` — partitions on a
  ``concurrent.futures.ProcessPoolExecutor``, one OS process per
  worker, the only configuration that uses more than one core for the
  pure-Python operators (threads share the GIL).

Every partition's work travels as a picklable :class:`WorkUnit`
(serialized plan + data source + partition id + resilience config) and
comes back as a :class:`PartitionOutcome` carrying that partition's own
:class:`~repro.hyracks.executor.ExecutionStats`, memory peak, and
:class:`~repro.resilience.report.DegradationReport`.  The coordinator
(:class:`~repro.hyracks.executor.PartitionedExecutor`) merges outcomes
**in partition order**, so results, stats, and degradation reports are
byte-identical across both backends — including under injected
faults, retries, and ``skip_partition`` degradation.

What the pool is paid per is the *worker*, not the partition: the
process backend cuts a phase's units, in order, into one contiguous run
per worker and submits one future per run; the worker unpickles and
executes its units one after another, each from its own blob, so a unit
is the same unit whatever the worker count.  A join's exchanged tuples
cross the coordinator in sealed :class:`Parcel` objects: pickled once
by the phase-1 worker that bucketed them, copied as bytes through the
coordinator (which opens none), unpickled once by the phase-2 worker
that joins the bucket.

Worker *loss* is handled one layer up, in
:mod:`~repro.hyracks.recovery`, which owns the process backend's only
dispatch loop: a dead pool worker does not abort the query — the
pool is rebuilt, only unfinished units are rescheduled (with a bounded
attempt budget), and repeated loss steps the remaining units down to
the sequential tier.  A slow worker is waited for, never duplicated.

Two behavioural fine points:

- ``fail_fast`` errors are *returned* in the outcome rather than raised
  inside the worker, and the coordinator raises the first error in
  partition order — deterministic even when several partitions fail
  concurrently;
- under :class:`ProcessBackend` each worker mutates its own *copy* of
  the data source, so transient-fault attempt counters on a shared
  :class:`~repro.resilience.faults.FaultPlan` do not accumulate in the
  parent process across queries (call ``plan.reset()`` between runs,
  as the sequential backend also requires for repeatability).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

from repro.errors import (
    FileScanError,
    PartitionExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    causes,
)
from repro.algebra.context import EvaluationContext
from repro.algebra.operators import Aggregate, GroupBy, Join, Operator
from repro.algebra.plan import LogicalPlan, read_set
from repro.hyracks.aggregates import GroupStates
from repro.hyracks.memory import MemoryTracker
from repro.hyracks.operators import (
    execute,
    grouped_input,
    hash_join,
    keyed_inputs,
    run_chain,
    run_plan,
)
from repro.hyracks.recovery import (
    mark_pool_worker,
    run_unit_with_crash_retry,
    run_units_with_recovery,
    simulate_worker_kill,
)
from repro.hyracks.spill import GROUP_ENTRY_BYTES, fold_group_table, stable_bucket
from repro.hyracks.tuples import sizeof_tuples


def usable_cores() -> int:
    """Cores this process may be scheduled on: its CPU affinity where the
    platform has one (a container or ``taskset`` pins a process to fewer
    cores than the machine counts), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Work descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelinedWork:
    """One full plan instance over the worker's partition."""

    plan: LogicalPlan

    def __call__(self, ctx: EvaluationContext):
        return run_plan(self.plan, ctx)


@dataclass(frozen=True)
class GroupTableWork:
    """Partition-local GROUP-BY: fold its input into a partials table.

    Returns ``{key: (key_values, [partial, ...])}`` — plain picklable
    partials, so the table ships cleanly across process workers even
    when a spilling ``sequence`` state held its items in run files.
    """

    group_by: GroupBy

    def __call__(self, ctx: EvaluationContext):
        group_by = self.group_by
        aggregates, table = fold_group_table(
            group_by, grouped_input(group_by, ctx), ctx
        )
        out = {
            key: (key_values, aggregates.take(states, ctx))
            for key, (key_values, states, _) in table.items()
        }
        if ctx.memory is not None:
            ctx.memory.release(GROUP_ENTRY_BYTES * len(table))
        return out


@dataclass(frozen=True)
class TupleStreamWork:
    """Materialize a subplan's raw tuples (the two-step-disabled path)."""

    op: Operator

    def __call__(self, ctx: EvaluationContext):
        return list(execute(self.op, ctx))


@dataclass(frozen=True)
class FoldPartialsWork:
    """Global aggregate: fold a partition into the partials table of
    the one group of no keys, ``{(): ((), [partial, ...])}``."""

    aggregate: Aggregate

    def __call__(self, ctx: EvaluationContext):
        stream = execute(self.aggregate.input_op, ctx)
        return GroupStates(self.aggregate.specs, ctx).fold_table(stream, ctx)


class Parcel:
    """A value that crosses the coordinator without being looked at.

    Pickling an open parcel pickles its value once and ships the bytes;
    unpickling yields a sealed parcel holding only those bytes, which
    pickles again as a copy of them (no object walk); :meth:`open`
    unpickles once and lets the bytes go.  A parcel that never crosses
    a process is never pickled and :meth:`open` is the identity.
    """

    __slots__ = ("_value", "_sealed")

    def __init__(self, value, _sealed: bytes | None = None):
        self._value = value
        self._sealed = _sealed

    def open(self):
        if self._sealed is not None:
            self._value = pickle.loads(self._sealed)
            self._sealed = None
        return self._value

    def __reduce__(self):
        sealed = self._sealed
        if sealed is None:
            sealed = pickle.dumps(self._value, pickle.HIGHEST_PROTOCOL)
        return Parcel, (None, sealed)


@dataclass(frozen=True)
class ExchangeWork:
    """Join phase 1: key both inputs, hash keyed tuples into buckets
    (the key that picked a tuple's bucket travels with it).

    Both inputs come from :func:`~repro.hyracks.operators.keyed_inputs`,
    which reads a partition once when they scan the same collection
    under the same projection (a self-join): each frame goes to the left
    input, then to the right, and every input's bucket order, counters
    and errors stay what reading it on its own gives.

    Returns one :class:`Parcel` per bucket (this partition's share of
    it, opening to ``(left, right)``, a side being its rows, their keys
    and their sizes), the exchanged tuple and byte counts, and,
    when profiled, each shipped tuple's size per side and bucket (the
    coordinator's ``frames_emitted`` and bucket details).
    """

    join: Join
    left_keys: tuple
    right_keys: tuple
    buckets: int

    def __call__(self, ctx: EvaluationContext):
        buckets = self.buckets
        # Per side, rows and keys side by side, not as pairs: a pair kept
        # per tuple is one more object for the collector to walk.
        rows = [[[] for _ in range(buckets)] for _side in range(2)]
        keys = [[[] for _ in range(buckets)] for _side in range(2)]
        for side, pairs in keyed_inputs(
            self.join, self.left_keys, self.right_keys, ctx
        ):
            side_rows, side_keys = rows[side], keys[side]
            for key, tup in pairs:
                bucket = stable_bucket(key, buckets)
                side_rows[bucket].append(tup)
                side_keys[bucket].append(key)
        exchanged_tuples = 0
        exchanged_bytes = 0
        shares = []  # per side, per bucket: (rows, keys, sizes)
        for side_rows, side_keys in zip(rows, keys):
            # What crosses the exchange is what sits in the buckets; one
            # side's tuples share a shape, so the side is sized as one
            # frame, and the sizes ride along.
            weighed = sizeof_tuples(list(chain.from_iterable(side_rows)))
            exchanged_tuples += len(weighed)
            exchanged_bytes += sum(weighed)
            cut = iter(weighed)
            shares.append(
                [
                    (r, k, list(islice(cut, len(r))))
                    for r, k in zip(side_rows, side_keys)
                ]
            )
        parcels = [Parcel(share) for share in zip(*shares)]
        profiled = ctx.profile is not None  # the coordinator's packing
        sizes = [[share[2] for share in side] for side in shares] if profiled else []
        return parcels, exchanged_tuples, exchanged_bytes, sizes


@dataclass(frozen=True)
class JoinBucketWork:
    """Join phase 2: join one bucket locally, optionally fold its
    partials table (as :class:`FoldPartialsWork` returns it).

    ``parcels`` are the bucket's shares, one from each partition in
    partition order, each opening to a ``(left, right)`` pair; they are
    opened here, in the worker, and each side is their rows chained and
    zipped back with their keys, the build side charged the sizes that
    came with it.
    """

    parcels: tuple
    residual: object
    mid_ops: tuple
    aggregate: Aggregate | None
    build_side: str = "right"

    def __call__(self, ctx: EvaluationContext):
        shares = [parcel.open() for parcel in self.parcels]

        def column(side, field):
            return chain.from_iterable(share[side][field] for share in shares)

        joined = hash_join(
            zip(column(0, 1), column(0, 0)),
            zip(column(1, 1), column(1, 0)),
            self.residual,
            ctx,
            build_side=self.build_side,
            build_sizes=column(0 if self.build_side == "left" else 1, 2),
        )
        stream = run_chain(list(self.mid_ops), joined, ctx)
        if self.aggregate is not None:
            return GroupStates(self.aggregate.specs, ctx).fold_table(stream, ctx)
        return list(stream)


# ---------------------------------------------------------------------------
# Work units and outcomes
# ---------------------------------------------------------------------------


@dataclass
class WorkUnit:
    """Everything one partition's worker needs, picklable end to end."""

    plan: LogicalPlan
    partition: int
    work: object  # one of the *Work callables above
    source: object
    memory_budget: int | None
    resilience: object
    charge_delay: bool = True
    #: ProfileConfig, or None for unprofiled execution.  The worker
    #: builds its own ProfileCollector over the (pickled) plan; operator
    #: identity survives the round trip because plan and work pickle
    #: together, so profile indices match the coordinator's.
    profile: object = None
    #: SpillConfig, or None to keep the raising memory-budget behaviour.
    #: The worker builds a fresh SpillManager per attempt and closes it
    #: (removing every run file) no matter how the attempt ended.
    spill: object = None
    #: ExecutionLimits (deadline + cancellation token), or None.
    limits: object = None
    #: Unit-level attempts already consumed by crashed workers.  The
    #: recovery layer bumps this when it reschedules a crashed unit, so
    #: kill/stall faults keyed on the global attempt number
    #: (offset + in-worker attempt) fire exactly once even though a
    #: fresh worker process holds fresh copies of everything.
    attempt_offset: int = 0
    #: Directory where a worker dying to an injected kill drops its
    #: crash sentinel (set by the recovery layer, None otherwise).
    crash_log_dir: str | None = None


@dataclass
class PartitionOutcome:
    """What one partition's worker produced and measured.

    ``value`` is the work product (None when skipped or failed);
    ``error`` carries the wrapped ``fail_fast`` error — or a raw
    query-global :class:`~repro.errors.QueryTimeoutError` /
    :class:`~repro.errors.QueryCancelledError` — instead of raising in
    the worker, so the coordinator can surface failures in deterministic
    partition order.
    """

    partition: int
    value: object = None
    skipped: bool = False
    measured_seconds: float = 0.0
    injected_seconds: float = 0.0
    peak_memory_bytes: int = 0
    stats: object = None
    report: object = None
    error: Exception | None = None
    #: plain-dict ProfileCollector snapshot (None when unprofiled)
    profile: object = None


def _wrap_partition_error(
    plan: LogicalPlan, partition: int, attempts: int, error: Exception
) -> PartitionExecutionError:
    file_path = next(
        (e.file_path for e in causes(error) if isinstance(e, FileScanError)), None
    )
    wrapped = PartitionExecutionError(
        partition,
        error,
        collections=read_set(plan.root).collections,
        file_path=file_path,
        attempts=attempts,
    )
    wrapped.__cause__ = error
    return wrapped


def execute_work_unit(unit: WorkUnit) -> PartitionOutcome:
    """Run one partition's work under its resilience policy.

    This is the function every backend ultimately calls — in the calling
    thread or in a worker process.  It owns the whole
    retry/skip loop so a partition's attempts never straddle workers,
    and gives the partition its own stats, memory tracker, and
    degradation report for deterministic coordinator-side merging.
    """
    from repro.hyracks.executor import ExecutionStats
    from repro.resilience.report import DegradationReport

    stats = ExecutionStats()
    report = DegradationReport()
    source = unit.source
    config = unit.resilience
    # The fault schedule of a fault-injecting source wrapper, if any.
    faults = getattr(source, "plan", None)
    measured = 0.0
    injected = 0.0
    peak = 0
    attempts = 0
    collector = None
    value = None
    skipped = False
    error = None
    while True:
        attempts += 1
        # Crash/stall faults key on the unit-level attempt (offset +
        # in-worker attempt) and run *outside* the try below: an
        # injected worker death must reach the recovery layer, not
        # the partition retry policy.
        unit_attempt = unit.attempt_offset + attempts
        if faults is not None:
            kill_message = faults.worker_kill_message(unit.partition, unit_attempt)
            if kill_message is not None:
                simulate_worker_kill(unit, unit_attempt, kill_message)
            stall = faults.stall_seconds(unit.partition, unit_attempt)
            if stall > 0:
                time.sleep(stall)
        memory = MemoryTracker(unit.memory_budget, context="query execution")
        if unit.profile is not None:
            # A fresh collector per attempt (like the fresh memory
            # tracker): retried attempts do not leak half-executed
            # counters into the reported profile.
            from repro.observability.profile import ProfileCollector

            collector = ProfileCollector(unit.plan, unit.profile)
        spill_manager = None
        if unit.spill is not None:
            from repro.hyracks.spill import SpillManager

            fault_hook = None
            if faults is not None:
                fault_hook = partial(faults.spill_write_attempt, unit.partition)
            spill_manager = SpillManager(
                unit.spill, partition=unit.partition, fault_hook=fault_hook
            )
        ctx = EvaluationContext(
            source=source,
            memory=memory,
            partition=unit.partition,
            stats=stats,
            profile=collector,
            spill=spill_manager,
            limits=unit.limits,
            report=report,
        )
        failure = None
        attempt_started = time.perf_counter()
        try:
            try:
                if unit.limits is not None:
                    unit.limits.check()
                value = unit.work(ctx)
            finally:
                # Guaranteed spill cleanup: every run file of this
                # attempt is removed on success, error, timeout, or
                # cancellation before anything else happens.
                if spill_manager is not None:
                    spill_manager.fold_stats(stats)
                    spill_manager.close()
        except (ReproError, OSError) as raised:
            failure = raised
        measured += time.perf_counter() - attempt_started
        peak = max(peak, memory.peak)
        if isinstance(failure, (QueryTimeoutError, QueryCancelledError)):
            # Query-global limits: never retried, never skipped, and
            # returned *unwrapped* so the coordinator re-raises the
            # limit error itself in partition order.
            report.record_cancellation(unit.partition, failure)
            error = failure
            break
        if faults is not None and unit.charge_delay:
            injected += faults.injected_delay(unit.partition)
        if failure is None:
            break
        if (
            config.partition_policy == "retry"
            and getattr(failure, "retryable", True)
            and attempts < config.retry.max_attempts
        ):
            backoff = config.retry.backoff_seconds(attempts)
            injected += backoff
            report.record_retry(unit.partition, attempts, backoff, failure)
            continue
        if config.partition_policy == "skip_partition" or (
            config.partition_policy == "retry"
            and config.on_exhausted == "skip"
        ):
            report.record_skipped_partition(
                unit.partition,
                read_set(unit.plan.root).collections,
                attempts,
                failure,
            )
            skipped = True
        else:
            error = _wrap_partition_error(
                unit.plan, unit.partition, attempts, failure
            )
        break
    return PartitionOutcome(
        unit.partition,
        value=value,
        skipped=skipped,
        measured_seconds=measured,
        injected_seconds=injected,
        peak_memory_bytes=peak,
        stats=stats,
        report=report,
        error=error,
        profile=_snapshot(collector),
    )


def _snapshot(collector) -> dict | None:
    """Picklable snapshot of a worker's profile collector (None when off)."""
    return None if collector is None else collector.data()


def _run_pickled_units(blobs: list[bytes]) -> bytes:
    """Process-pool entry point: execute a run of work units one after
    another, each from its own blob (no unit shares a plan, source or
    fault-plan copy with its neighbour); the outcomes, in unit order, go
    back pickled here.

    The scanners accept items nested as deep as the interpreter's
    recursion limit, and pickling one takes two levels of it per level
    of nesting, so the outcomes are pickled with three times the room:
    an item ``sequential`` answers with crosses the pool too.
    """
    mark_pool_worker()
    outcomes = [execute_work_unit(pickle.loads(blob)) for blob in blobs]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3 * limit)
    try:
        return pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Interface: execute work units, yield outcomes in submission order."""

    name = "abstract"

    def run_units(self, units: list[WorkUnit], events: list):
        """Run *units*; yield their outcomes in submission order.

        Every :class:`~repro.hyracks.recovery.RecoveryEvent` of the run
        is appended to *events*, the caller's own list: the backend
        keeps none."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers (no-op for poolless backends)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class SequentialBackend(ExecutionBackend):
    """One partition after another in the calling thread (the default).

    Lazily yields outcomes, so a ``fail_fast`` error on partition *i*
    means partitions *i+1..n* never execute.  Injected worker kills are
    absorbed by the crash-retry loop that is also the process backend's
    last tier, so recovery semantics (attempt budget, worker-loss
    events) match across backends.
    """

    name = "sequential"

    def __init__(self, max_workers: int | None = None):
        del max_workers  # accepted for interface symmetry

    def run_units(self, units: list[WorkUnit], events: list):
        for unit in units:
            yield run_unit_with_crash_retry(unit, events)


class ProcessBackend(ExecutionBackend):
    """Partitions on a ``ProcessPoolExecutor`` — real multi-core execution.

    Work units are pickled up front (one clear :class:`~repro.errors.BackendError`
    instead of an opaque pool crash when a source or function library is
    not picklable) and each worker is handed one contiguous run of them,
    executed by ``_run_pickled_units``.  The pool persists across
    queries so fork/spawn cost is paid once.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self._max_workers = max_workers or usable_cores()
        self._pool = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self):
        # Lazy creation is locked: two service threads racing here would
        # otherwise each build a pool and leak one of them.
        with self._pool_lock:
            if self._pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                try:
                    mp_context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    mp_context = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers, mp_context=mp_context
                )
            return self._pool

    def run_units(self, units: list[WorkUnit], events: list):
        return run_units_with_recovery(units, self, events)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


BACKENDS = {
    "sequential": SequentialBackend,
    "process": ProcessBackend,
}


def resolve_backend(backend=None, max_workers: int | None = None):
    """Turn a backend name (or instance, or None) into a backend.

    ``None`` consults the ``REPRO_BACKEND`` environment variable and
    falls back to ``sequential`` — which is how CI runs the whole test
    suite under the process backend without touching any call site.
    ``REPRO_BACKEND=""`` explicitly selects the default backend (see
    :mod:`repro.envutil` for the resolution rule).  *max_workers* caps
    the pool of a backend given by name and must be positive.
    """
    if max_workers is not None and max_workers <= 0:
        raise ValueError(
            f"max_workers must be a positive integer, got {max_workers!r}"
        )
    if backend is None:
        from repro.envutil import env_setting

        backend = env_setting("REPRO_BACKEND") or "sequential"
    if isinstance(backend, str):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{sorted(BACKENDS)} or an ExecutionBackend instance"
            )
        return BACKENDS[backend](max_workers=max_workers)
    if max_workers is not None:
        raise ValueError(
            "max_workers applies only when the backend is given by name"
        )
    return backend
