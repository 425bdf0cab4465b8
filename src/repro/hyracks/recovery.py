"""Crash recovery and the degradation ladder.

The paper's engine inherits Hyracks' cluster execution model, where
worker loss is absorbed by the runtime rather than surfaced to the
query author.  This module gives the process backend the same posture
(:func:`run_units_with_recovery` is the one loop every process-backend
query runs).  What is in flight is a **run**: the pending units are
cut, in order, into one contiguous run per pool worker
(:func:`cut_runs`), one future each, executed in the worker unit by
unit with each unit unpickled from its own blob.  Everything the
engine promises stays per unit — attempt offsets, crash sentinels, the
attempt budget, results keyed by unit index:

- **worker-loss recovery** — when a pool worker dies
  (``BrokenProcessPool`` in the pool,
  :class:`~repro.errors.WorkerCrashError` for an injected kill running
  in the coordinator's own process), the
  coordinator keeps the result of every run that had finished, rebuilds
  the pool, and re-cuts whatever has no result yet.  Units that had
  finished *inside* a lost run run again with unchanged offsets, like
  any other collateral unit; their first outcomes never reached the
  coordinator, so nothing is counted twice.  Each unit may start
  ``MAX_UNIT_ATTEMPTS`` times, so a deterministically crashing partition
  escalates with :class:`~repro.errors.RecoveryExhaustedError` instead
  of looping;
- **degradation ladder** — after repeated pool loss the remaining units
  step down process→sequential (attempt offsets carried), recorded in
  the :class:`~repro.resilience.report.DegradationReport`.

A slow unit is waited for, never duplicated: as in Hyracks' partitioned
dataflow, each unit's work runs once unless a worker died under it.

Determinism under injected crashes hinges on one bookkeeping rule: the
kill/stall faults are keyed on the **unit-level attempt number**
(``WorkUnit.attempt_offset`` + the in-worker attempt counter), a pure
function of the fault schedule with no stateful counters.  A fresh
worker process re-running a crashed partition therefore sees attempt 2,
not attempt 1, and a kill scheduled for attempt 1 fires exactly once.
The coordinator learns *which* partition crashed from a sentinel file
the dying worker drops just before ``os._exit`` — only that unit's
attempt offset advances; collateral units (healthy work killed when the
pool tore down) resubmit with unchanged offsets so their own scheduled
faults still fire on schedule.

Nothing outlives the call: a lost pool is dropped from the backend
before its loss is accounted (the accounting may raise), and any other
exit with units in flight cancels what never started and waits out
what did.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from dataclasses import dataclass, replace

from repro.errors import (
    BackendError,
    RecoveryExhaustedError,
    WorkerCrashError,
)

#: how many times one work unit may *start* (first run plus crash
#: reschedules) before it raises RecoveryExhaustedError
MAX_UNIT_ATTEMPTS = 3

#: exit status an injected kill dies with (distinguishable in core dumps
#: and CI logs from a real interpreter fault)
KILL_EXIT_CODE = 87

_SENTINEL_PREFIX = "crash-"

# Set (per process) by the pool-worker entry point so an injected kill
# knows whether it may really call os._exit or must raise
# WorkerCrashError instead (killing the interpreter would take the
# coordinator down under the sequential backend and tier).
_IN_POOL_WORKER = False


def mark_pool_worker() -> None:
    """Flag this process as a pool worker (called by the worker entry)."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def simulate_worker_kill(unit, attempt: int, message: str) -> None:
    """Die the way the fault plan scheduled.

    In a process-pool worker: drop a crash sentinel naming the partition
    and attempt, then ``os._exit`` — an abrupt death the coordinator
    observes as ``BrokenProcessPool``.  Anywhere else: raise
    :class:`~repro.errors.WorkerCrashError`, the same signal without
    taking the interpreter down.
    """
    if _IN_POOL_WORKER:
        write_crash_sentinel(
            getattr(unit, "crash_log_dir", None),
            unit.partition,
            attempt,
            message,
        )
        os._exit(KILL_EXIT_CODE)
    raise WorkerCrashError(unit.partition, attempt, message)


def write_crash_sentinel(
    directory: str | None, partition: int, attempt: int, message: str
) -> None:
    """Record (partition, attempt, message) for the coordinator to find.

    Best effort: a sentinel that cannot be written degrades recovery to
    the unattributed-crash path, it never blocks the (dying) worker.
    """
    if not directory:
        return
    path = os.path.join(directory, f"{_SENTINEL_PREFIX}p{partition}-a{attempt}")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(message)
    except OSError:  # pragma: no cover - sentinel loss is survivable
        pass


def read_crash_sentinels(directory: str) -> list[tuple[int, int, str]]:
    """Collect and remove crash sentinels, sorted by (partition, attempt)."""
    entries: list[tuple[int, int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return entries
    for name in names:
        if not name.startswith(_SENTINEL_PREFIX):
            continue
        try:
            part_token, attempt_token = name[len(_SENTINEL_PREFIX):].split("-")
            partition = int(part_token[1:])
            attempt = int(attempt_token[1:])
        except (ValueError, IndexError):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as handle:
                message = handle.read()
        except OSError:
            message = ""
        try:
            os.remove(path)
        except OSError:  # pragma: no cover
            pass
        entries.append((partition, attempt, message))
    entries.sort()
    return entries


# ---------------------------------------------------------------------------
# Recovery events (folded into stats/report by the coordinator)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery-layer happening, appended to the events list the
    executor hands the backend for one phase and folds after it.

    ``worker_loss`` and ``ladder_step`` are deterministic under a seeded
    kill schedule and land in the degradation report; ``pool_rebuild``
    only feeds the execution-stats counters.
    """

    kind: str  # worker_loss | ladder_step | pool_rebuild
    partition: int = -1
    attempt: int = 0
    tier: str = ""
    to_tier: str = ""
    message: str = ""


def run_unit_with_crash_retry(unit, events: list) -> object:
    """Execute one unit inline, absorbing injected worker kills.

    The sequential tier of the recovery engine, also used directly by
    the sequential backend so injected kills behave identically on both
    backends.
    """
    from repro.hyracks.backends import execute_work_unit

    crashes = unit.attempt_offset
    while True:
        try:
            return execute_work_unit(_with_offset(unit, crashes))
        except WorkerCrashError as crash:
            crashes += 1
            events.append(
                RecoveryEvent(
                    "worker_loss",
                    partition=unit.partition,
                    attempt=crashes,
                    message=crash.detail or str(crash),
                )
            )
            if crashes >= MAX_UNIT_ATTEMPTS:
                raise RecoveryExhaustedError(
                    (unit.partition,),
                    (crashes,),
                    backend="sequential",
                    cause=crash,
                ) from crash


# ---------------------------------------------------------------------------
# The recovery engine
# ---------------------------------------------------------------------------


class _PoolLost(Exception):
    """Internal: the process pool broke."""

    def __init__(self, cause: Exception):
        super().__init__(str(cause))
        self.cause = cause


class _UnitState:
    """Coordinator-side bookkeeping for one work unit."""

    __slots__ = ("unit", "index", "crashes", "blob0")

    def __init__(self, unit, index: int):
        self.unit = unit
        self.index = index
        self.crashes = 0  # crashes attributed to this unit == attempt offset
        self.blob0 = None  # cached pickle of the offset-0 unit


def _with_offset(unit, offset: int):
    if offset == unit.attempt_offset:
        return unit
    return replace(unit, attempt_offset=offset)


def cut_runs(pending: list, workers: int) -> list[list]:
    """Cut *pending*, in order, into ``min(len(pending), workers)``
    contiguous runs whose lengths differ by at most one."""
    count = min(len(pending), workers)
    base, longer = divmod(len(pending), count)
    runs, start = [], 0
    for index in range(count):
        stop = start + base + (index < longer)
        runs.append(pending[start:stop])
        start = stop
    return runs


def run_units_with_recovery(units: list, host, events: list) -> list:
    """Run *units* on *host*'s process pool, surviving worker loss.

    Returns outcomes in submission order.  *events* receives
    :class:`RecoveryEvent`s for the executor to fold into stats and the
    degradation report.
    """
    units = list(units)
    if not units:
        return []
    policy = units[0].resilience.recovery
    crash_dir = tempfile.mkdtemp(prefix="repro-crash-")
    states = []
    by_partition: dict[int, _UnitState] = {}
    for index, unit in enumerate(units):
        unit.crash_log_dir = crash_dir
        state = _UnitState(unit, index)
        states.append(state)
        by_partition[unit.partition] = state
    results: dict[int, object] = {}
    losses = 0  # pool losses so far
    try:
        # Pickle up front: one clear BackendError instead of an opaque
        # pool crash when a source or function library is unpicklable,
        # raised before any worker starts.
        for state in states:
            try:
                state.blob0 = pickle.dumps(state.unit)
            except Exception as error:
                raise BackendError(
                    f"work unit for partition {state.unit.partition} is not "
                    f"picklable under the process backend ({error}); use "
                    "backend='sequential', or make the data source and "
                    "function library picklable",
                    cause=error,
                ) from error
        while True:
            pending = [s for s in states if s.index not in results]
            try:
                _run_pooled(
                    host._ensure_pool(),
                    cut_runs(pending, host._max_workers),
                    results,
                )
                break
            except _PoolLost as loss:
                losses += 1
                # Drop the dead pool before the accounting below can
                # raise: the backend outlives this query.
                host.close()
                _account_pool_loss(
                    loss, crash_dir, by_partition, results, events
                )
            if losses <= policy.max_losses_per_tier:
                events.append(RecoveryEvent("pool_rebuild", tier="process"))
                continue
            events.append(
                RecoveryEvent(
                    "ladder_step",
                    tier="process",
                    to_tier="sequential",
                    message=f"{losses} pool loss(es) on the process backend",
                )
            )
            for state in pending:
                if state.index not in results:
                    results[state.index] = run_unit_with_crash_retry(
                        _with_offset(state.unit, state.crashes), events
                    )
            break
    finally:
        shutil.rmtree(crash_dir, ignore_errors=True)
    return [results[index] for index in range(len(states))]


def _account_pool_loss(
    loss: _PoolLost,
    crash_dir: str,
    by_partition: dict[int, _UnitState],
    results: dict[int, object],
    events: list,
) -> None:
    """Attribute a pool breakage to the units that caused it.

    Sentinel files name the injected kills precisely; a breakage with no
    sentinel (a real, un-injected crash) is attributed to every
    unresolved unit so a genuinely crashing partition still exhausts its
    budget instead of looping.
    """
    sentinels = read_crash_sentinels(crash_dir)
    crashed: list[_UnitState] = []
    if sentinels:
        for partition, _attempt, message in sentinels:
            state = by_partition.get(partition)
            if state is None or state.index in results:
                continue
            crashed.append(state)
            _note_crash(state, message, events)
    else:
        for state in sorted(by_partition.values(), key=lambda s: s.index):
            if state.index in results:
                continue
            crashed.append(state)
            _note_crash(state, str(loss.cause), events)
    exhausted = [
        state for state in crashed if state.crashes >= MAX_UNIT_ATTEMPTS
    ]
    if exhausted:
        raise RecoveryExhaustedError(
            tuple(state.unit.partition for state in exhausted),
            tuple(state.crashes for state in exhausted),
            backend="process",
            cause=loss.cause,
        ) from loss.cause


def _note_crash(state: _UnitState, message: str, events: list) -> None:
    state.crashes += 1
    events.append(
        RecoveryEvent(
            "worker_loss",
            partition=state.unit.partition,
            attempt=state.crashes,
            message=message,
        )
    )


def _run_pooled(
    pool,
    runs: list[list[_UnitState]],
    results: dict[int, object],
) -> None:
    """Submit one future per run and wait until every unit of *runs*
    resolves.

    Raises :class:`_PoolLost` when the pool breaks, leaving ``results``
    holding everything that finished.
    """
    from concurrent.futures.process import BrokenProcessPool
    from repro.hyracks.backends import _run_pickled_units

    flights: dict[object, list[_UnitState]] = {}
    try:
        for run in runs:
            blobs = [
                state.blob0
                if state.crashes == 0
                else pickle.dumps(_with_offset(state.unit, state.crashes))
                for state in run
            ]
            try:
                future = pool.submit(_run_pickled_units, blobs)
            except BrokenProcessPool as broken:
                _harvest(flights, results)
                raise _PoolLost(broken) from broken
            flights[future] = run
        while flights:
            done, _ = wait(set(flights), return_when=FIRST_COMPLETED)
            # Within one wakeup, take runs in unit order, so which error
            # escapes never depends on which future the OS finished first.
            for future in sorted(done, key=lambda f: flights[f][0].index):
                run = flights.pop(future)
                try:
                    outcomes = pickle.loads(future.result())
                except CancelledError:  # pragma: no cover - defensive
                    continue
                except BrokenProcessPool as broken:
                    _harvest(flights, results)
                    raise _PoolLost(broken) from broken
                for state, outcome in zip(run, outcomes):
                    results[state.index] = outcome
    except _PoolLost:
        raise  # the broken pool has already failed every flight
    except BaseException:
        # An error escaped a unit, or the caller is unwinding: cancel
        # what never started and wait out what did, so no orphaned unit
        # outlives the query (its spill scope is removed next).
        for future in flights:
            future.cancel()
        wait([future for future in flights if not future.cancelled()])
        raise


def _harvest(flights: dict, results: dict[int, object]) -> None:
    """Keep every finished result a breaking pool already produced."""
    for future, run in flights.items():
        if not future.done() or future.cancelled():
            continue
        try:
            outcomes = pickle.loads(future.result())
        except Exception:
            continue
        for state, outcome in zip(run, outcomes):
            results.setdefault(state.index, outcome)
