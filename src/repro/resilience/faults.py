"""Deterministic, seedable fault injection for partitioned scans.

A :class:`FaultPlan` describes which partitions misbehave and how:
raise a transient error for the first *n* attempts, raise permanently,
fail their spill writes or segment-cache I/O, kill or stall their
worker, or corrupt a fraction of the records they scan.  ``plan.wrap(source)`` returns a
:class:`FaultInjectingSource` that implements the
:class:`~repro.algebra.context.DataSource` protocol and injects the
plan's faults on the way through — the engine under test cannot tell an
injected fault from a real one.

Every decision is a pure function of the plan's seed (via CRC32, never
``hash()``), so two runs of the same plan inject byte-identical faults;
only the transient-attempt counters are stateful, and :meth:`FaultPlan.reset`
rewinds them.
"""

from __future__ import annotations

import copy
import errno
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.algebra.context import normalize_collection_name as _normalize
from repro.errors import JsonSyntaxError, RuntimeExecutionError
from repro.jsonlib.path import Path


def stable_seed(*parts) -> int:
    """A process-stable integer seed from arbitrary printable parts.

    Python's ``hash()`` of strings is randomized per process, so every
    seeded decision here derives from CRC32 instead.
    """
    return zlib.crc32(":".join(str(part) for part in parts).encode("utf-8"))


class TransientFaultError(RuntimeExecutionError):
    """An injected fault that goes away after a bounded number of attempts."""

    retryable = True


class PermanentFaultError(RuntimeExecutionError):
    """An injected fault that never goes away; retrying cannot help."""


class CorruptRecordError(JsonSyntaxError):
    """An injected corrupt record, surfaced as malformed JSON."""


@dataclass
class CountedFault:
    """A fault on counted attempts: a partition's scans, a partition's
    spill writes, or segment-cache I/O.

    The first ``failures`` attempts raise (every attempt when
    ``permanent``).  ``partition``, ``collection`` and ``operation``
    (``"store"`` | ``"load"``) say which attempts it matches; None
    matches any.
    """

    permanent: bool
    failures: int  # attempts that fail (ignored when permanent)
    message: str
    partition: int | None = None
    collection: str | None = None
    operation: str | None = None

    def matches(self, collection, partition, operation=None) -> bool:
        return (
            self.collection in (None, collection)
            and self.partition in (None, partition)
            and self.operation in (None, operation)
        )


def _fault_error(message: str, permanent: bool) -> Exception:
    """The error a scan or spill-write fault raises."""
    return (PermanentFaultError if permanent else TransientFaultError)(message)


def _disk_full(message: str, permanent: bool) -> Exception:
    """The error a segment-cache fault raises: a full disk."""
    return OSError(errno.ENOSPC, message)


@dataclass
class CorruptionFault:
    """A fraction of one partition's records surfaced as corrupt."""

    partition: int
    collection: str | None
    fraction: float

    def matches(self, collection: str, partition: int) -> bool:
        if self.partition != partition:
            return False
        return self.collection is None or self.collection == collection


@dataclass
class KillFault:
    """One partition's worker dies abruptly on a specific attempt.

    ``attempt`` counts unit-level executions across worker restarts
    (the recovery layer's global attempt number, 1-based), so a kill
    scheduled for attempt 1 fires exactly once even though the fresh
    worker process that re-runs the partition holds a fresh copy of the
    plan: the decision is a pure function of (partition, attempt), with
    no stateful counters to lose in the crash.
    """

    partition: int
    attempt: int
    message: str


@dataclass
class StallFault:
    """One partition's worker stalls (really sleeps) before executing.

    A stall burns wall-clock time: a real slow worker, which the
    coordinator waits for.  ``attempt`` of
    ``None`` stalls every attempt; an integer stalls only that
    unit-level attempt (so a crash retry, running as the next attempt,
    escapes the stall).
    """

    partition: int
    attempt: int | None
    seconds: float


class FaultPlan:
    """A seeded schedule of faults to inject into a data source."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._failures: list[CountedFault] = []
        self._corruptions: list[CorruptionFault] = []
        self._spill_faults: list[CountedFault] = []
        self._cache_faults: list[CountedFault] = []
        self._kills: list[KillFault] = []
        self._stalls: list[StallFault] = []
        self._attempts: dict[tuple[str, int], int] = {}

    # -- declaring faults -------------------------------------------------------

    def fail_partition(
        self,
        partition: int,
        times: int = 1,
        permanent: bool = False,
        collection: str | None = None,
        message: str | None = None,
    ) -> "FaultPlan":
        """Make *partition* raise on its first *times* attempts (or always)."""
        if message is None:
            kind = "permanent" if permanent else "transient"
            message = f"injected {kind} fault on partition {partition}"
        if collection is not None:
            collection = _normalize(collection)
        self._failures.append(
            CountedFault(
                permanent, times, message, partition, collection=collection
            )
        )
        return self

    def fail_spill(
        self,
        partition: int,
        times: int = 1,
        permanent: bool = False,
        message: str | None = None,
    ) -> "FaultPlan":
        """Make *partition*'s first *times* spill writes raise (or all).

        The error surfaces from the spilling operator's run-file write,
        so a partition run again (``max_attempts > 1``) re-derives every
        run from the source data on the next attempt — which is why
        spill runs are safe to drop wholesale on failure.
        """
        if message is None:
            kind = "permanent" if permanent else "transient"
            message = f"injected {kind} spill-write fault on partition {partition}"
        self._spill_faults.append(
            CountedFault(permanent, times, message, partition)
        )
        return self

    def fail_cache_io(
        self,
        times: int = 1,
        permanent: bool = False,
        operation: str | None = None,
        message: str | None = None,
    ) -> "FaultPlan":
        """Make the first *times* segment-cache I/O attempts fail (or all).

        ``operation`` (``"store"`` | ``"load"``) limits the fault to one
        kind of I/O; ``None`` fails both.

        ``wrap()`` hooks it into the wrapper's own copy of the wrapped
        source's ``segment_cache`` (the caller's cache is left alone);
        elsewhere wire it with ``cache.fault_hook =
        plan.cache_io_attempt``.  The injected :class:`OSError` (ENOSPC)
        never reaches the query: the cache absorbs it — a failed store
        is skipped, a failed load is a miss — and ``permanent=True``
        drives the cache into its disabled (cache-off) state after its
        consecutive-error budget, which is the full-disk degradation
        scenario.  Transient counters are process-local: under the
        process backend each worker counts its own attempts, so use
        ``permanent=True`` for cross-backend-deterministic schedules.
        """
        if operation not in (None, "store", "load"):
            raise ValueError(
                f"operation must be 'store', 'load', or None, got {operation!r}"
            )
        if message is None:
            kind = "permanent" if permanent else "transient"
            what = operation or "i/o"
            message = f"injected {kind} cache {what} fault"
        self._cache_faults.append(
            CountedFault(permanent, times, message, operation=operation)
        )
        return self

    def kill_worker(
        self, partition: int, attempt: int = 1, message: str | None = None
    ) -> "FaultPlan":
        """Make *partition*'s worker die abruptly on unit attempt *attempt*.

        Under the process backend the worker calls ``os._exit`` (a real
        abrupt death that breaks the pool); under the sequential
        backend (and the process backend's sequential tier) the same
        schedule raises :class:`~repro.errors.WorkerCrashError` so
        recovery behaves identically across backends.  Attempts are 1-based and count
        unit executions across worker restarts.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt!r}")
        if message is None:
            message = (
                f"injected worker kill on partition {partition} "
                f"(attempt {attempt})"
            )
        self._kills.append(KillFault(partition, attempt, message))
        return self

    def stall_partition(
        self, partition: int, seconds: float, attempt: int | None = 1
    ) -> "FaultPlan":
        """Make *partition*'s worker sleep *seconds* of real wall time.

        A slow partition is waited for, never duplicated, and must
        answer byte-identically.  The default ``attempt=1`` stalls only
        the first unit attempt, so a crash retry (running as the next
        attempt) escapes the stall; ``attempt=None`` stalls every
        attempt.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._stalls.append(StallFault(partition, attempt, seconds))
        return self

    def corrupt_records(
        self, partition: int, fraction: float, collection: str | None = None
    ) -> "FaultPlan":
        """Corrupt a deterministic *fraction* of *partition*'s records."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
        self._corruptions.append(
            CorruptionFault(
                partition,
                None if collection is None else _normalize(collection),
                fraction,
            )
        )
        return self

    def reset(self) -> None:
        """Rewind the transient-attempt counters (for repeat runs)."""
        self._attempts.clear()

    # -- injection hooks --------------------------------------------------------

    def _count_attempt(self, key, faults, label: str, error) -> None:
        """Count one attempt under *key*; raise ``error(message,
        permanent)`` for the first of *faults* that is due."""
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        for fault in faults:
            if fault.permanent:
                raise error(fault.message, True)
            if attempt <= fault.failures:
                raise error(
                    f"{fault.message} ({label} {attempt} of {fault.failures})",
                    False,
                )

    def begin_attempt(self, collection: str, partition: int | None) -> None:
        """Count an attempt on (collection, partition); raise if a fault is due.

        Faults are partition-scoped: scans over all partitions at once
        (``partition=None``, the global strategy) pass through untouched.
        """
        if partition is None:
            return
        collection = _normalize(collection)
        self._count_attempt(
            (collection, partition),
            (f for f in self._failures if f.matches(collection, partition)),
            "attempt",
            _fault_error,
        )

    def should_corrupt(
        self, collection: str, partition: int | None, index: int
    ) -> bool:
        """Whether record *index* of (collection, partition) is corrupted.

        Deterministic: depends only on the plan seed and the coordinates.
        """
        if partition is None:
            return False
        collection = _normalize(collection)
        for fault in self._corruptions:
            if not fault.matches(collection, partition):
                continue
            if fault.fraction >= 1.0:
                return True
            draw = stable_seed("corrupt", self.seed, collection, partition, index)
            if (draw % 1_000_000) / 1_000_000.0 < fault.fraction:
                return True
        return False

    def spill_write_attempt(self, partition: int | None) -> None:
        """Count one spill write on *partition*; raise if a fault is due."""
        if partition is None or not self._spill_faults:
            return
        self._count_attempt(
            ("__spill__", partition),
            (f for f in self._spill_faults if f.matches(None, partition)),
            "spill write",
            _fault_error,
        )

    def cache_io_attempt(self, operation: str = "store") -> None:
        """Count one segment-cache I/O; raise ``OSError`` if a fault is due.

        This is the ``SegmentCache.fault_hook`` shape: a bound method,
        so it pickles with the plan into process-backend work units.
        """
        if not self._cache_faults:
            return
        self._count_attempt(
            ("__cache_io__", 0),
            (f for f in self._cache_faults
             if f.matches(None, None, operation)),
            "cache i/o",
            _disk_full,
        )

    def worker_kill_message(
        self, partition: int | None, attempt: int
    ) -> str | None:
        """The kill message due for (partition, unit attempt), or None.

        Pure function of the schedule — no counters — so the decision
        is identical in a fresh worker process after a crash.
        """
        if partition is None:
            return None
        for fault in self._kills:
            if fault.partition == partition and fault.attempt == attempt:
                return fault.message
        return None

    def stall_seconds(self, partition: int | None, attempt: int) -> float:
        """Wall-clock stall seconds due for (partition, unit attempt)."""
        if partition is None:
            return 0.0
        return sum(
            fault.seconds
            for fault in self._stalls
            if fault.partition == partition
            and (fault.attempt is None or fault.attempt == attempt)
        )

    def wrap(self, source) -> "FaultInjectingSource":
        """A :class:`FaultInjectingSource` injecting this plan into *source*."""
        return FaultInjectingSource(self, source)


class FaultInjectingSource:
    """DataSource wrapper that injects a :class:`FaultPlan`'s faults.

    Partition failures raise at scan start; corrupt records either raise
    a :class:`CorruptRecordError` or — when the wrapped source's
    ``on_malformed`` policy is ``skip_record`` — are dropped and recorded
    in the read's degradation report, exactly like a really-malformed
    record would be.  The executor reads the plan's other faults (spill
    writes, worker kills, stalls) from :attr:`plan`.

    The wrapper reads through its own copy of *source*
    (:func:`copy.copy`: a catalog's copy has a copy of its segment
    cache), so the plan's cache-I/O hook, and the cache-off state a
    permanent cache fault drives, stay with the wrapper: the caller's
    source is never rewired.  A copy of the wrapper is a fresh wrapper
    of the same plan over a fresh copy of its source.
    """

    def __init__(self, plan: FaultPlan, source):
        self.plan = plan
        self._source = copy.copy(source)
        cache = self.segment_cache
        if cache is not None:
            cache.fault_hook = plan.cache_io_attempt

    def __copy__(self):
        return FaultInjectingSource(self.plan, self._source)

    @property
    def on_malformed(self) -> str:
        return getattr(self._source, "on_malformed", "fail")

    @property
    def segment_cache(self):
        """The wrapper's segment cache (None when caching is off)."""
        return getattr(self._source, "segment_cache", None)

    # -- DataSource protocol ----------------------------------------------------

    def partition_count(self, name: str) -> int:
        return self._source.partition_count(name)

    def files(self, name: str, partition: int | None = None):
        return self._source.files(name, partition)

    def total_bytes(self, name: str, partition: int | None = None) -> int:
        return self._source.total_bytes(name, partition)

    def read_document(self, uri: str):
        return self._source.read_document(uri)

    def read_collection(
        self, name: str, partition: int | None = None, report=None
    ) -> list:
        self.plan.begin_attempt(name, partition)
        items = self._source.read_collection(name, partition, report=report)
        return [
            item
            for index, item in enumerate(items)
            if not self._corrupted(name, partition, index, report)
        ]

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None, report=None
    ) -> Iterator:
        # A generator, so the fault raises when the scan is *pulled*
        # (inside the executor's per-partition attempt), not when the
        # plan is built.
        self.plan.begin_attempt(name, partition)
        for index, item in enumerate(
            self._source.scan_collection(name, path, partition, report=report)
        ):
            if self._corrupted(name, partition, index, report):
                continue
            yield item

    # -- internals --------------------------------------------------------------

    def _corrupted(
        self, name: str, partition: int | None, index: int, report
    ) -> bool:
        """Apply the on-malformed policy to an injected-corrupt record.

        Returns True when the record must be dropped (recorded on
        *report*, when given); raises when the policy is not
        ``skip_record``.
        """
        if not self.plan.should_corrupt(name, partition, index):
            return False
        message = f"injected corrupt record {index}"
        if self.on_malformed == "skip_record":
            if report is not None:
                report.record_skipped_record(
                    f"{_normalize(name)}[partition {partition}]", index, message
                )
            return True
        raise CorruptRecordError(message, offset=index)
