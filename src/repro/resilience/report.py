"""Graceful-degradation reporting.

A :class:`DegradationReport` accumulates everything a query execution
survived rather than computed: partitions skipped after exhausted
retries, records and files dropped by an ``on_malformed`` policy, and
every retry of a failed partition.  It hangs off
:class:`~repro.hyracks.executor.QueryResult` so callers can distinguish
a complete answer from a degraded one.

Everything recorded here is deterministic under a fixed fault seed: no
wall-clock values, no unordered containers.  ``to_dict`` therefore
serializes byte-identically across runs of the same faulty scenario,
which ``tools/check_determinism.py`` exploits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class SkippedPartition:
    """A partition dropped from the result."""

    partition: int
    collections: tuple[str, ...]
    attempts: int
    message: str


@dataclass(frozen=True)
class SkippedRecord:
    """A single malformed (or injected-corrupt) record dropped by a scan."""

    source: str
    offset: int | None
    message: str


@dataclass(frozen=True)
class SkippedFile:
    """A whole file dropped by the ``skip_file`` policy."""

    file_path: str
    message: str


@dataclass(frozen=True)
class RetryEvent:
    """One retry of a failed partition: the attempt that failed, and why."""

    partition: int
    attempt: int
    message: str


@dataclass(frozen=True)
class CancellationEvent:
    """A query-global limit (deadline or cancel) observed by a partition."""

    partition: int
    kind: str  # "timeout" | "cancelled"
    message: str


@dataclass(frozen=True)
class WorkerLossEvent:
    """A worker died mid-partition and the unit was rescheduled.

    Deterministic under a seeded :class:`~repro.resilience.faults.FaultPlan`
    kill schedule: the attempt number counts unit executions across
    worker restarts, and the recovery layer records losses in partition
    order within each pool breakage.  Deliberately backend-neutral
    (``os._exit`` under the process backend and the simulated crash
    under sequential record the same event), so crash-injected
    reports stay byte-identical across backends.
    """

    partition: int
    attempt: int
    message: str


@dataclass(frozen=True)
class CacheEvent:
    """A segment-cache defect the scan degraded around.

    ``kind`` is ``"corrupt"`` (a torn/bit-flipped segment failed its
    checksum and the scan fell back to a cold read), ``"io-error"`` (a
    cache read failed with an OSError and became a miss), or
    ``"disabled"`` (consecutive I/O failures — e.g. a full disk —
    turned the cache off for the rest of the process).  Never partial:
    every cache event means the query did *more* work, not less.
    """

    kind: str  # "corrupt" | "io-error" | "disabled"
    source: str
    message: str


@dataclass(frozen=True)
class LadderStep:
    """One step down the backend degradation ladder after repeated loss."""

    from_backend: str
    to_backend: str
    message: str


@dataclass
class DegradationReport:
    """What a query execution skipped, retried, and survived."""

    skipped_partitions: list[SkippedPartition] = field(default_factory=list)
    skipped_records: list[SkippedRecord] = field(default_factory=list)
    skipped_files: list[SkippedFile] = field(default_factory=list)
    retries: list[RetryEvent] = field(default_factory=list)
    cancellations: list[CancellationEvent] = field(default_factory=list)
    worker_losses: list[WorkerLossEvent] = field(default_factory=list)
    ladder_steps: list[LadderStep] = field(default_factory=list)
    cache_events: list[CacheEvent] = field(default_factory=list)

    def __post_init__(self):
        # Dedup keys: a retried partition attempt may re-skip the same
        # record/file; the degradation it causes is still one skip.
        # Cache events dedup the same way: one corrupt segment is one
        # event however many attempts re-probe it.
        self._seen_records: set = set()
        self._seen_files: set = set()
        self._seen_cache: set = set()

    # -- recording ------------------------------------------------------------

    def record_skipped_partition(
        self,
        partition: int,
        collections: tuple[str, ...],
        attempts: int,
        cause: Exception,
    ) -> None:
        self.skipped_partitions.append(
            SkippedPartition(partition, tuple(collections), attempts, str(cause))
        )

    def record_skipped_record(
        self, source: str, offset: int | None, message: str
    ) -> None:
        key = (source, offset)
        if key in self._seen_records:
            return
        self._seen_records.add(key)
        self.skipped_records.append(SkippedRecord(source, offset, message))

    def record_skipped_file(self, file_path: str, cause: Exception) -> None:
        if file_path in self._seen_files:
            return
        self._seen_files.add(file_path)
        self.skipped_files.append(SkippedFile(file_path, str(cause)))

    def record_retry(self, partition: int, attempt: int, cause: Exception) -> None:
        self.retries.append(RetryEvent(partition, attempt, str(cause)))

    def record_cancellation(self, partition: int, cause: Exception) -> None:
        """Record a deadline/cancel observed while executing *partition*.

        The query unwinds with an error rather than a result, but the
        report (attached to the raised error as ``error.degradation``)
        still says which partition hit the limit first.
        """
        from repro.errors import QueryTimeoutError

        kind = "timeout" if isinstance(cause, QueryTimeoutError) else "cancelled"
        self.cancellations.append(
            CancellationEvent(partition, kind, str(cause))
        )

    def record_worker_loss(
        self, partition: int, attempt: int, message: str
    ) -> None:
        """Record a dead worker whose unit the recovery layer rescheduled."""
        self.worker_losses.append(WorkerLossEvent(partition, attempt, message))

    def record_ladder_step(
        self, from_backend: str, to_backend: str, message: str
    ) -> None:
        """Record one step down the backend degradation ladder."""
        self.ladder_steps.append(LadderStep(from_backend, to_backend, message))

    def record_cache_event(self, kind: str, source: str, message: str) -> None:
        """Record a segment-cache defect (corrupt file, I/O error, cache-off)."""
        key = (kind, source)
        if key in self._seen_cache:
            return
        self._seen_cache.add(key)
        self.cache_events.append(CacheEvent(kind, source, message))

    def absorb(self, other: "DegradationReport") -> None:
        """Merge *other*'s events into this report (coordinator-side).

        The parallel execution backends give every partition its own
        report and merge them in partition order, so the combined report
        is byte-identical to a sequential run's.  Record/file dedup keys
        apply across the merge, exactly as they would within one report.
        """
        self.skipped_partitions.extend(other.skipped_partitions)
        for record in other.skipped_records:
            key = (record.source, record.offset)
            if key not in self._seen_records:
                self._seen_records.add(key)
                self.skipped_records.append(record)
        for skipped_file in other.skipped_files:
            if skipped_file.file_path not in self._seen_files:
                self._seen_files.add(skipped_file.file_path)
                self.skipped_files.append(skipped_file)
        self.retries.extend(other.retries)
        self.cancellations.extend(other.cancellations)
        self.worker_losses.extend(other.worker_losses)
        self.ladder_steps.extend(other.ladder_steps)
        for event in other.cache_events:
            key = (event.kind, event.source)
            if key not in self._seen_cache:
                self._seen_cache.add(key)
                self.cache_events.append(event)

    # -- inspection -----------------------------------------------------------

    @property
    def is_partial(self) -> bool:
        """True when the result is missing data (not merely retried)."""
        return bool(
            self.skipped_partitions or self.skipped_records or self.skipped_files
        )

    @property
    def is_degraded(self) -> bool:
        """True when anything at all was skipped, retried, or recovered."""
        return self.is_partial or bool(
            self.retries
            or self.worker_losses
            or self.ladder_steps
            or self.cache_events
        )

    @property
    def retry_count(self) -> int:
        return len(self.retries)

    @property
    def warnings(self) -> list[str]:
        """Human-readable degradation summary, one line per event."""
        lines: list[str] = []
        for skip in self.skipped_partitions:
            names = ", ".join(skip.collections) or "<unknown>"
            lines.append(
                f"skipped partition {skip.partition} of {names} after "
                f"{skip.attempts} attempt(s): {skip.message}"
            )
        for rec in self.skipped_records:
            at = f" at offset {rec.offset}" if rec.offset is not None else ""
            lines.append(f"skipped record in {rec.source}{at}: {rec.message}")
        for skipped_file in self.skipped_files:
            lines.append(
                f"skipped file {skipped_file.file_path}: {skipped_file.message}"
            )
        for retry in self.retries:
            lines.append(
                f"retried partition {retry.partition} "
                f"(attempt {retry.attempt}): {retry.message}"
            )
        for cancel in self.cancellations:
            lines.append(
                f"partition {cancel.partition} hit a query limit "
                f"({cancel.kind}): {cancel.message}"
            )
        for loss in self.worker_losses:
            lines.append(
                f"worker for partition {loss.partition} died "
                f"(attempt {loss.attempt}), rescheduled: {loss.message}"
            )
        for step in self.ladder_steps:
            lines.append(
                f"degraded backend {step.from_backend} -> {step.to_backend} "
                f"after repeated worker loss: {step.message}"
            )
        for event in self.cache_events:
            lines.append(
                f"segment cache {event.kind} at {event.source}: {event.message}"
            )
        return lines

    def to_dict(self) -> dict:
        """A JSON-serializable, deterministically ordered view."""
        return {
            "partial": self.is_partial,
            "skipped_partitions": [asdict(s) for s in self.skipped_partitions],
            "skipped_records": [asdict(s) for s in self.skipped_records],
            "skipped_files": [asdict(s) for s in self.skipped_files],
            "retries": [asdict(r) for r in self.retries],
            "cancellations": [asdict(c) for c in self.cancellations],
            "worker_losses": [asdict(w) for w in self.worker_losses],
            "ladder_steps": [asdict(s) for s in self.ladder_steps],
            "cache_events": [asdict(e) for e in self.cache_events],
        }
