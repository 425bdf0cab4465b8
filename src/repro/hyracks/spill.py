"""Spill-to-disk execution: bounded-memory blocking operators.

The paper's runtime inherits Hyracks' discipline of processing data in
fixed-size frames under a bounded memory budget (Section 3.1; Table 3
and Figure 18b measure exactly this); the companion VXQuery systems
paper stresses that blocking operators must degrade to disk rather than
die when inputs exceed memory.  This module supplies that degradation
path:

- :class:`SpillManager` — owns a per-attempt temp directory of **run
  files**; tuples are batched into frame-sized pickles through the
  existing :class:`~repro.hyracks.frames.FrameWriter`, run files are
  named deterministically (``run-NNNNNN-<label>.frames``), and
  ``close()`` guarantees cleanup no matter how execution unwound;
- :func:`fold_group_table` — external hash GROUP-BY
  (partition-and-recurse over salted key buckets);
- :func:`grace_join_overflow` — grace hash join (both sides partitioned
  into bucket runs, each bucket joined recursively);
- :func:`external_sort` — external merge sort (sorted runs merged with
  ``heapq.merge``);
- :class:`SpilledSequence` — a materialized buffer (nested-loop build
  sides, ``sequence`` aggregates) that overflows to run files.

Spilling triggers when the :class:`~repro.hyracks.memory.MemoryTracker`
*declines* a charge (``try_allocate``) instead of raising; with no spill
manager on the context the old raising behaviour is preserved exactly.
Results are byte-identical with spill on and off: every external
algorithm tags records with arrival sequence numbers and restores the
in-memory emission order (first-seen order for groups, probe order for
joins, stable spec order for sorts).

Spill writes run through an optional **fault hook** (the resilience
layer's :meth:`~repro.resilience.faults.FaultPlan.fail_spill`), so a
:class:`~repro.resilience.faults.FaultPlan` can kill a spill write and a
:class:`~repro.resilience.retry.RetryPolicy` can recover the partition.
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import shutil
import tempfile
import uuid
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from repro.envutil import env_setting
from repro.errors import SpillError
from repro.hyracks.aggregates import accumulator_factory
from repro.hyracks.frames import DEFAULT_FRAME_BYTES, FrameWriter
from repro.hyracks.tuples import Tuple, merge_tuples, sizeof_tuple
from repro.jsonlib.items import canonical_key

#: environment variable consulted for a default spill directory
SPILL_DIR_ENV_VAR = "REPRO_SPILL_DIR"

#: charge for one hash-group entry (mirrors operators._GROUP_ENTRY_BYTES)
GROUP_ENTRY_BYTES = 96


def estimate_record_bytes(record) -> int:
    """Rough in-memory size of an arbitrary spill record.

    Spill records are not JSON items (they carry pickled partial states,
    sequence tags, composite sort keys), so the item-model sizer cannot
    price them; this generic walk is only used to pack run-file frames,
    where a rough estimate is enough.
    """
    if isinstance(record, (list, tuple)):
        return 16 + sum(estimate_record_bytes(value) for value in record)
    if isinstance(record, dict):
        return 16 + sum(
            estimate_record_bytes(key) + estimate_record_bytes(value)
            for key, value in record.items()
        )
    if isinstance(record, str):
        return 49 + len(record)
    if isinstance(record, (bytes, bytearray)):
        return 33 + len(record)
    return 32


def stable_bucket(key, buckets: int, salt: int = 0) -> int:
    """Deterministic bucket index for a canonical key.

    ``hash()`` is salted per process (``PYTHONHASHSEED``), so it cannot
    partition work whose sides are hashed in *different* worker
    processes; CRC32 over the canonical repr is stable everywhere.  The
    *salt* decorrelates recursion levels — a bucket that overflows is
    re-split by a different hash, so its keys actually spread.
    """
    payload = repr(key).encode("utf-8")
    if salt:
        payload = b"%d|" % salt + payload
    return zlib.crc32(payload) % buckets


#: monotonic per-process counter feeding :func:`new_query_scope`
_QUERY_SCOPE_SEQ = itertools.count(1)


def new_query_scope() -> str:
    """A spill scope unique to one query execution.

    Combines the coordinator pid, a monotonic per-process counter, and
    a random salt, so two queries — in the same process, in different
    processes, or racing across machines onto one shared spill root —
    can never claim the same scope directory.  Within the query the
    scope is fixed: it pickles into every work unit, so worker-side
    managers land under the same per-query root as coordinator-side
    ones.
    """
    return f"{os.getpid():x}-{next(_QUERY_SCOPE_SEQ):x}-{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class SpillConfig:
    """How spilling operators write and recurse.

    Picklable (it rides inside process-pool work units).  ``directory``
    is the *root* under which each attempt makes its own temp dir;
    ``None`` consults ``REPRO_SPILL_DIR`` then the system temp dir
    (``REPRO_SPILL_DIR=""`` explicitly pins the system temp dir — see
    :mod:`repro.envutil`).

    ``scope`` namespaces every attempt directory under one per-query
    subdirectory (``repro-spill-q<scope>``).  The executor stamps a
    fresh :func:`new_query_scope` on each query, so two concurrent
    queries spilling the same partition index can never collide — and
    cleanup of one query's directory tree cannot delete the other's run
    files.  Within a query the scope is deterministic (it is part of
    the pickled config), while attempt directories inside it stay
    ``mkdtemp``-unique because straggler speculation can run duplicate
    attempts of the *same* partition concurrently.
    """

    directory: str | None = None
    frame_bytes: int = DEFAULT_FRAME_BYTES
    fanout: int = 8
    max_recursion: int = 6
    scope: str | None = None

    def root_directory(self) -> str:
        if self.directory is not None:
            return self.directory
        value = env_setting(SPILL_DIR_ENV_VAR)
        if value:
            return value
        return tempfile.gettempdir()

    def scoped(self) -> "SpillConfig":
        """This config pinned to a fresh per-query scope (idempotent)."""
        if self.scope is not None:
            return self
        return replace(self, scope=new_query_scope())

    def scope_directory(self) -> str | None:
        """The per-query directory all attempt dirs nest under (or None)."""
        if self.scope is None:
            return None
        return os.path.join(self.root_directory(), f"repro-spill-q{self.scope}")


def resolve_spill_config(spill_dir=None) -> SpillConfig:
    """Normalize a ``spill_dir`` argument into a :class:`SpillConfig`."""
    if isinstance(spill_dir, SpillConfig):
        return spill_dir
    return SpillConfig(directory=spill_dir)


# ---------------------------------------------------------------------------
# Run files
# ---------------------------------------------------------------------------


class RunHandle:
    """One finished run file: iterable, deletable, counted."""

    __slots__ = ("path", "records", "byte_size", "_manager")

    def __init__(self, path: str, records: int, byte_size: int, manager):
        self.path = path
        self.records = records
        self.byte_size = byte_size
        self._manager = manager

    def __iter__(self) -> Iterator:
        try:
            with open(self.path, "rb") as handle:
                while True:
                    try:
                        batch = pickle.load(handle)
                    except EOFError:
                        break
                    for wrapped in batch:
                        yield wrapped["r"][0]
        except OSError as error:
            raise SpillError(
                f"cannot read spill run {self.path!r}: {error}"
            ) from error

    def delete(self) -> None:
        """Remove the run file early (close() cleans up leftovers anyway)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


class RunWriter:
    """Writes records to a run file in frame-sized batches.

    Records are wrapped as one-binding tuples and packed through the
    existing :class:`~repro.hyracks.frames.FrameWriter`; each completed
    frame's tuple list is pickled to the file as one batch.  The fault
    hook fires before every disk write, which is where
    ``FaultPlan.fail_spill`` injects.
    """

    __slots__ = ("_path", "_file", "_frames", "_manager", "_records", "closed")

    def __init__(self, path: str, manager: "SpillManager"):
        self._path = path
        self._manager = manager
        self._records = 0
        self.closed = False
        try:
            self._file = open(path, "wb")
        except OSError as error:
            raise SpillError(
                f"cannot create spill run {path!r}: {error}"
            ) from error
        self._frames = FrameWriter(
            frame_bytes=manager.config.frame_bytes,
            allow_big_objects=True,
            on_frame=self._write_frame,
        )

    def _write_frame(self, frame) -> None:
        self._manager.check_fault()
        try:
            pickle.dump(frame.tuples, self._file)
        except OSError as error:
            raise SpillError(
                f"cannot write spill run {self._path!r}: {error}"
            ) from error

    def write(self, record) -> None:
        self._records += 1
        self._frames.write(
            {"r": [record]}, n_bytes=estimate_record_bytes(record)
        )

    def finish(self) -> RunHandle:
        """Flush, close, and hand back a readable run handle."""
        self._frames.flush()
        try:
            self._file.close()
        except OSError as error:
            raise SpillError(
                f"cannot finish spill run {self._path!r}: {error}"
            ) from error
        self.closed = True
        byte_size = os.path.getsize(self._path)
        self._manager.bytes_spilled += byte_size
        return RunHandle(self._path, self._records, byte_size, self._manager)

    def abort(self) -> None:
        """Close without finishing (cleanup path)."""
        if not self.closed:
            try:
                self._file.close()
            except OSError:
                pass
            self.closed = True


class SpillManager:
    """Owns one execution attempt's spill directory and counters.

    The directory is created lazily on the first run file and removed
    wholesale by :meth:`close` — which the executor and the partition
    backends call in ``finally`` blocks, so cancellation, timeouts,
    injected faults, and plain bugs all leave zero temp files behind.
    """

    def __init__(
        self,
        config: SpillConfig,
        partition: int | None = None,
        fault_hook: Callable[[], None] | None = None,
    ):
        self.config = config
        self.partition = partition
        self.fault_hook = fault_hook
        self.events = 0
        self.run_files = 0
        self.bytes_spilled = 0
        self.max_recursion_depth = 0
        self._directory: str | None = None
        self._writers: list[RunWriter] = []
        self.closed = False

    # -- bookkeeping ------------------------------------------------------------

    def check_fault(self) -> None:
        """Fire the resilience fault hook (may raise an injected fault)."""
        if self.fault_hook is not None:
            self.fault_hook()

    def note_event(self) -> None:
        """Count one spill decision (an operator overflowing to disk)."""
        self.events += 1

    def note_recursion(self, depth: int) -> None:
        if depth > self.max_recursion_depth:
            self.max_recursion_depth = depth

    @property
    def directory(self) -> str | None:
        return self._directory

    # -- run files --------------------------------------------------------------

    def new_run(self, label: str = "run") -> RunWriter:
        if self.closed:
            raise SpillError("spill manager is closed")
        if self._directory is None:
            root = self.config.scope_directory()
            if root is None:
                root = self.config.root_directory()
            os.makedirs(root, exist_ok=True)
            prefix = (
                f"repro-spill-p{self.partition}-"
                if self.partition is not None
                else "repro-spill-global-"
            )
            self._directory = tempfile.mkdtemp(prefix=prefix, dir=root)
        self.run_files += 1
        path = os.path.join(
            self._directory, f"run-{self.run_files:06d}-{label}.frames"
        )
        writer = RunWriter(path, self)
        self._writers.append(writer)
        return writer

    def close(self) -> None:
        """Release everything: open writers, run files, the directory."""
        if self.closed:
            return
        self.closed = True
        for writer in self._writers:
            writer.abort()
        self._writers.clear()
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    def fold_stats(self, stats) -> None:
        """Fold this manager's counters into an ``ExecutionStats``."""
        stats.spill_events += self.events
        stats.spill_run_files += self.run_files
        stats.spill_bytes += self.bytes_spilled
        if self.max_recursion_depth > stats.spill_recursion_depth:
            stats.spill_recursion_depth = self.max_recursion_depth

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# Spilled materialization (nested-loop build sides, sequence aggregates)
# ---------------------------------------------------------------------------


class SpilledSequence:
    """A materialized record buffer that overflows to run files.

    Appends charge the tracker; when a charge is declined the in-memory
    buffer is flushed to a run file and the charge retried (forced for a
    single record larger than the whole budget).  Iteration replays the
    runs in write order followed by the in-memory tail, so record order
    is exactly append order — byte-identical to a plain list.
    """

    def __init__(self, ctx, label: str = "materialize", op=None):
        self._ctx = ctx
        self._label = label
        self._op = op
        self._runs: list[RunHandle] = []
        self._buffer: list = []
        self._charged = 0
        self.records = 0

    def append(self, record, n_bytes: int) -> None:
        ctx = self._ctx
        self.records += 1
        if ctx.memory is None:
            self._buffer.append(record)
            return
        if ctx.memory.try_allocate(n_bytes):
            self._charged += n_bytes
            self._buffer.append(record)
            return
        if ctx.spill is None or not self._buffer:
            # No spill path (or nothing to shed): keep the old raising
            # behaviour / force the irreducible single record.
            if ctx.spill is None:
                ctx.memory.allocate(n_bytes)  # raises
                self._charged += n_bytes
                self._buffer.append(record)
                return
            ctx.memory.force_allocate(n_bytes)
            self._charged += n_bytes
            self._buffer.append(record)
            return
        self._flush()
        if ctx.memory.try_allocate(n_bytes):
            self._charged += n_bytes
        else:
            ctx.memory.force_allocate(n_bytes)
            self._charged += n_bytes
        self._buffer.append(record)

    def _flush(self) -> None:
        ctx = self._ctx
        spill = ctx.spill
        spill.note_event()
        if ctx.profile is not None and self._op is not None:
            ctx.profile.add(self._op, "spill_events", 1)
            ctx.profile.add(self._op, "spill_run_files", 1)
        writer = spill.new_run(self._label)
        for record in self._buffer:
            writer.write(record)
        self._runs.append(writer.finish())
        self._buffer = []
        ctx.memory.release(self._charged)
        self._charged = 0

    @property
    def spilled(self) -> bool:
        return bool(self._runs)

    def __len__(self) -> int:
        return self.records

    def __iter__(self) -> Iterator:
        for run in self._runs:
            yield from run
        yield from self._buffer

    def close(self) -> None:
        """Release the remaining charge and the run files."""
        if self._charged:
            self._ctx.memory.release(self._charged)
            self._charged = 0
        for run in self._runs:
            run.delete()
        self._runs = []
        self._buffer = []


# ---------------------------------------------------------------------------
# External hash GROUP-BY (partition-and-recurse)
# ---------------------------------------------------------------------------


def fold_group_table(key_exprs, specs, source: Iterable[Tuple], ctx, op=None):
    """Fold *source* into ``key -> (key_values, accumulators)``.

    The returned dict's insertion order is **first-seen key order** —
    with or without spilling — which is what keeps results byte-identical
    across spill on/off and across execution backends (the coordinator
    combines partition tables in partition order, relying on each
    table's deterministic order).

    In-memory behaviour is unchanged: one ``GROUP_ENTRY_BYTES`` charge
    per distinct key, raising when no spill manager is configured.  With
    a spill manager, a declined charge flushes the table's partial
    states to salted key-bucket run files and recurses per bucket.
    """
    key_evaluators = [ctx.compiled(expr) for expr in key_exprs]
    new_accumulators = accumulator_factory(specs, ctx)
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    table: dict = {}
    writers: list[RunWriter] | None = None
    fanout = spill.config.fanout if spill is not None else 0
    seq = 0

    def flush_to_buckets() -> None:
        nonlocal writers, table
        spill.note_event()
        if ctx.profile is not None and op is not None:
            ctx.profile.add(op, "spill_events", 1)
        if writers is None:
            writers = [spill.new_run(f"group-b{b}") for b in range(fanout)]
            if ctx.profile is not None and op is not None:
                ctx.profile.add(op, "spill_run_files", fanout)
        for key, state in table.items():
            partials = [acc.partial() for acc in state[1]]
            writers[stable_bucket(key, fanout)].write(
                (key, state[0], partials, state[2])
            )
        for state in table.values():
            for acc in state[1]:
                release = getattr(acc, "release_charges", None)
                if release is not None:
                    release(ctx)
        if memory is not None:
            memory.release(GROUP_ENTRY_BYTES * len(table))
        table = {}

    for tup in source:
        if limits is not None:
            limits.checkpoint()
        key_values = [evaluate(tup, ctx) for evaluate in key_evaluators]
        key = tuple([canonical_key(v) for v in key_values])
        state = table.get(key)
        if state is None:
            if memory is not None:
                if spill is None:
                    memory.allocate(GROUP_ENTRY_BYTES)  # raises on overflow
                elif not memory.try_allocate(GROUP_ENTRY_BYTES):
                    if table:
                        flush_to_buckets()
                    if not memory.try_allocate(GROUP_ENTRY_BYTES):
                        memory.force_allocate(GROUP_ENTRY_BYTES)
            state = (key_values, new_accumulators(), seq)
            table[key] = state
        for accumulator in state[1]:
            accumulator.add(tup, ctx)
        seq += 1

    if writers is None:
        # Never spilled: the dict is already in first-seen order.
        return {key: (kv, accs) for key, (kv, accs, _) in table.items()}

    # Spilled: flush the remainder and merge the buckets.
    if table:
        flush_to_buckets()
    handles = [writer.finish() for writer in writers]
    entries: list = []  # (first_seq, key, key_values, accumulators)
    for handle in handles:
        _merge_group_bucket(handle, new_accumulators, ctx, op, 1, entries)
        handle.delete()
    entries.sort(key=lambda entry: entry[0])
    merged: dict = {}
    for _, key, key_values, accumulators in entries:
        merged[key] = (key_values, accumulators)
    return merged


def _merge_group_bucket(
    handle, new_accumulators, ctx, op, depth: int, entries: list
):
    """Absorb one bucket's partial records; recurse when it overflows."""
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    fanout = spill.config.fanout
    spill.note_recursion(depth)
    table: dict = {}
    writers: list[RunWriter] | None = None

    def split() -> None:
        nonlocal writers, table
        spill.note_event()
        if ctx.profile is not None and op is not None:
            ctx.profile.add(op, "spill_events", 1)
            ctx.profile.add(op, "spill_run_files", fanout)
        writers = [
            spill.new_run(f"group-d{depth}-b{b}") for b in range(fanout)
        ]
        for key, state in table.items():
            partials = [acc.partial() for acc in state[1]]
            writers[stable_bucket(key, fanout, salt=depth)].write(
                (key, state[0], partials, state[2])
            )
        for state in table.values():
            for acc in state[1]:
                release = getattr(acc, "release_charges", None)
                if release is not None:
                    release(ctx)
        if memory is not None:
            memory.release(GROUP_ENTRY_BYTES * len(table))
        table = {}

    for record in handle:
        if limits is not None:
            limits.checkpoint()
        key, key_values, partials, first_seq = record
        if writers is not None:
            writers[stable_bucket(key, fanout, salt=depth)].write(record)
            continue
        state = table.get(key)
        if state is None:
            if memory is not None and not memory.try_allocate(
                GROUP_ENTRY_BYTES
            ):
                if table and depth < spill.config.max_recursion:
                    split()
                    writers[stable_bucket(key, fanout, salt=depth)].write(
                        record
                    )
                    continue
                memory.force_allocate(GROUP_ENTRY_BYTES)
            state = (key_values, new_accumulators(), first_seq)
            table[key] = state
        elif first_seq < state[2]:
            state = (state[0], state[1], first_seq)
            table[key] = state
        for accumulator, partial in zip(state[1], partials):
            accumulator.absorb(partial)

    if writers is not None:
        sub_handles = [writer.finish() for writer in writers]
        for sub in sub_handles:
            _merge_group_bucket(
                sub, new_accumulators, ctx, op, depth + 1, entries
            )
            sub.delete()
        return

    # Entries stay charged (GROUP_ENTRY_BYTES each): the merged table is
    # in memory, and the caller releases it after emission — the same
    # contract as the never-spilled path.
    for key, (key_values, accumulators, first_seq) in table.items():
        entries.append((first_seq, key, key_values, accumulators))


def fold_group_lists(key_exprs, source: Iterable[Tuple], ctx, finalize, op=None):
    """Group raw tuples and *finalize* each group, bounded-memory.

    The general GROUP-BY path (nested plans other than a plain
    aggregate) materializes each group's member tuples.  This helper
    keeps that contract but sheds member lists to salted key-bucket run
    files when a charge is declined; each group's members are re-read in
    arrival order, finalized, and the outputs re-emitted in first-seen
    group order.  All memory charged here is released before returning.

    Returns ``(outputs, group_count)``.
    """
    key_evaluators = [ctx.compiled(expr) for expr in key_exprs]
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    table: dict = {}  # key -> [key_values, tuples, first_seq, charged]
    writers: list[RunWriter] | None = None
    fanout = spill.config.fanout if spill is not None else 0
    seq = 0

    def flush_to_buckets() -> None:
        nonlocal writers, table
        spill.note_event()
        if ctx.profile is not None and op is not None:
            ctx.profile.add(op, "spill_events", 1)
        if writers is None:
            writers = [spill.new_run(f"rawgroup-b{b}") for b in range(fanout)]
            if ctx.profile is not None and op is not None:
                ctx.profile.add(op, "spill_run_files", fanout)
        for key, state in table.items():
            writers[stable_bucket(key, fanout)].write(
                (key, state[0], state[1], state[2])
            )
            if memory is not None and state[3]:
                memory.release(state[3])
        table = {}

    for tup in source:
        if limits is not None:
            limits.checkpoint()
        key_values = [evaluate(tup, ctx) for evaluate in key_evaluators]
        key = tuple([canonical_key(v) for v in key_values])
        state = table.get(key)
        if state is None:
            state = [key_values, [], seq, 0]
            table[key] = state
        if memory is not None:
            n_bytes = sizeof_tuple(tup)
            if spill is None:
                memory.allocate(n_bytes)  # raises on overflow
            elif not memory.try_allocate(n_bytes):
                flush_to_buckets()
                state = [key_values, [], seq, 0]
                table[key] = state
                if not memory.try_allocate(n_bytes):
                    memory.force_allocate(n_bytes)
            state[3] += n_bytes
        state[1].append(tup)
        seq += 1

    if writers is None:
        outputs = [
            finalize(key_values, tuples)
            for key_values, tuples, _, _ in table.values()
        ]
        count = len(table)
        if memory is not None:
            memory.release(sum(state[3] for state in table.values()))
        return outputs, count

    if table:
        flush_to_buckets()
    handles = [writer.finish() for writer in writers]
    tagged: list = []  # (first_seq, finalized_output)
    count = 0
    for handle in handles:
        count += _merge_raw_bucket(handle, ctx, finalize, op, 1, tagged)
        handle.delete()
    tagged.sort(key=lambda entry: entry[0])
    return [output for _, output in tagged], count


def _merge_raw_bucket(handle, ctx, finalize, op, depth: int, tagged: list) -> int:
    """Re-group one raw-tuple bucket; recurse when it overflows."""
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    fanout = spill.config.fanout
    spill.note_recursion(depth)
    table: dict = {}  # key -> [key_values, tuples, first_seq, charged]
    writers: list[RunWriter] | None = None

    def split() -> None:
        nonlocal writers, table
        spill.note_event()
        if ctx.profile is not None and op is not None:
            ctx.profile.add(op, "spill_events", 1)
            ctx.profile.add(op, "spill_run_files", fanout)
        writers = [
            spill.new_run(f"rawgroup-d{depth}-b{b}") for b in range(fanout)
        ]
        for key, state in table.items():
            writers[stable_bucket(key, fanout, salt=depth)].write(
                (key, state[0], state[1], state[2])
            )
            if memory is not None and state[3]:
                memory.release(state[3])
        table = {}

    for record in handle:
        if limits is not None:
            limits.checkpoint()
        key, key_values, tuples, first_seq = record
        if writers is not None:
            writers[stable_bucket(key, fanout, salt=depth)].write(record)
            continue
        n_bytes = sum(sizeof_tuple(t) for t in tuples)
        if memory is not None and not memory.try_allocate(n_bytes):
            if table and depth < spill.config.max_recursion:
                split()
                writers[stable_bucket(key, fanout, salt=depth)].write(record)
                continue
            memory.force_allocate(n_bytes)
        state = table.get(key)
        if state is None:
            table[key] = [key_values, list(tuples), first_seq, n_bytes]
        else:
            state[1].extend(tuples)
            if first_seq < state[2]:
                state[2] = first_seq
            state[3] += n_bytes

    if writers is not None:
        sub_handles = [writer.finish() for writer in writers]
        count = 0
        for sub in sub_handles:
            count += _merge_raw_bucket(sub, ctx, finalize, op, depth + 1, tagged)
            sub.delete()
        return count

    for key_values, tuples, first_seq, charged in table.values():
        tagged.append((first_seq, finalize(key_values, tuples)))
        if memory is not None and charged:
            memory.release(charged)
    return len(table)


# ---------------------------------------------------------------------------
# Grace hash join
# ---------------------------------------------------------------------------


def grace_join_overflow(
    build_table: dict,
    build_charged: int,
    build_rest: Iterator[tuple],
    probe_stream: Iterable[tuple],
    residual,
    ctx,
    op=None,
) -> Iterator[Tuple]:
    """Finish a hash join whose build side overflowed memory.

    Called by :func:`~repro.hyracks.operators.hash_join` with the
    partially-built table, the not-yet-consumed remainder of the build
    stream and the untouched probe stream, both of ``(key, tuple)``
    pairs (nothing is keyed again here), and the residual hash_join
    already compiled for this run (one condition, or None).  Both sides
    are partitioned into key-bucket run files; each bucket joins locally
    (recursing with a salted hash when a bucket itself overflows).
    Probe tuples carry their arrival sequence number and the joined
    output is re-emitted in probe order, so the result is byte-identical
    to the in-memory join.
    """
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    fanout = spill.config.fanout
    spill.note_event()
    if ctx.profile is not None and op is not None:
        ctx.profile.add(op, "spill_events", 1)
        ctx.profile.add(op, "spill_run_files", 2 * fanout)

    build_writers = [spill.new_run(f"join-build-b{b}") for b in range(fanout)]
    for key, rows in build_table.items():
        bucket = stable_bucket(key, fanout)
        for tup in rows:
            build_writers[bucket].write((key, tup))
    if memory is not None and build_charged:
        memory.release(build_charged)
    build_table.clear()
    for key, tup in build_rest:
        if limits is not None:
            limits.checkpoint()
        if key is None:
            continue
        build_writers[stable_bucket(key, fanout)].write((key, tup))
    build_handles = [writer.finish() for writer in build_writers]

    probe_writers = [spill.new_run(f"join-probe-b{b}") for b in range(fanout)]
    seq = 0
    for key, tup in probe_stream:
        if limits is not None:
            limits.checkpoint()
        if key is None:
            seq += 1
            continue
        probe_writers[stable_bucket(key, fanout)].write((seq, key, tup))
        seq += 1
    probe_handles = [writer.finish() for writer in probe_writers]

    out: list = []  # (probe_seq, joined_tuple)
    for build_handle, probe_handle in zip(build_handles, probe_handles):
        _join_bucket(build_handle, probe_handle, residual, ctx, op, 1, out)
        build_handle.delete()
        probe_handle.delete()
    out.sort(key=lambda pair: pair[0])
    for _, joined in out:
        yield joined


def _join_bucket(build_handle, probe_handle, residual, ctx, op, depth, out):
    """Join one bucket pair; recurse with a salted hash on overflow."""
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    fanout = spill.config.fanout
    spill.note_recursion(depth)
    table: dict = {}
    charged = 0
    writers: list[RunWriter] | None = None

    for key, tup in build_handle:
        if limits is not None:
            limits.checkpoint()
        if writers is not None:
            writers[stable_bucket(key, fanout, salt=depth)].write((key, tup))
            continue
        n_bytes = sizeof_tuple(tup)
        if memory is not None and not memory.try_allocate(n_bytes):
            if table and depth < spill.config.max_recursion:
                spill.note_event()
                if ctx.profile is not None and op is not None:
                    ctx.profile.add(op, "spill_events", 1)
                    ctx.profile.add(op, "spill_run_files", 2 * fanout)
                writers = [
                    spill.new_run(f"join-build-d{depth}-b{b}")
                    for b in range(fanout)
                ]
                for flush_key, rows in table.items():
                    bucket = stable_bucket(flush_key, fanout, salt=depth)
                    for row in rows:
                        writers[bucket].write((flush_key, row))
                if memory is not None and charged:
                    memory.release(charged)
                    charged = 0
                table = {}
                writers[stable_bucket(key, fanout, salt=depth)].write(
                    (key, tup)
                )
                continue
            memory.force_allocate(n_bytes)
        charged += n_bytes
        table.setdefault(key, []).append(tup)

    if writers is not None:
        sub_build = [writer.finish() for writer in writers]
        probe_writers = [
            spill.new_run(f"join-probe-d{depth}-b{b}") for b in range(fanout)
        ]
        for seq, key, tup in probe_handle:
            if limits is not None:
                limits.checkpoint()
            probe_writers[stable_bucket(key, fanout, salt=depth)].write(
                (seq, key, tup)
            )
        sub_probe = [writer.finish() for writer in probe_writers]
        for build_sub, probe_sub in zip(sub_build, sub_probe):
            _join_bucket(build_sub, probe_sub, residual, ctx, op, depth + 1, out)
            build_sub.delete()
            probe_sub.delete()
        return

    for seq, key, tup in probe_handle:
        if limits is not None:
            limits.checkpoint()
        for match in table.get(key, ()):
            joined = merge_tuples(tup, match)
            if residual is None or residual(joined, ctx):
                out.append((seq, joined))
    if memory is not None and charged:
        memory.release(charged)


# ---------------------------------------------------------------------------
# External merge sort
# ---------------------------------------------------------------------------


class _OrderKey:
    """One sort-spec component: canonical key with direction baked in."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_OrderKey") -> bool:
        if self.descending:
            return other.value < self.value
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return self.value == other.value

    def __hash__(self):  # pragma: no cover - keys are compared, not hashed
        return hash(self.value)

    def __reduce__(self):
        return (_OrderKey, (self.value, self.descending))


def sort_key_for(keys, tup: Tuple, ctx, seq: int) -> tuple:
    """Composite comparable key for one tuple under *keys*, the sort
    specs as ``(compiled closure, descending)`` pairs.

    Lexicographic comparison over per-spec :class:`_OrderKey` components
    with the arrival sequence as final tie-break reproduces exactly what
    the in-memory path computes with its stable least-significant-first
    sort passes.
    """
    return tuple(
        _OrderKey(canonical_key(evaluate(tup, ctx)), descending)
        for evaluate, descending in keys
    ) + (seq,)


def external_sort(specs, source: Iterable[Tuple], ctx, op=None) -> Iterator[Tuple]:
    """Sort *source* by *specs* under the memory budget.

    Tuples are charged as they buffer; a declined charge sorts the
    buffer into a run file.  Runs (plus the in-memory tail) merge with
    ``heapq.merge`` over composite keys, streaming the result without
    ever re-materializing the whole input.
    """
    keys = [(ctx.compiled(expr), descending) for expr, descending in specs]
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    runs: list[RunHandle] = []
    buffer: list = []  # (composite_key, tuple)
    charged = 0
    seq = 0

    def flush_run() -> None:
        nonlocal buffer, charged
        spill.note_event()
        if ctx.profile is not None and op is not None:
            ctx.profile.add(op, "spill_events", 1)
            ctx.profile.add(op, "spill_run_files", 1)
        buffer.sort(key=lambda pair: pair[0])
        writer = spill.new_run("sort")
        for pair in buffer:
            writer.write(pair)
        runs.append(writer.finish())
        buffer = []
        if memory is not None and charged:
            memory.release(charged)
            charged = 0

    try:
        for tup in source:
            if limits is not None:
                limits.checkpoint()
            key = sort_key_for(keys, tup, ctx, seq)
            seq += 1
            n_bytes = sizeof_tuple(tup)
            if memory is not None:
                if spill is None:
                    memory.allocate(n_bytes)  # raises on overflow
                elif not memory.try_allocate(n_bytes):
                    if buffer:
                        flush_run()
                    if not memory.try_allocate(n_bytes):
                        memory.force_allocate(n_bytes)
            charged += n_bytes
            buffer.append((key, tup))

        buffer.sort(key=lambda pair: pair[0])
        if not runs:
            for _, tup in buffer:
                yield tup
            return
        streams = [iter(run) for run in runs] + [iter(buffer)]
        for _, tup in heapq.merge(*streams, key=lambda pair: pair[0]):
            if limits is not None:
                limits.checkpoint()
            yield tup
    finally:
        if memory is not None and charged:
            memory.release(charged)
        for run in runs:
            run.delete()
