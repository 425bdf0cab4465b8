"""Spill-to-disk execution: bounded-memory blocking operators.

The paper's runtime inherits Hyracks' discipline of processing data in
fixed-size frames under a bounded memory budget (Section 3.1; Table 3
and Figure 18b measure exactly this); the companion VXQuery systems
paper stresses that blocking operators must degrade to disk rather than
die when inputs exceed memory.  This module supplies that degradation
path:

- :class:`SpillManager` — owns a per-attempt temp directory of **run
  files**; a :class:`RunWriter` pickles records in frame-sized batches,
  run files are named deterministically (``run-NNNNNN-<label>.frames``),
  and ``close()`` guarantees cleanup no matter how execution unwound;
- :func:`charge` — the one allocate / shed / retry / force ladder every
  spilling operator charges through;
- :func:`fold_group_table` — external hash GROUP-BY (partition-and-
  recurse over salted key buckets of partial states);
- :func:`grace_join_overflow` — grace hash join (both sides partitioned
  into bucket runs, each bucket joined recursively);
- :func:`external_sort` — external merge sort (sorted runs merged with
  ``heapq.merge``);
- :class:`SpilledSequence` — a materialized buffer (nested-loop build
  sides, ``sequence`` aggregates) that overflows to run files.

The GROUP-BY and the join each have one split-and-recurse: the top
level sheds to the depth-0 buckets through the same code a bucket that
overflows uses to split at its own depth.

These are the only implementations of the blocking operators: a
budget comes with a spill manager, and without a budget no charge
declines, so each runs as one in-memory run that writes no file.
Spilling triggers when the :class:`~repro.hyracks.memory.MemoryTracker`
*declines* a charge (``try_allocate``) instead of raising.  Results are
byte-identical with spill on and off: every external algorithm tags
records with arrival sequence numbers and restores the in-memory
emission order (first-seen order for groups, probe order for joins,
spec order with ties in arrival order for sorts).

Spill writes run through an optional **fault hook** (the resilience
layer's :meth:`~repro.resilience.faults.FaultPlan.fail_spill`), so a
:class:`~repro.resilience.faults.FaultPlan` can kill a spill write and a
second attempt (``ResilienceConfig(max_attempts=...)``) can recover the
partition.
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
from repro.hyracks.aggregates import GroupStates
from repro.hyracks.tuples import (
    DEFAULT_FRAME_BYTES,
    Tuple,
    merge_tuples,
    sizeof_tuple,
)
from repro.jsonlib.items import canonical_key

#: environment variable consulted for a default spill directory
SPILL_DIR_ENV_VAR = "REPRO_SPILL_DIR"

#: charge for one hash-group entry (the GROUP-BY callers release it per
#: entry after emission, importing it from here)
GROUP_ENTRY_BYTES = 96

#: bytes of records a run file batches into one disk write
FRAME_BYTES = DEFAULT_FRAME_BYTES

#: bucket runs one split of a GROUP-BY table or of each join side opens
FANOUT = 8

#: how deep an overflowing bucket may split again before it is forced
#: into memory
MAX_RECURSION = 6


def estimate_record_bytes(record) -> int:
    """Rough in-memory size of an arbitrary spill record.

    Spill records are not JSON items (they carry pickled partial states,
    sequence tags, composite sort keys), so the item-model sizer cannot
    price them; this generic walk is only used to cut run-file batches,
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
    """Where spilling operators write their run files.

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
    ``mkdtemp``-unique because a crash retry runs the *same* partition
    again in a fresh worker while the dead worker's directory may
    still be on disk.
    """

    directory: str | None = None
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


def resolve_spill_config(spill_dir: str | None = None) -> SpillConfig:
    """The :class:`SpillConfig` of a ``spill_dir`` argument."""
    return SpillConfig(directory=spill_dir)


# ---------------------------------------------------------------------------
# Run files
# ---------------------------------------------------------------------------


class RunHandle:
    """One finished run file: iterable, deletable, counted."""

    __slots__ = ("path", "records", "byte_size")

    def __init__(self, path: str, records: int, byte_size: int):
        self.path = path
        self.records = records
        self.byte_size = byte_size

    def __iter__(self) -> Iterator:
        """The run's records in write order.

        A run that reads back fewer records than were written (a file cut
        short, a batch that no longer unpickles) raises
        :class:`~repro.errors.SpillError` instead of ending early.
        """
        read = 0
        try:
            with open(self.path, "rb") as handle:
                while read < self.records:
                    batch = pickle.load(handle)
                    read += len(batch)
                    yield from batch
        except OSError as error:
            raise SpillError(
                f"cannot read spill run {self.path!r}: {error}"
            ) from error
        except (EOFError, pickle.UnpicklingError) as error:
            raise SpillError(
                f"spill run {self.path!r} read back {read} of "
                f"{self.records} records: {error}"
            ) from error

    def delete(self) -> None:
        """Remove the run file early (close() cleans up leftovers anyway)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


class RunWriter:
    """Writes records to a run file in frame-sized batches.

    A batch is a pickled list of records, cut when the next record's
    :func:`estimate_record_bytes` would overflow the configured
    ``frame_bytes``; a record larger than a frame gets a batch of its
    own.  The fault hook fires before every disk write, which is where
    ``FaultPlan.fail_spill`` injects.
    """

    __slots__ = ("_path", "_file", "_batch", "_batch_bytes", "_frame_bytes",
                 "_manager", "_records", "closed")

    def __init__(self, path: str, manager: "SpillManager"):
        self._path = path
        self._manager = manager
        self._records = 0
        self._batch: list = []
        self._batch_bytes = 0
        self._frame_bytes = FRAME_BYTES
        self.closed = False
        try:
            self._file = open(path, "wb")
        except OSError as error:
            raise SpillError(
                f"cannot create spill run {path!r}: {error}"
            ) from error

    def _flush(self) -> None:
        if not self._batch:
            return
        self._manager.check_fault()
        try:
            pickle.dump(self._batch, self._file)
        except OSError as error:
            raise SpillError(
                f"cannot write spill run {self._path!r}: {error}"
            ) from error
        self._batch = []
        self._batch_bytes = 0

    def write(self, record) -> None:
        self._records += 1
        n_bytes = estimate_record_bytes(record)
        if self._batch_bytes + n_bytes > self._frame_bytes:
            self._flush()
        self._batch.append(record)
        self._batch_bytes += n_bytes
        if n_bytes > self._frame_bytes:
            self._flush()  # an oversized record is a batch of its own

    def finish(self) -> RunHandle:
        """Flush, close, and hand back a readable run handle."""
        self._flush()
        try:
            self._file.close()
        except OSError as error:
            raise SpillError(
                f"cannot finish spill run {self._path!r}: {error}"
            ) from error
        self.closed = True
        byte_size = os.path.getsize(self._path)
        self._manager.bytes_spilled += byte_size
        return RunHandle(self._path, self._records, byte_size)

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
# The steps every spilling operator shares
# ---------------------------------------------------------------------------


def charge(ctx, n_bytes: int, shed: Callable[[], None] | None = None) -> bool:
    """Charge *n_bytes* for a spilling operator's in-memory state; False
    when the budget declined it and there is no *shed*.

    A budget comes with a spill manager, so only a context built without
    one raises on overflow here.  With a manager, a declined charge
    calls *shed*, which writes the operator's state to disk (a no-op
    when it holds nothing), retries, and finally forces the irreducible
    remainder, recording the overdraft.  Without a *shed* the caller
    hands its state to disk itself (the grace join), and nothing was
    charged.
    """
    memory = ctx.memory
    if memory is None:
        return True
    if ctx.spill is None:
        memory.allocate(n_bytes)  # raises on overflow
    elif not memory.try_allocate(n_bytes):
        if shed is None:
            return False
        shed()
        if not memory.try_allocate(n_bytes):
            memory.force_allocate(n_bytes)
    return True


def _spill_event(ctx, op, files: int) -> None:
    """Count one spill decision, and the *files* run files it opens, on
    the manager and on *op*'s profile."""
    ctx.spill.note_event()
    if ctx.profile is not None and op is not None:
        ctx.profile.add(op, "spill_events", 1)
        if files:
            ctx.profile.add(op, "spill_run_files", files)


def _bucket_runs(spill: "SpillManager", label: str, depth: int) -> list:
    """Open the :data:`FANOUT` bucket runs of one split at *depth*
    (``group-b3`` at depth 0, ``group-d2-b3`` below)."""
    prefix = label if depth == 0 else f"{label}-d{depth}"
    return [spill.new_run(f"{prefix}-b{b}") for b in range(FANOUT)]


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

    def append(self, record, n_bytes: int) -> None:
        charge(self._ctx, n_bytes, self._flush)
        self._charged += n_bytes
        self._buffer.append(record)

    def _flush(self) -> None:
        if not self._buffer:
            return
        ctx = self._ctx
        _spill_event(ctx, self._op, 1)
        writer = ctx.spill.new_run(self._label)
        for record in self._buffer:
            writer.write(record)
        self._runs.append(writer.finish())
        self._buffer = []
        ctx.release(self._charged)
        self._charged = 0

    def __iter__(self) -> Iterator:
        return itertools.chain(*self._runs, self._buffer)

    def close(self) -> None:
        """Release the remaining charge and the run files."""
        self._ctx.release(self._charged)
        self._charged = 0
        for run in self._runs:
            run.delete()
        self._runs = []
        self._buffer = []


# ---------------------------------------------------------------------------
# External hash GROUP-BY (partition-and-recurse)
# ---------------------------------------------------------------------------


class GroupedRows:
    """One frame of a GROUP-BY's input, as the scan's frame gear hands
    it to :func:`fold_group_table`: per live row its group key, its key
    sequences and one argument sequence per aggregate.  *taken* is set
    by the fold to the rows it took, the one it raised on included,
    which is what the scan accounts."""

    __slots__ = ("keys", "key_values", "arguments", "taken")

    def __init__(self, keys: list, key_values: list, arguments: list):
        self.keys = keys
        self.key_values = key_values
        self.arguments = arguments
        self.taken = 0


def fold_group_table(op, source: Iterable, ctx) -> tuple[GroupStates, dict]:
    """GROUP-BY *op*'s aggregates, and *source* folded into ``key ->
    (key_values, states, first_seq)``, one state per aggregate (the
    table's size counted as ``groups`` on a profile).

    *source* yields input tuples, keyed here through the key closures
    and folded through the argument closures, or :class:`GroupedRows`
    frames, whose keys and argument items the frame gear took a column
    at a time.  Either way a group's key is the canonical key of each
    key sequence, its entry is made (and charged) before its first row
    is folded, and rows fold in arrival order.

    The returned dict's insertion order is **first-seen key order** —
    with or without spilling — which is what keeps results byte-identical
    across spill on/off and across execution backends (the coordinator
    combines partition tables in partition order, relying on each
    table's deterministic order).

    One ``GROUP_ENTRY_BYTES`` charge per distinct key, raising when no
    spill manager is configured; every entry returned stays charged and
    the caller releases it after emission.  With a spill manager, a
    declined charge sheds the table's partial states to the depth-0
    salted key buckets and folding goes on; at the end each bucket is
    merged one level deeper by :func:`_merge_group_bucket`.
    """
    key_evaluators = [ctx.compiled(expr) for _, expr in op.keys]
    aggregates = GroupStates(op.nested_root.specs, ctx)
    new_states = aggregates.new
    folds = list(enumerate(cls.fold for cls in aggregates.classes))
    limits = ctx.limits
    table: dict = {}  # key -> (key_values, states, first_seq)
    writers: list[RunWriter] | None = None
    seq = 0

    def shed() -> None:
        nonlocal writers
        if not table:
            return
        _spill_event(ctx, op, FANOUT if writers is None else 0)
        if writers is None:
            writers = _bucket_runs(ctx.spill, "group", 0)
        _shed_groups(table, aggregates, writers, 0, ctx)

    def fold_rows(rows: GroupedRows) -> None:
        nonlocal seq
        first = seq
        try:
            for key, key_values, arguments in zip(
                rows.keys, rows.key_values, rows.arguments
            ):
                state = table.get(key)
                if state is None:
                    charge(ctx, GROUP_ENTRY_BYTES, shed)
                    state = table[key] = (key_values, new_states(), seq)
                states = state[1]
                for i, fold in folds:
                    states[i] = fold(states[i], arguments[i], ctx)
                seq += 1
        finally:
            rows.taken = seq - first + (seq - first < len(rows.keys))

    for tup in source:
        if type(tup) is GroupedRows:
            fold_rows(tup)
            continue
        if limits is not None:
            limits.checkpoint()
        key_values = [evaluate(tup, ctx) for evaluate in key_evaluators]
        key = tuple([canonical_key(v) for v in key_values])
        state = table.get(key)
        if state is None:
            charge(ctx, GROUP_ENTRY_BYTES, shed)
            state = table[key] = (key_values, new_states(), seq)
        aggregates.add(state[1], tup, ctx)
        seq += 1

    if writers is not None:
        shed()
        entries: list = []  # (first_seq, key, key_values, partials)
        _merge_buckets(writers, aggregates, ctx, op, 1, entries)
        entries.sort(key=lambda entry: entry[0])
        table = {key: (kv, partials, first) for first, key, kv, partials in entries}
    # else never spilled: the dict is already in first-seen order
    if ctx.profile is not None:
        ctx.profile.add(op, "groups", len(table))
    return aggregates, table


def _shed_groups(table: dict, aggregates, writers: list, depth: int, ctx) -> None:
    """Write every entry of *table* to its salted bucket at *depth* as
    ``(key, key_values, partials, first_seq)``, release the entries'
    charges, and empty the table."""
    fanout = len(writers)
    for key, (key_values, states, first_seq) in table.items():
        writers[stable_bucket(key, fanout, salt=depth)].write(
            (key, key_values, aggregates.take(states, ctx), first_seq)
        )
    ctx.release(GROUP_ENTRY_BYTES * len(table))
    table.clear()


def _merge_buckets(writers, aggregates, ctx, op, depth: int, entries):
    """Finish one split's bucket runs and merge each at *depth*."""
    for handle in [writer.finish() for writer in writers]:
        _merge_group_bucket(handle, aggregates, ctx, op, depth, entries)
        handle.delete()


def _merge_group_bucket(handle, aggregates, ctx, op, depth: int, entries: list):
    """Merge one bucket's partial records into *entries*; when the
    bucket overflows, shed its table and the rest of its records to
    buckets salted by *depth* and merge those one level deeper."""
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    spill.note_recursion(depth)
    table: dict = {}
    writers: list[RunWriter] | None = None

    for record in handle:
        if limits is not None:
            limits.checkpoint()
        key, key_values, partials, first_seq = record
        if writers is not None:
            writers[stable_bucket(key, FANOUT, salt=depth)].write(record)
            continue
        state = table.get(key)
        if state is None:
            if memory is not None and not memory.try_allocate(
                GROUP_ENTRY_BYTES
            ):
                if table and depth < MAX_RECURSION:
                    _spill_event(ctx, op, FANOUT)
                    writers = _bucket_runs(spill, "group", depth)
                    _shed_groups(table, aggregates, writers, depth, ctx)
                    writers[stable_bucket(key, FANOUT, salt=depth)].write(
                        record
                    )
                    continue
                memory.force_allocate(GROUP_ENTRY_BYTES)
            table[key] = (key_values, partials, first_seq)
            continue
        if first_seq < state[2]:
            table[key] = state = (state[0], state[1], first_seq)
        aggregates.merge(state[1], partials)

    if writers is not None:
        _merge_buckets(writers, aggregates, ctx, op, depth + 1, entries)
        return

    # Entries stay charged (GROUP_ENTRY_BYTES each): the merged table is
    # in memory, and the caller releases it after emission — the same
    # contract as the never-spilled path.
    for key, (key_values, partials, first_seq) in table.items():
        entries.append((first_seq, key, key_values, partials))


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
    partially-built table (its charged bytes), the not-yet-consumed
    remainder of the build stream and the untouched probe stream, both
    of ``(key, tuple)`` pairs (nothing is keyed again here), and the
    residual hash_join already compiled for this run (one condition, or
    None).  This is depth 0 of :func:`_split_join`.  Probe tuples carry
    their arrival sequence number and the joined output is re-emitted in
    probe order, so the result is byte-identical to the in-memory join.
    """
    out: list = []  # (probe_seq, joined_tuple)
    probe = (
        (seq, key, tup) for seq, (key, tup) in enumerate(probe_stream)
    )
    _split_join(
        build_table, build_charged, (), build_rest, probe, 0,
        residual, ctx, op, out,
    )
    out.sort(key=lambda pair: pair[0])
    for _, joined in out:
        yield joined


def _split_join(
    table, charged, extra, rest, probe, depth, residual, ctx, op, out
):
    """Partition an overflowing build side and its probe side into
    buckets salted by *depth*, then join each pair one level deeper.

    The build buckets get *table*'s rows (releasing their *charged*
    bytes), then the *extra* ``(key, tuple)`` pairs, then the *rest* of
    the build stream with one limit checkpoint per pair; *probe* yields
    ``(seq, key, tuple)`` triples, one checkpoint each.  A None key can
    never join, so such pairs and triples are dropped.
    """
    limits = ctx.limits
    spill = ctx.spill
    _spill_event(ctx, op, 2 * FANOUT)

    build_writers = _bucket_runs(spill, "join-build", depth)
    for key, rows in table.items():
        bucket = build_writers[stable_bucket(key, FANOUT, salt=depth)]
        for tup in rows:
            bucket.write((key, tup))
    ctx.release(charged)
    table.clear()
    for key, tup in extra:
        build_writers[stable_bucket(key, FANOUT, salt=depth)].write((key, tup))
    for key, tup in rest:
        if limits is not None:
            limits.checkpoint()
        if key is not None:
            build_writers[stable_bucket(key, FANOUT, salt=depth)].write(
                (key, tup)
            )
    build_handles = [writer.finish() for writer in build_writers]

    probe_writers = _bucket_runs(spill, "join-probe", depth)
    for seq, key, tup in probe:
        if limits is not None:
            limits.checkpoint()
        if key is not None:
            probe_writers[stable_bucket(key, FANOUT, salt=depth)].write(
                (seq, key, tup)
            )
    probe_handles = [writer.finish() for writer in probe_writers]

    for build_handle, probe_handle in zip(build_handles, probe_handles):
        _join_bucket(
            build_handle, probe_handle, residual, ctx, op, depth + 1, out
        )
        build_handle.delete()
        probe_handle.delete()


def _join_bucket(build_handle, probe_handle, residual, ctx, op, depth, out):
    """Join one bucket pair; split it at *depth* when its build side
    overflows."""
    limits = ctx.limits
    spill = ctx.spill
    memory = ctx.memory
    spill.note_recursion(depth)
    table: dict = {}
    charged = 0

    build = iter(build_handle)
    for key, tup in build:
        if limits is not None:
            limits.checkpoint()
        n_bytes = sizeof_tuple(tup)
        if memory is not None and not memory.try_allocate(n_bytes):
            if table and depth < MAX_RECURSION:
                _split_join(
                    table, charged, [(key, tup)], build, probe_handle,
                    depth, residual, ctx, op, out,
                )
                return
            memory.force_allocate(n_bytes)
        charged += n_bytes
        table.setdefault(key, []).append(tup)

    for seq, key, tup in probe_handle:
        if limits is not None:
            limits.checkpoint()
        for match in table.get(key, ()):
            joined = merge_tuples(tup, match)
            if residual is None or residual(joined, ctx):
                out.append((seq, joined))
    ctx.release(charged)


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
    with the arrival sequence as final tie-break is a stable sort by the
    specs, most significant first.
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
    ever re-materializing the whole input.  Without a budget nothing
    declines: the one buffer is sorted and no run is written.
    """
    keys = [(ctx.compiled(expr), descending) for expr, descending in specs]
    limits = ctx.limits
    runs: list[RunHandle] = []
    buffer: list = []  # (composite_key, tuple)
    charged = 0
    seq = 0

    def flush_run() -> None:
        nonlocal buffer, charged
        if not buffer:
            return
        _spill_event(ctx, op, 1)
        buffer.sort(key=lambda pair: pair[0])
        writer = ctx.spill.new_run("sort")
        for pair in buffer:
            writer.write(pair)
        runs.append(writer.finish())
        buffer = []
        ctx.release(charged)
        charged = 0

    try:
        for tup in source:
            if limits is not None:
                limits.checkpoint()
            key = sort_key_for(keys, tup, ctx, seq)
            seq += 1
            n_bytes = sizeof_tuple(tup)
            charge(ctx, n_bytes, flush_run)
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
        if charged:
            ctx.release(charged)
        for run in runs:
            run.delete()
