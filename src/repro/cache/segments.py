"""Binary columnar segment files for projected scan results.

A *segment* is the full projected output of scanning one source (a file
on disk or one in-memory text) under one projection path and one
malformed-input policy, together with everything needed to replay the
scan's observable side effects: the projection hit/skip counter deltas,
the skipped-record events a degradation report would have seen, and
``sizeof_item`` of every row, measured once when the segment is written
so a warm DATASCAN accounts its bytes without walking the rows again.

Layout on disk (one file per segment, named by the SHA-256 of the
cache key)::

    RSEG2\\n <u32 crc32> <u32 header length> <JSON header> <sections>

The checksum covers everything after it: header length, header and
every section.  The header names the cache key, the writer's stamp
(byte order and sizing constants), the row count, the replayed counters
and skip events, the column names and the ``[kind, length]`` of every
section.  Uniform lists of flat dicts, the shape every paper query
projects, are shredded column-wise, one section per key; anything else
is one section holding the items themselves.  A section is raw
``array('d')`` / ``array('q')`` bytes when its values are all floats or
all 64-bit ints, newline-joined UTF-8 when they are all strings without
a newline, and JSON text otherwise (decoded by the stdlib C scanner the
on-demand path already trusts).  The last section is the row sizes in
the narrowest unsigned array that holds them, or one entry when every
row is the same size.  Nothing read from the cache directory is
executed: every count and length is checked against the bytes present
before anything is sized from it, and a file with the old ``RSEG1``
(pickle) magic is a miss that is never parsed.

Concurrency: writes go to a unique temp file in the cache directory
and are published with :func:`os.replace`, so concurrent partition
workers (threads or processes) are lock-free — readers only ever see
complete segments, and double-writes of the same key are idempotent
last-writer-wins.  A :class:`SegmentCache` holds only its directory
path (plus a picklable fault hook), so it pickles into process-backend
work units for free.  Every store is best-effort: an I/O error skips
that one write, and only a *run* of consecutive I/O errors (a full or
dead disk) turns the cache off — see the :class:`SegmentCache`
docstring.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
import zlib
from array import array
from dataclasses import dataclass

from repro.jsonlib.items import sizeof_item
from repro.jsonlib.path import KeysOrMembers, Path, ValueByIndex, ValueByKey

_MAGIC = b"RSEG2\n"
_PICKLE_MAGIC = b"RSEG1\n"
_U32 = struct.Struct("<I")
#: unsigned ``array`` codes a sizes section may be packed in, narrowest first
_SIZE_CODES = ("B", "H", "I", "Q")

#: What must agree between writer and reader for the bytes to mean the
#: same: the byte order of the packed arrays, and ``sizeof_item`` of
#: one probe per constant in ``jsonlib/items.py`` (a segment sized
#: under other constants is a miss, never a replay of stale sizes).
_STAMP = [sys.byteorder] + [
    sizeof_item(probe) for probe in ({}, {"": None}, [], [None], "", "a", 0, None)
]

# Exceptions that prove the segment file itself is defective (torn,
# bit-flipped, or structurally malformed) and therefore safe to delete:
# the magic/key/CRC/length ValueErrors raised below, the decoders' own
# failure modes on torn bytes, and shape errors from a header that
# decoded to the wrong structure.  Anything else (MemoryError on a huge
# payload, RecursionError on a deep one) may strike a perfectly valid
# file and must NOT trigger deletion.
_DEFECT_ERRORS = (ValueError, KeyError, TypeError, IndexError, struct.error)


def canonical_projection(path: Path) -> str:
    """Stable textual key for a projection path."""
    parts = []
    for step in path:
        if isinstance(step, ValueByKey):
            parts.append("k=" + step.key)
        elif isinstance(step, ValueByIndex):
            parts.append("i=" + str(step.index))
        elif isinstance(step, KeysOrMembers):
            parts.append("*")
        else:  # future step kinds must not silently alias existing keys
            parts.append(repr(step))
    return "/".join(parts)


def file_fingerprint(file_path: str) -> tuple:
    """Stat-based fingerprint of an on-disk source.

    Size, mtime_ns, ctime_ns and inode: truncating, appending or
    touching the file changes the fingerprint, which changes the cache
    key — stale segments are simply never matched again (no explicit
    invalidation pass is needed).  Atomic-replace rewrites change the
    inode, and in-place rewrites change ctime even when an application
    back-dates mtime.

    Staleness window: a same-size in-place rewrite that lands within
    the filesystem's timestamp granularity (coarse-mtime filesystems,
    or sub-resolution back-to-back writes) is undetectable by ``stat``
    alone and would serve the old segment.  For correctness-critical
    runs on such inputs, fingerprint the bytes instead::

        fingerprint = text_fingerprint(open(path, encoding="utf-8").read())
    """
    stat = os.stat(file_path)
    return (
        "stat",
        stat.st_size,
        stat.st_mtime_ns,
        stat.st_ctime_ns,
        stat.st_ino,
    )


def text_fingerprint(text: str) -> tuple:
    """Content fingerprint of an in-memory source: content hash."""
    return ("sha256", hashlib.sha256(text.encode("utf-8")).hexdigest())


def content_file_fingerprint(file_path: str) -> tuple:
    """Content fingerprint of an on-disk source: hash of its bytes.

    Closes :func:`file_fingerprint`'s same-size in-place rewrite
    staleness window at the cost of reading the file on every lookup —
    the right trade for a long-lived server, where inputs are rewritten
    underneath the process.  Because only the bytes matter, touching a
    file (or copying it to a new inode with identical contents) keeps
    its segments warm instead of invalidating them.
    """
    hasher = hashlib.sha256()
    size = 0
    with open(file_path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            size += len(chunk)
            hasher.update(chunk)
    return ("content", size, hasher.hexdigest())


@dataclass
class CachedSegment:
    """A loaded segment: items plus the scan's replayable side effects."""

    items: list
    #: ``sizeof_item`` of each item, as measured when the segment was
    #: written; DATASCAN adds these instead of walking the items again.
    sizes: list
    #: ``ScanCounters.as_dict()`` of the producing scan; a hit replays
    #: only the ``matched``/``skipped`` fields (see ``ScanCounters.absorb``)
    #: so projection accounting is byte-identical with a cold scan.
    counters: dict
    #: ``(offset, message)`` pairs for records the producing scan
    #: skipped under ``on_malformed="skip_record"``.
    skip_events: list


def _shred(items: list):
    """Split uniform flat-dict rows into columns; None if not uniform.

    Uniform means every row has the *same keys in the same insertion
    order*: ``load`` rebuilds rows as ``dict(zip(keys, row))``, so a
    row whose keys merely match as a set would come back reordered and
    serialize differently warm vs cold.  Such rows are stored as one
    section of whole items, which preserves each dict verbatim.
    """
    if not items:
        return None
    first = items[0]
    if type(first) is not dict or not first:
        return None
    keys = tuple(first)
    columns: list[list] = [[] for _ in keys]
    for item in items:
        if type(item) is not dict or tuple(item) != keys:
            return None
        for column, key in zip(columns, keys):
            column.append(item[key])
    return keys, columns


def _to_json(value) -> bytes:
    """Compact JSON text, unescaped, so every string reads back as it was.

    ``surrogatepass`` writes the lone surrogates a JSON ``\\ud800`` escape
    decodes to, which strict UTF-8 refuses.
    """
    text = json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    return text.encode("utf-8", "surrogatepass")


def _from_json(data: memoryview):
    return json.loads(str(data, "utf-8", "surrogatepass"))


def _pack_column(values: list) -> tuple[str, bytes]:
    """Pack one column as ``(kind, bytes)``; see the module docstring."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return "f8", array("d", values).tobytes()
    if kinds == {int}:
        try:
            return "i8", array("q", values).tobytes()
        except OverflowError:
            pass
    if kinds == {str}:
        text = "\n".join(values)
        if text.count("\n") == len(values) - 1:
            return "str", text.encode("utf-8", "surrogatepass")
    return "json", _to_json(values)


def _unpack_column(kind: str, data: memoryview, rows: int) -> list:
    if kind in ("f8", "i8"):
        column = array("d" if kind == "f8" else "q")
        column.frombytes(data)
        values = column.tolist()
    elif kind == "str":
        values = str(data, "utf-8", "surrogatepass").split("\n")
    elif kind == "json":
        values = _from_json(data)
    else:
        raise ValueError(f"unknown section kind {kind!r}")
    if type(values) is not list or len(values) != rows:
        raise ValueError("section does not hold one value per row")
    return values


def _pack_sizes(sizes: list) -> tuple[str, bytes]:
    """Row sizes in the narrowest unsigned array; one entry if all equal."""
    if len(set(sizes)) == 1:
        sizes = sizes[:1]
    top = max(sizes, default=0)
    code = next(c for c in _SIZE_CODES if top < 1 << 8 * array(c).itemsize)
    return code, array(code, sizes).tobytes()


def _unpack_sizes(kind: str, data: memoryview, rows: int) -> list:
    if kind not in _SIZE_CODES:
        raise ValueError(f"unknown sizes kind {kind!r}")
    sizes = array(kind)
    sizes.frombytes(data)
    if len(sizes) == 1:
        return sizes.tolist() * rows  # rows was checked against the columns
    if len(sizes) != rows:
        raise ValueError("sizes section does not hold one size per row")
    return sizes.tolist()


def _encode(key: str, items, sizes, counters, skip_events) -> bytes:
    """Serialize one segment: everything in the file after the magic."""
    shredded = _shred(items)
    names, columns = (None, [items]) if shredded is None else shredded
    sections = [_pack_column(column) for column in columns]
    sections.append(_pack_sizes(sizes))
    header = _to_json({
        "key": key,
        "stamp": _STAMP,
        "rows": len(items),
        "counters": counters,
        "skip_events": skip_events,
        "columns": names,
        "sections": [(kind, len(data)) for kind, data in sections],
    })
    checked = b"".join(
        [_U32.pack(len(header)), header, *(data for _, data in sections)]
    )
    return _U32.pack(zlib.crc32(checked)) + checked


def _decode(raw: bytes, key: str) -> CachedSegment | None:
    """Parse a segment file; None if its stamp is not this process's.

    Raises one of ``_DEFECT_ERRORS`` for a file that is not a complete
    segment for *key*.
    """
    if not raw.startswith(_MAGIC):
        raise ValueError("bad magic")
    (crc,) = _U32.unpack_from(raw, len(_MAGIC))
    view = memoryview(raw)[len(_MAGIC) + _U32.size:]
    if zlib.crc32(view) != crc:
        raise ValueError("checksum mismatch")
    (header_length,) = _U32.unpack_from(view)
    pos = _U32.size + header_length
    if pos > len(view):
        raise ValueError("header overruns the file")
    header = _from_json(view[_U32.size:pos])
    # A key mismatch is a SHA-256 collision or a hand-edited file;
    # treat it like any other defect.
    if type(header) is not dict or header["key"] != key:
        raise ValueError("header key mismatch")
    if header["stamp"] != _STAMP:
        return None
    rows = header["rows"]
    if type(rows) is not int or rows < 0:
        raise ValueError("bad row count")
    sections = []
    for kind, length in header["sections"]:
        if type(length) is not int or not 0 <= length <= len(view) - pos:
            raise ValueError("section overruns the file")
        sections.append((kind, view[pos:pos + length]))
        pos += length
    if pos != len(view):
        raise ValueError("bytes after the last section")
    *packed, (sizes_kind, sizes_data) = sections
    columns = [_unpack_column(kind, data, rows) for kind, data in packed]
    names = header["columns"]
    if names is None:
        (items,) = columns
    elif columns and len(names) == len(columns) and all(
        type(name) is str for name in names
    ):
        items = [dict(zip(names, row)) for row in zip(*columns)]
    else:  # no column to check ``rows`` against, or names that do not fit
        raise ValueError("bad column names")
    counters = header["counters"]
    if type(counters) is not dict or not all(
        type(count) is int for count in counters.values()
    ):
        raise ValueError("bad counters")
    skip_events = [(offset, message) for offset, message in header["skip_events"]]
    if not all(
        (offset is None or type(offset) is int) and type(message) is str
        for offset, message in skip_events
    ):
        raise ValueError("bad skip events")
    return CachedSegment(
        items, _unpack_sizes(sizes_kind, sizes_data, rows), counters, skip_events
    )


class SegmentCache:
    """On-disk segment store keyed by (source, fingerprint, projection).

    The malformed-input policy is part of the key: a segment produced
    under ``skip_record`` carries skip events that a ``fail`` scan of
    the same bytes would instead have raised, so segments never cross
    policies.

    Crash safety: every store serializes the segment to bytes first,
    puts a CRC32 of header and payload in front of them, writes to a
    unique temp file, fsyncs, and publishes with :func:`os.replace`; a
    crash can only ever leave behind a temp file, never a half-written
    ``.seg``, and a torn or bit-flipped segment (filesystem damage)
    fails the checksum and is classified as *corrupt* (a miss that also
    deletes the bad file so the next complete store repairs it).

    Trust: nothing read from the cache directory is executed.  Whoever
    can write there can make a scan return wrong rows, never run code.

    I/O degradation: a store or load that hits :class:`OSError` (a full
    disk, a failing device, or an injected ``fault_hook`` fault) is
    absorbed — the store is skipped, the load is a miss — and counted;
    after ``max_io_errors`` *consecutive* failures the cache turns
    itself off for the rest of the process (``disabled_reason`` is
    set), so a dead cache directory costs one bounded burst of errors
    rather than one error per scan forever.  ``fault_hook`` must be
    picklable (e.g. a bound method of a
    :class:`~repro.resilience.faults.FaultPlan`) for the process
    backend, where the cache ships inside work units.
    """

    #: consecutive OSErrors tolerated before the cache turns itself off.
    max_io_errors = 3

    def __init__(self, cache_dir: str, fingerprint_mode: str = "stat"):
        from repro.cache.config import validate_fingerprint_mode

        self.cache_dir = cache_dir
        self.fingerprint_mode = validate_fingerprint_mode(fingerprint_mode)
        #: one-arg callable (``"store"`` | ``"load"``) invoked before
        #: every store/load I/O; raising :class:`OSError` from it
        #: injects a cache I/O fault (see ``FaultPlan.fail_cache_io``).
        self.fault_hook = None
        #: non-None once the cache has turned itself off; every later
        #: store is skipped and every later load is a miss.
        self.disabled_reason: str | None = None
        self._io_errors = 0

    def _io_failed(self, operation: str, error: OSError) -> None:
        self._io_errors += 1
        if self._io_errors >= self.max_io_errors and self.disabled_reason is None:
            self.disabled_reason = (
                f"segment cache disabled after {self._io_errors} consecutive "
                f"I/O errors (last: {operation}: {error})"
            )

    def _io_ok(self) -> None:
        self._io_errors = 0

    # -- keys ------------------------------------------------------------------

    def _segment_path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, digest + ".seg")

    # -- store / load ----------------------------------------------------------

    def store(
        self,
        source_id: str,
        fingerprint: tuple,
        projection: str,
        policy: str,
        items: list,
        sizes: list,
        counters: dict,
        skip_events: list,
    ) -> bool:
        """Write one segment atomically; returns False if it was not written.

        *sizes* is ``sizeof_item`` of each of *items*.  The segment is
        serialized up front with its CRC32 in front, the temp file is
        fsynced before :func:`os.replace` publishes it, and any
        :class:`OSError` (including one injected by ``fault_hook``)
        feeds the consecutive-failure counter that can turn the cache
        off.  An item the encoder cannot write (nested too deep for it,
        an integer too long to print, not JSON at all) skips this one
        store and says nothing about the disk.
        """
        if self.disabled_reason is not None:
            return False
        key = repr((source_id, fingerprint, projection, policy))
        try:
            encoded = _encode(key, items, sizes, counters, skip_events)
        except (RecursionError, ValueError, TypeError):
            return False
        try:
            if self.fault_hook is not None:
                self.fault_hook("store")
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                prefix="seg-", suffix=".tmp", dir=self.cache_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC)
                    handle.write(encoded)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, self._segment_path(key))
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._io_failed("store", error)
            return False
        self._io_ok()
        return True

    def load(
        self,
        source_id: str,
        fingerprint: tuple,
        projection: str,
        policy: str,
    ) -> CachedSegment | None:
        """Load a segment; None on miss, stale fingerprint, or bad file.

        Any defect in the file (wrong magic, truncation, a header that
        is not the expected object, a malformed section) is a cache
        miss, never an error: the caller falls back to a cold scan and
        the next complete store overwrites the bad file.
        """
        segment, _status = self.load_classified(
            source_id, fingerprint, projection, policy
        )
        return segment

    def load_classified(
        self,
        source_id: str,
        fingerprint: tuple,
        projection: str,
        policy: str,
    ) -> tuple[CachedSegment | None, str]:
        """Load a segment and say why it hit or missed.

        Returns ``(segment, status)`` where status is one of:

        - ``"hit"`` — a complete, checksum-verified segment;
        - ``"miss"`` — no file for this key, a file in the old pickle
          format (never parsed), a segment sized under other constants,
          the cache is disabled, or parsing failed for a reason that
          does not prove the file defective (:class:`MemoryError`,
          :class:`RecursionError`); the file is kept, and the next
          store overwrites it;
        - ``"corrupt"`` — a file existed but was demonstrably torn,
          bit-flipped, or otherwise defective; the bad file is deleted
          (best-effort) so the next complete store repairs it;
        - ``"io-error"`` — the read itself failed with an
          :class:`OSError` other than file-not-found (counted toward
          the cache's consecutive-failure disable budget).

        Every non-hit outcome is a miss to the caller's scan logic; the
        status only drives counters and degradation events.
        """
        if self.disabled_reason is not None:
            return None, "miss"
        key = repr((source_id, fingerprint, projection, policy))
        segment_path = self._segment_path(key)
        try:
            if self.fault_hook is not None:
                self.fault_hook("load")
            with open(segment_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._io_ok()
            return None, "miss"
        except OSError as error:
            self._io_failed("load", error)
            return None, "io-error"
        self._io_ok()
        if raw.startswith(_PICKLE_MAGIC):
            return None, "miss"
        try:
            segment = _decode(raw, key)
        except _DEFECT_ERRORS:
            # Demonstrably torn/bit-flipped/malformed: delete the file
            # (best-effort) so the next complete store repairs it.
            try:
                os.unlink(segment_path)
            except OSError:
                pass
            return None, "corrupt"
        except Exception:
            # A transient, non-corruption failure (MemoryError on a
            # large payload, RecursionError on a deep one): the file
            # may be perfectly valid, so keep it and treat this load as
            # a plain miss.
            return None, "miss"
        return segment, "miss" if segment is None else "hit"
