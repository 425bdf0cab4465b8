"""Collection catalogs: partitioned data sources for the runtime.

A :class:`CollectionCatalog` maps collection names (the strings queries
pass to ``collection("...")``) to partitioned directories of JSON files
and implements the :class:`~repro.algebra.context.DataSource` protocol:

- ``read_collection`` materializes every item (the naive strategy the
  un-rewritten plans use: the same scanner over the empty path),
- ``scan_collection`` / ``scan_units`` stream items through the
  projecting scanner (the DATASCAN strategy),
- ``partition_count`` drives partitioned-parallel execution.

:class:`InMemorySource` provides the same protocol over in-memory JSON
texts, for tests and small examples.  The two are one implementation
(:class:`_PartitionedSource`) over a small private source protocol; a
concrete class only registers collections and says where a unit's text
comes from.

Both sources take an ``on_malformed`` policy (``fail`` | ``skip_record``
| ``skip_file``) deciding what a scan does with malformed JSON.  Each
read takes the :class:`~repro.resilience.report.DegradationReport` its
skips and cache events go to as ``report=`` (None: not recorded), so a
catalog shared by concurrent queries holds no per-query state.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import Iterable, Iterator

from repro.algebra.context import normalize_collection_name as _normalize
from repro.cache.config import (
    resolve_scan_mode,
    resolve_segment_cache,
    validate_fingerprint_mode,
    validate_scan_mode,
)
from repro.cache.segments import (
    SegmentCache,
    canonical_projection,
    content_file_fingerprint,
    file_fingerprint,
    text_fingerprint,
)
from repro.errors import FileScanError, JsonError, ReproError
from repro.jsonlib import ondemand, textscan
from repro.jsonlib.items import Item, sizeof_rows
from repro.jsonlib.parser import parse
from repro.jsonlib.path import Path
from repro.jsonlib.textscan import ScanCounters
from repro.resilience.policies import validate_on_malformed
from repro.stats.sampling import SourceStatistics

#: scan mode -> the module whose ``scan_file`` / ``scan_text`` projects a
#: unit; both produce byte-identical items, errors and skip events.
_SCANNERS = {"ondemand": ondemand, "text": textscan}


def _recorder(report, source_id: str):
    """The scanners' skip callback, recording on *report* (if any)."""

    def record(offset: int | None, message: str) -> None:
        if report is not None:
            report.record_skipped_record(source_id, offset, message)

    return record


def _skip_file(report, source_id: str, cause: Exception) -> None:
    if report is not None:
        report.record_skipped_file(source_id, cause)


def _scan_plain(
    source, source_id: str, scan, path: Path, counters: ScanCounters | None,
    report,
) -> Iterator[Item]:
    """Stream one file or text through *scan* under the source's policy,
    accumulating its projection accounting on *counters* (when given)
    and recording its skips on *report* (when given)."""
    if source.on_malformed == "skip_record":
        yield from scan(
            path,
            on_malformed="skip_record",
            recorder=_recorder(report, source_id),
            counters=counters,
        )
    elif source.on_malformed == "skip_file":
        # Buffer the matches so a mid-file error drops the whole file,
        # not just its tail (memory stays file-bounded, the same bound
        # the scanners already have).
        try:
            items = list(scan(path, counters=counters))
        except JsonError as error:
            _skip_file(report, source_id, error)
            return
        yield from items
    else:
        try:
            yield from scan(path, counters=counters)
        except JsonError as error:
            raise FileScanError(source_id, error) from error


def _scan_cached(
    source, source_id: str, fingerprint_of, scan, path: Path, report
) -> tuple[list[Item], list[int] | None, bool]:
    """Serve one file or text from the segment cache, scanning cold on miss.

    Returns ``(items, sizes, hit)``: *sizes* is ``sizeof_item`` of each
    item, read from the segment on a hit and measured once for the store
    on a miss (the whole file as one frame of ``sizeof_rows``); None when
    nothing was stored or a skipped file yields nothing.  *hit* says the
    items came from a segment.

    The observable behaviour (items, errors, skip events, and the
    ``matched``/``skipped`` counter deltas) is byte-identical with the
    uncached scan: a cold scan stages its counters and merges them even
    when the scan fails mid-file (matching the direct pass-through), a
    hit replays the stored deltas and skip events.  Skips and cache
    events are recorded on *report* (when given).  Only complete scans
    are stored; a failed or skipped file is rescanned next time.
    *fingerprint_of* takes no argument; an :class:`OSError` from it (or
    a cache that turned itself off) means scan cold, no probe, no store.
    """
    counters = source._counters
    cache = source.segment_cache
    policy = source.on_malformed
    projection = canonical_projection(path)
    record_skipped = _recorder(report, source_id)

    def cache_event(kind: str, message: str) -> None:
        if report is not None:
            report.record_cache_event(kind, source_id, message)

    fingerprint = None
    if cache.disabled_reason is None:
        try:
            fingerprint = fingerprint_of()
        except OSError:
            pass
    if fingerprint is not None:
        segment, status = cache.load_classified(
            source_id, fingerprint, projection, policy
        )
        if segment is not None:
            if counters is not None:
                counters.cache_hits += 1
                counters.absorb(segment.counters)
            for offset, message in segment.skip_events:
                record_skipped(offset, message)
            return segment.items, segment.sizes, True
        if status == "corrupt":
            if counters is not None:
                counters.cache_corrupt += 1
            cache_event(
                "corrupt", "segment failed its integrity check; rescanned cold"
            )
        elif status == "io-error":
            cache_event("io-error", "segment read failed; rescanned cold")
            if cache.disabled_reason is not None:
                cache_event("disabled", cache.disabled_reason)
    if counters is not None:
        counters.cache_misses += 1
    attempt = ScanCounters()
    events: list[tuple[int | None, str]] = []
    resilient = {}
    if policy == "skip_record":
        def recorder(offset: int | None, message: str) -> None:
            events.append((offset, message))
            record_skipped(offset, message)

        resilient = {"on_malformed": "skip_record", "recorder": recorder}
    try:
        items = list(scan(path, counters=attempt, **resilient))
    except JsonError as error:
        if policy == "skip_file":
            _skip_file(report, source_id, error)
            return [], None, False
        if policy == "fail":
            raise FileScanError(source_id, error) from error
        raise
    finally:
        if counters is not None:
            counters.merge(attempt)
    if fingerprint is None:
        return items, None, False
    sizes = sizeof_rows(items)
    stored = cache.store(
        source_id, fingerprint, projection, policy,
        items, sizes, attempt.as_dict(), events,
    )
    if not stored and cache.disabled_reason is not None:
        cache_event("disabled", cache.disabled_reason)
    return items, sizes, False


class _PartitionedSource:
    """The one catalog implementation, over a private source protocol.

    A collection is a list of partitions, a partition a list of *units*
    (a file path, an in-memory text).  Everything a query can observe is
    implemented here once; a concrete class registers collections into
    ``_collections`` and answers five questions:

    - ``_units(name, partition)``: the ``(source id, unit)`` pairs of
      one partition (or of all of them), in registration order; the
      source id labels errors, skip events and cached segments;
    - ``_text(unit)``: the unit's decoded text, for ``read_document``
      and the sampler;
    - ``_scanner(unit)``: the unit bound to the scan mode's scanner,
      called as ``scan(path, **options)``;
    - ``_fingerprint(unit, mode)``: the unit's fingerprint under the
      fingerprint mode (``stat`` | ``content``), for the segment and
      result caches (may raise :class:`OSError`: scan cold);
    - ``_size(unit)``: its size, for the sampler's extrapolation.
    """

    def __init__(self, on_malformed, scan_mode, segment_cache_dir, stats_sample):
        self._collections: dict[str, list[list[str]]] = {}
        self.on_malformed = validate_on_malformed(on_malformed)
        self.scan_mode = resolve_scan_mode(scan_mode)
        self.segment_cache = resolve_segment_cache(segment_cache_dir)
        self.stats = SourceStatistics(stats_sample)
        self._local = threading.local()

    def configure_scan(
        self,
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
    ) -> None:
        """Override the scan mode and/or segment cache after construction.

        ``None`` leaves a setting untouched; an empty
        ``segment_cache_dir`` string disables the cache.
        ``fingerprint_mode`` (``"stat"``, the default, | ``"content"``)
        selects how cached segments detect file changes; in-memory texts
        are always keyed by content hash, so the mode changes nothing
        for them.
        """
        if scan_mode is not None:
            self.scan_mode = validate_scan_mode(scan_mode)
        if segment_cache_dir is not None:
            self.segment_cache = (
                SegmentCache(
                    segment_cache_dir,
                    "stat" if fingerprint_mode is None else fingerprint_mode,
                )
                if segment_cache_dir
                else None
            )
        elif fingerprint_mode is not None and self.segment_cache is not None:
            self.segment_cache.fingerprint_mode = validate_fingerprint_mode(
                fingerprint_mode
            )

    # -- scan counters -----------------------------------------------------------

    @property
    def _counters(self):
        return getattr(self._local, "scan_counters", None)

    def attach_scan_counters(self, counters) -> None:
        """Attach (or detach, with None) projection scan counters.

        While attached, every raw-text scan accumulates its projection
        hit/skip counts on *counters* (a
        :class:`~repro.jsonlib.textscan.ScanCounters`).  The attachment
        is **per thread**, so concurrent scans count apart.
        """
        self._local.scan_counters = counters

    def __getstate__(self):
        # The counters attachment is per-thread runtime state; a pickled
        # catalog (a process-backend work unit) starts detached.
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    # -- registration ----------------------------------------------------------

    def _register(self, name: str, partitions: list[list[str]]) -> None:
        """Bind *name* to *partitions*; its sampled statistics are dropped,
        so the next stats consumer re-samples the fresh data."""
        self._collections[_normalize(name)] = partitions
        self.stats.invalidate(name)

    def _partitions(self, name: str) -> list[list[str]]:
        key = _normalize(name)
        if key not in self._collections:
            raise ReproError(f"unknown collection {name!r}")
        return self._collections[key]

    # -- statistics --------------------------------------------------------------

    def stats_partitions(self, name: str) -> list:
        """Per-partition ``(texts, total_bytes)`` pairs for the sampler.

        *texts* lazily yields each unit's text in registration order;
        unreadable units are skipped (sampling is advisory) but a size
        that can still be read counts toward the extrapolation total.
        """

        def texts(units: list):
            for unit in units:
                try:
                    yield self._text(unit)
                except OSError:
                    continue

        out = []
        for units in self._partitions(name):
            total = 0
            for unit in units:
                try:
                    total += self._size(unit)
                except OSError:
                    pass
            out.append((texts(units), total))
        return out

    def collection_stats(self, name: str):
        """Sampled :class:`~repro.stats.sampling.CollectionStats` (or None)."""
        return self.stats.collection_stats(self, name)

    def stats_snapshot(self, names=None):
        """A :class:`~repro.stats.sampling.StatsSnapshot` over *names*.

        Defaults to every registered collection; collections that fail
        to sample are simply absent from the snapshot.
        """
        if names is None:
            names = sorted(self._collections)
        return self.stats.snapshot(self, names)

    def refresh_stats(self, name: str | None = None) -> None:
        """Drop sampled statistics so the next consumer re-samples."""
        self.stats.invalidate(name)

    # -- DataSource protocol ----------------------------------------------------

    def fingerprints(self, names, mode: str):
        """``(source id, fingerprint)`` of every unit of the collections
        *names* under the fingerprint *mode*, in (collection, partition,
        unit) order: the result cache's key.  None when a file vanished
        mid-lookup, so the caller skips the cache for the request."""
        try:
            return tuple(
                (source_id, self._fingerprint(unit, mode))
                for name in names
                for source_id, unit in self._units(name, None)
            )
        except OSError:
            return None

    def partition_count(self, name: str) -> int:
        """Number of partitions of a collection."""
        return len(self._partitions(name))

    def read_collection(
        self, name: str, partition: int | None = None, report=None
    ) -> list[Item]:
        """Materialize every top-level item of the collection.

        Each unit is the scan mode's scan over the empty path, under the
        same ``on_malformed`` policy as a DATASCAN, its skips recorded
        on *report*; it charges no scan counters and never touches the
        segment cache, so accounting and cached segments stay
        DATASCAN's own.
        """
        items: list[Item] = []
        for source_id, unit in self._units(name, partition):
            items.extend(
                _scan_plain(
                    self, source_id, self._scanner(unit), Path(), None, report
                )
            )
        return items

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None, report=None
    ) -> Iterator[Item]:
        """Stream the collection's items projected through *path*,
        recording skips and cache events on *report*.

        Memory is bounded by the scanner's read-ahead buffer and the
        largest top-level value (by the largest unit under ``skip_file``
        or a segment cache, which buffer one unit's matches).
        """
        for items, _sizes, _again in self.scan_units(
            name, path, partition, report
        ):
            yield from items

    def scan_units(
        self, name: str, path: Path, partition: int | None = None, report=None
    ) -> Iterator[tuple[Iterable[Item], list[int] | None, object]]:
        """:meth:`scan_collection` one unit at a time, as ``(items, sizes,
        again)``.

        *sizes* is ``sizeof_item`` of each item where the segment cache
        already knows it (a hit, or a miss just sized for its store),
        so DATASCAN need not measure the items again; it is None for
        items streamed from text, which DATASCAN cuts into frames and
        sizes itself.  *again* is for a read two DATASCANs of one join
        share: None when the unit's items may serve both (streamed from
        text, or a segment-cache hit), else a callable serving the unit
        again as a read of its own would (a second cache probe, which
        finds what the first one stored), as ``(items, sizes, hit)``.
        """
        for source_id, unit in self._units(name, partition):
            scan = self._scanner(unit)
            if self.segment_cache is None:
                yield _scan_plain(
                    self, source_id, scan, path, self._counters, report
                ), None, None
                continue
            fingerprint_of = partial(
                self._fingerprint, unit, self.segment_cache.fingerprint_mode
            )
            serve = partial(
                _scan_cached, self, source_id, fingerprint_of, scan, path, report
            )
            items, sizes, hit = serve()
            yield items, sizes, None if hit else serve


class CollectionCatalog(_PartitionedSource):
    """Registry of partitioned on-disk collections.

    Collections register explicitly (``register``) or are discovered from
    a base directory whose layout is
    ``<base>/<collection>/partition<i>/*.json``.  A unit is a file path,
    which is also its source id.
    """

    def __init__(
        self,
        base_dir: str | None = None,
        on_malformed: str = "fail",
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        stats_sample: int | None = None,
    ):
        super().__init__(on_malformed, scan_mode, segment_cache_dir, stats_sample)
        if base_dir is not None:
            self.discover(base_dir)

    def register(self, name: str, partitions: list[list[str]]) -> None:
        """Register a collection as an explicit list of partition file lists."""
        self._register(name, [list(files) for files in partitions])

    def register_directory(self, name: str, directory: str) -> None:
        """Register ``directory`` (with ``partition<i>`` subdirs) as *name*.

        A directory holding JSON files directly becomes one partition.
        Raises :class:`~repro.errors.ReproError` when any partition
        directory holds no ``*.json`` files — an empty partition would
        silently return no data from every query over it.
        """
        partition_dirs = sorted(
            entry.path
            for entry in os.scandir(directory)
            if entry.is_dir() and entry.name.startswith("partition")
        )
        if not partition_dirs:
            partition_dirs = [directory]
        partitions = []
        for partition_dir in partition_dirs:
            files = sorted(
                os.path.join(partition_dir, file_name)
                for file_name in os.listdir(partition_dir)
                if file_name.endswith(".json")
            )
            if not files:
                raise ReproError(
                    f"cannot register collection {name!r}: no *.json files "
                    f"in {partition_dir!r}"
                )
            partitions.append(files)
        self.register(name, partitions)

    def discover(self, base_dir: str) -> None:
        """Register every ``<base>/<collection>`` subdirectory.

        Raises :class:`~repro.errors.ReproError` when *base_dir* holds no
        collection subdirectories at all — a catalog discovered from an
        empty directory cannot answer any query.
        """
        found = False
        for entry in os.scandir(base_dir):
            if entry.is_dir():
                self.register_directory("/" + entry.name, entry.path)
                found = True
        if not found:
            raise ReproError(
                f"no collection directories found under {base_dir!r}"
            )

    def files(self, name: str, partition: int | None = None) -> list[str]:
        """File paths of one partition (or all of them)."""
        partitions = self._partitions(name)
        if partition is None:
            return [path for files in partitions for path in files]
        return list(partitions[partition])

    def total_bytes(self, name: str, partition: int | None = None) -> int:
        """On-disk size of a collection (or one partition)."""
        return sum(os.path.getsize(path) for path in self.files(name, partition))

    def read_document(self, uri: str) -> Item:
        """Materialize a single JSON document by file path."""
        return parse(self._text(uri))

    # -- source protocol ---------------------------------------------------------

    def _units(self, name: str, partition: int | None) -> list[tuple[str, str]]:
        return [(path, path) for path in self.files(name, partition)]

    def _text(self, file_path: str) -> str:
        # ``utf-8-sig`` like the scanners: a byte-order mark is not text.
        with open(file_path, "r", encoding="utf-8-sig") as handle:
            return handle.read()

    def _scanner(self, file_path: str):
        return partial(_SCANNERS[self.scan_mode].scan_file, file_path)

    @staticmethod
    def _fingerprint(file_path: str, mode: str):
        if mode == "content":
            return content_file_fingerprint(file_path)
        return file_fingerprint(file_path)

    _size = staticmethod(os.path.getsize)


class InMemorySource(_PartitionedSource):
    """DataSource over in-memory JSON texts (tests, small examples).

    ``collections`` maps names to lists of partitions, each partition a
    list of JSON texts; ``documents`` maps URIs to JSON texts.  A unit
    is a text, its source id the ``"/c[partition p] text i"`` label.
    Segments are keyed by content hash, so an edited text simply
    produces a new key (no staleness window at all).
    """

    def __init__(
        self,
        collections: dict[str, list[list[str]]] | None = None,
        documents: dict[str, str] | None = None,
        on_malformed: str = "fail",
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        stats_sample: int | None = None,
    ):
        super().__init__(on_malformed, scan_mode, segment_cache_dir, stats_sample)
        for name, partitions in (collections or {}).items():
            self._register(name, partitions)
        self._documents = dict(documents or {})

    def add_document(self, uri: str, text: str) -> None:
        """Register a document text under *uri*."""
        self._documents[uri] = text

    def add_collection(self, name: str, partitions: list[list[str]]) -> None:
        """Register a collection of JSON-text partitions."""
        self._register(name, partitions)

    def read_document(self, uri: str) -> Item:
        if uri not in self._documents:
            raise ReproError(f"unknown document {uri!r}")
        return parse(self._text(self._documents[uri]))

    # -- source protocol ---------------------------------------------------------

    def _units(self, name: str, partition: int | None) -> list[tuple[str, str]]:
        key = _normalize(name)
        partitions = self._partitions(name)
        chosen = range(len(partitions)) if partition is None else (partition,)
        return [
            (f"{key}[partition {p}] text {i}", text)
            for p in chosen
            for i, text in enumerate(partitions[p])
        ]

    def _text(self, text: str) -> str:
        return text

    def _scanner(self, text: str):
        return partial(_SCANNERS[self.scan_mode].scan_text, text)

    @staticmethod
    def _fingerprint(text: str, mode: str):
        # Texts are keyed by content whatever the mode: no staleness.
        return text_fingerprint(text)

    _size = staticmethod(len)
