"""Collection catalogs: partitioned data sources for the runtime.

A :class:`CollectionCatalog` maps collection names (the strings queries
pass to ``collection("...")``) to partitioned directories of JSON files
and implements the :class:`~repro.algebra.context.DataSource` protocol:

- ``read_collection`` materializes every item (the naive strategy the
  un-rewritten plans use),
- ``scan_collection`` streams items through the projecting parser (the
  DATASCAN strategy),
- ``partition_count`` drives partitioned-parallel execution.

:class:`InMemorySource` provides the same protocol over in-memory JSON
texts, for tests and small examples.

Both sources take an ``on_malformed`` policy (``fail`` | ``skip_record``
| ``skip_file``) deciding what a scan does with malformed JSON, and an
``attach_degradation`` hook the executor uses to collect the skips of
one query into its :class:`~repro.resilience.report.DegradationReport`.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import Iterable, Iterator

from repro.cache.config import (
    resolve_fingerprint_mode,
    resolve_scan_mode,
    resolve_segment_cache,
    validate_fingerprint_mode,
    validate_scan_mode,
)
from repro.cache.segments import (
    SegmentCache,
    canonical_projection,
    text_fingerprint,
)
from repro.errors import FileScanError, JsonError, ReproError
from repro.jsonlib import tape
from repro.jsonlib.items import Item, sizeof_rows
from repro.jsonlib.parser import parse, parse_many, parse_many_resilient
from repro.jsonlib.path import Path, navigate_sequence
from repro.jsonlib.projection import project_file
from repro.jsonlib.textscan import ScanCounters, scan_file, scan_text
from repro.resilience.policies import validate_on_malformed
from repro.stats.sampling import SourceStatistics

_BOM = "\ufeff"


def _eager_scan_text(
    text: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    counters: ScanCounters | None = None,
) -> list[Item]:
    """Eager-mode scan: parse every record fully, then navigate.

    The pre-PR-7 baseline, kept as ``scan_mode="eager"``.  A leading
    BOM is blanked (not stripped) so recorder offsets line up with the
    skipper's.  Only ``matched`` is counted — eager parsing has no
    notion of a skipped subtree.
    """
    if text.startswith(_BOM):
        text = " " + text[1:]
    if on_malformed == "skip_record":
        records = parse_many_resilient(
            text, on_malformed="skip_record", recorder=recorder
        )
    else:
        records = parse_many(text)
    projected = navigate_sequence(records, path)
    if counters is not None:
        counters.matched += len(projected)
    return projected


def _eager_scan_file(
    file_path: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    counters: ScanCounters | None = None,
) -> list[Item]:
    """File twin of :func:`_eager_scan_text` (``utf-8-sig``, like scan_file)."""
    with open(file_path, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    return _eager_scan_text(
        text, path, on_malformed=on_malformed, recorder=recorder,
        counters=counters,
    )


#: scan mode -> (file scanner, text scanner); all three produce
#: byte-identical items, errors and skip events.
_SCANNERS = {
    "ondemand": (tape.scan_file, tape.scan_text),
    "text": (scan_file, scan_text),
    "eager": (_eager_scan_file, _eager_scan_text),
}


def _scan_plain(source, source_id: str, scan, path: Path) -> Iterator[Item]:
    """Stream one file or text through *scan* under the source's policy."""
    counters = source._counters
    if source.on_malformed == "skip_record":
        yield from scan(
            path,
            on_malformed="skip_record",
            recorder=source._recorder(source_id),
            counters=counters,
        )
    elif source.on_malformed == "skip_file":
        # Buffer the matches so a mid-file error drops the whole file,
        # not just its tail (memory stays file-bounded, the same bound
        # the scanners already have).
        try:
            items = list(scan(path, counters=counters))
        except JsonError as error:
            source._record_skipped_file(source_id, error)
            return
        yield from items
    else:
        try:
            yield from scan(path, counters=counters)
        except JsonError as error:
            raise FileScanError(source_id, error) from error


def _scan_cached(
    source, source_id: str, fingerprint_of, scan, path: Path
) -> tuple[list[Item], list[int] | None]:
    """Serve one file or text from the segment cache, scanning cold on miss.

    Returns ``(items, sizes)``: *sizes* is ``sizeof_item`` of each item,
    read from the segment on a hit and measured once for the store on a
    miss (the whole file as one frame of ``sizeof_rows``); None when
    nothing was stored or a skipped file yields nothing.

    The observable behaviour (items, errors, skip events, and the
    ``matched``/``skipped`` counter deltas) is byte-identical with the
    uncached scan: a cold scan stages its counters and merges them even
    when the scan fails mid-file (matching the direct pass-through), a
    hit replays the stored deltas and skip events.  Only complete scans
    are stored; a failed or skipped file is rescanned next time.
    *fingerprint_of* takes no argument; an :class:`OSError` from it (or
    a cache that turned itself off) means scan cold, no probe, no store.
    """
    counters = source._counters
    cache = source.segment_cache
    policy = source.on_malformed
    projection = canonical_projection(path)
    record_skip = source._recorder(source_id)

    def cache_event(kind: str, message: str) -> None:
        if source._report is not None:
            source._report.record_cache_event(kind, source_id, message)

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
                record_skip(offset, message)
            return segment.items, segment.sizes
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
            record_skip(offset, message)

        resilient = {"on_malformed": "skip_record", "recorder": recorder}
    try:
        items = list(scan(path, counters=attempt, **resilient))
    except JsonError as error:
        if policy == "skip_file":
            source._record_skipped_file(source_id, error)
            return [], None
        if policy == "fail":
            raise FileScanError(source_id, error) from error
        raise
    finally:
        if counters is not None:
            counters.merge(attempt)
    if fingerprint is None:
        return items, None
    sizes = sizeof_rows(items)
    stored = cache.store(
        source_id, fingerprint, projection, policy,
        items, sizes, attempt.as_dict(), events,
    )
    if not stored and cache.disabled_reason is not None:
        cache_event("disabled", cache.disabled_reason)
    return items, sizes


class CollectionCatalog:
    """Registry of partitioned on-disk collections.

    Collections register explicitly (``register``) or are discovered from
    a base directory whose layout is
    ``<base>/<collection>/partition<i>/*.json``.
    """

    def __init__(
        self,
        base_dir: str | None = None,
        on_malformed: str = "fail",
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
        stats_sample: int | None = None,
    ):
        self._collections: dict[str, list[list[str]]] = {}
        self.on_malformed = validate_on_malformed(on_malformed)
        self.scan_mode = resolve_scan_mode(scan_mode)
        self.segment_cache = resolve_segment_cache(
            segment_cache_dir, fingerprint_mode
        )
        self.stats = SourceStatistics(stats_sample)
        self._local = threading.local()
        if base_dir is not None:
            self.discover(base_dir)

    def configure_scan(
        self,
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
    ) -> None:
        """Override the scan mode and/or segment cache after construction.

        ``None`` leaves a setting untouched; an empty
        ``segment_cache_dir`` string disables the cache.
        ``fingerprint_mode`` (``"stat"`` | ``"content"``) selects how
        cached segments detect file changes.
        """
        if scan_mode is not None:
            self.scan_mode = validate_scan_mode(scan_mode)
        if segment_cache_dir is not None:
            self.segment_cache = (
                SegmentCache(
                    segment_cache_dir,
                    fingerprint_mode=resolve_fingerprint_mode(fingerprint_mode),
                )
                if segment_cache_dir
                else None
            )
        elif fingerprint_mode is not None and self.segment_cache is not None:
            self.segment_cache.fingerprint_mode = validate_fingerprint_mode(
                fingerprint_mode
            )

    # -- resilience wiring -------------------------------------------------------

    @property
    def _report(self):
        return getattr(self._local, "report", None)

    @property
    def _counters(self):
        return getattr(self._local, "scan_counters", None)

    def attach_degradation(self, report) -> None:
        """Attach (or detach, with None) a degradation report.

        While attached, records and files skipped under a non-``fail``
        ``on_malformed`` policy are recorded on *report*.  The
        attachment is **per thread**, so parallel execution backends can
        give every partition worker its own report without racing.
        """
        self._local.report = report

    def attach_scan_counters(self, counters) -> None:
        """Attach (or detach, with None) projection scan counters.

        While attached, every raw-text scan accumulates its projection
        hit/skip counts on *counters* (a
        :class:`~repro.jsonlib.textscan.ScanCounters`).  Per thread,
        like :meth:`attach_degradation`.
        """
        self._local.scan_counters = counters

    def __getstate__(self):
        # The report/counters attachments are per-thread runtime state;
        # a pickled catalog (a process-backend work unit) starts detached.
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    def _record_skipped_file(self, file_path: str, cause: Exception) -> None:
        if self._report is not None:
            self._report.record_skipped_file(file_path, cause)

    # -- registration ----------------------------------------------------------

    def register(self, name: str, partitions: list[list[str]]) -> None:
        """Register a collection as an explicit list of partition file lists.

        Registration invalidates the collection's sampled statistics;
        the next stats consumer re-samples the fresh data.
        """
        self._collections[self._normalize(name)] = [
            list(files) for files in partitions
        ]
        self.stats.invalidate(self._normalize(name))

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

    @staticmethod
    def _normalize(name: str) -> str:
        return "/" + name.strip("/")

    def _partitions(self, name: str) -> list[list[str]]:
        key = self._normalize(name)
        if key not in self._collections:
            raise ReproError(f"unknown collection {name!r}")
        return self._collections[key]

    # -- DataSource protocol ----------------------------------------------------

    def partition_count(self, name: str) -> int:
        """Number of partitions of a collection."""
        return len(self._partitions(name))

    def files(self, name: str, partition: int | None = None) -> list[str]:
        """File paths of one partition (or all of them)."""
        partitions = self._partitions(name)
        if partition is None:
            return [path for files in partitions for path in files]
        return list(partitions[partition])

    def total_bytes(self, name: str, partition: int | None = None) -> int:
        """On-disk size of a collection (or one partition)."""
        return sum(os.path.getsize(path) for path in self.files(name, partition))

    # -- statistics --------------------------------------------------------------

    def stats_partitions(self, name: str) -> list:
        """Per-partition ``(texts, total_bytes)`` pairs for the sampler.

        *texts* lazily yields each file's content in registration order;
        unreadable files are skipped (sampling is advisory) but their
        on-disk size still counts toward the extrapolation total.
        """

        def file_texts(files: list[str]):
            for file_path in files:
                try:
                    with open(file_path, "r", encoding="utf-8-sig") as handle:
                        yield handle.read()
                except OSError:
                    continue

        out = []
        for files in self._partitions(name):
            total = 0
            for file_path in files:
                try:
                    total += os.path.getsize(file_path)
                except OSError:
                    pass
            out.append((file_texts(files), total))
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

    def read_document(self, uri: str) -> Item:
        """Materialize a single JSON document by file path."""
        with open(uri, "r", encoding="utf-8") as handle:
            return parse(handle.read())

    def read_collection(self, name: str, partition: int | None = None) -> list[Item]:
        """Materialize every top-level item of the collection."""
        items: list[Item] = []
        for path in self.files(name, partition):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if self.on_malformed == "skip_record":
                items.extend(
                    parse_many_resilient(
                        text,
                        on_malformed="skip_record",
                        recorder=self._recorder(path),
                    )
                )
            elif self.on_malformed == "skip_file":
                try:
                    items.extend(parse_many(text))
                except JsonError as error:
                    self._record_skipped_file(path, error)
            else:
                try:
                    items.extend(parse_many(text))
                except JsonError as error:
                    raise FileScanError(path, error) from error
        return items

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None
    ) -> Iterator[Item]:
        """Stream the collection's items projected through *path*.

        Uses the fast raw-text scanner (memory bounded by the largest
        file); :meth:`stream_collection` offers the chunked event-based
        projector when even one file must not be held in memory.
        """
        for items, _sizes in self.scan_frames(name, path, partition):
            yield from items

    def scan_frames(
        self, name: str, path: Path, partition: int | None = None
    ) -> Iterator[tuple[Iterable[Item], list[int] | None]]:
        """:meth:`scan_collection` one file at a time, as ``(items, sizes)``.

        *sizes* is ``sizeof_item`` of each item where the segment cache
        already knows it (a hit, or a miss just sized for its store),
        so DATASCAN need not measure the items again; it is None for
        items streamed from text, which DATASCAN cuts into frames and
        sizes itself.
        """
        scanner = _SCANNERS[self.scan_mode][0]
        for file_path in self.files(name, partition):
            scan = partial(scanner, file_path)
            if self.segment_cache is None:
                yield _scan_plain(self, file_path, scan, path), None
            else:
                fingerprint_of = partial(
                    self.segment_cache.source_fingerprint, file_path
                )
                yield _scan_cached(self, file_path, fingerprint_of, scan, path)

    def _recorder(self, file_path: str):
        def record(offset: int | None, message: str) -> None:
            if self._report is not None:
                self._report.record_skipped_record(file_path, offset, message)

        return record

    def stream_collection(
        self, name: str, path: Path, partition: int | None = None
    ) -> Iterator[Item]:
        """Chunked event-based projection (memory bounded by chunk size).

        The event stream cannot resync past malformed input, so both
        skip policies degrade to truncating the broken file's remainder
        (recorded as a skipped file).
        """
        counters = self._counters
        for file_path in self.files(name, partition):
            if self.on_malformed == "fail":
                try:
                    yield from project_file(file_path, path, counters=counters)
                except JsonError as error:
                    raise FileScanError(file_path, error) from error
            else:
                truncated: list[str] = []

                def record(offset, message, _path=file_path):
                    truncated.append(f"{message} (rest of file dropped)")

                yield from project_file(
                    file_path, path, on_malformed=self.on_malformed,
                    recorder=record, counters=counters,
                )
                for message in truncated:
                    self._record_skipped_file(file_path, ReproError(message))


class InMemorySource:
    """DataSource over in-memory JSON texts (tests, small examples).

    ``collections`` maps names to lists of partitions, each partition a
    list of JSON texts; ``documents`` maps URIs to JSON texts.
    """

    def __init__(
        self,
        collections: dict[str, list[list[str]]] | None = None,
        documents: dict[str, str] | None = None,
        on_malformed: str = "fail",
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
        stats_sample: int | None = None,
    ):
        self._collections = {
            CollectionCatalog._normalize(name): partitions
            for name, partitions in (collections or {}).items()
        }
        self._documents = dict(documents or {})
        self.on_malformed = validate_on_malformed(on_malformed)
        self.scan_mode = resolve_scan_mode(scan_mode)
        self.segment_cache = resolve_segment_cache(
            segment_cache_dir, fingerprint_mode
        )
        self.stats = SourceStatistics(stats_sample)
        self._local = threading.local()

    def configure_scan(
        self,
        scan_mode: str | None = None,
        segment_cache_dir: str | None = None,
        fingerprint_mode: str | None = None,
    ) -> None:
        """Override scan mode / segment cache (None leaves untouched).

        ``fingerprint_mode`` is accepted for interface symmetry with
        :class:`CollectionCatalog`; in-memory texts are always keyed by
        content hash, so the mode changes nothing here.
        """
        if scan_mode is not None:
            self.scan_mode = validate_scan_mode(scan_mode)
        if segment_cache_dir is not None:
            self.segment_cache = (
                SegmentCache(
                    segment_cache_dir,
                    fingerprint_mode=resolve_fingerprint_mode(fingerprint_mode),
                )
                if segment_cache_dir
                else None
            )
        elif fingerprint_mode is not None and self.segment_cache is not None:
            self.segment_cache.fingerprint_mode = validate_fingerprint_mode(
                fingerprint_mode
            )

    @property
    def _report(self):
        return getattr(self._local, "report", None)

    @property
    def _counters(self):
        return getattr(self._local, "scan_counters", None)

    def attach_degradation(self, report) -> None:
        """Attach (or detach, with None) a degradation report (per thread)."""
        self._local.report = report

    def attach_scan_counters(self, counters) -> None:
        """Attach (or detach, with None) scan counters (per thread)."""
        self._local.scan_counters = counters

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    def add_document(self, uri: str, text: str) -> None:
        """Register a document text under *uri*."""
        self._documents[uri] = text

    def add_collection(self, name: str, partitions: list[list[str]]) -> None:
        """Register a collection of JSON-text partitions.

        Like :meth:`CollectionCatalog.register`, invalidates the
        collection's sampled statistics.
        """
        self._collections[CollectionCatalog._normalize(name)] = partitions
        self.stats.invalidate(CollectionCatalog._normalize(name))

    def stats_partitions(self, name: str) -> list:
        """Per-partition ``(texts, total_bytes)`` pairs for the sampler."""
        key = CollectionCatalog._normalize(name)
        if key not in self._collections:
            raise ReproError(f"unknown collection {name!r}")
        return [
            (list(texts), sum(len(text) for text in texts))
            for texts in self._collections[key]
        ]

    def collection_stats(self, name: str):
        """Sampled :class:`~repro.stats.sampling.CollectionStats` (or None)."""
        return self.stats.collection_stats(self, name)

    def stats_snapshot(self, names=None):
        """A :class:`~repro.stats.sampling.StatsSnapshot` over *names*."""
        if names is None:
            names = sorted(self._collections)
        return self.stats.snapshot(self, names)

    def refresh_stats(self, name: str | None = None) -> None:
        """Drop sampled statistics so the next consumer re-samples."""
        self.stats.invalidate(name)

    def _texts(
        self, name: str, partition: int | None
    ) -> list[tuple[str, str]]:
        """(label, text) pairs of one partition (or all of them)."""
        key = CollectionCatalog._normalize(name)
        if key not in self._collections:
            raise ReproError(f"unknown collection {name!r}")
        partitions = self._collections[key]
        if partition is None:
            return [
                (f"{key}[partition {p}] text {i}", text)
                for p, texts in enumerate(partitions)
                for i, text in enumerate(texts)
            ]
        return [
            (f"{key}[partition {partition}] text {i}", text)
            for i, text in enumerate(partitions[partition])
        ]

    def partition_count(self, name: str) -> int:
        key = CollectionCatalog._normalize(name)
        if key not in self._collections:
            raise ReproError(f"unknown collection {name!r}")
        return len(self._collections[key])

    def read_document(self, uri: str) -> Item:
        if uri not in self._documents:
            raise ReproError(f"unknown document {uri!r}")
        return parse(self._documents[uri])

    def read_collection(self, name: str, partition: int | None = None) -> list[Item]:
        items: list[Item] = []
        for label, text in self._texts(name, partition):
            if self.on_malformed == "skip_record":
                items.extend(
                    parse_many_resilient(
                        text,
                        on_malformed="skip_record",
                        recorder=self._recorder(label),
                    )
                )
            elif self.on_malformed == "skip_file":
                try:
                    items.extend(parse_many(text))
                except JsonError as error:
                    self._record_skipped_file(label, error)
            else:
                try:
                    items.extend(parse_many(text))
                except JsonError as error:
                    raise FileScanError(label, error) from error
        return items

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None
    ) -> Iterator[Item]:
        for items, _sizes in self.scan_frames(name, path, partition):
            yield from items

    def scan_frames(
        self, name: str, path: Path, partition: int | None = None
    ) -> Iterator[tuple[Iterable[Item], list[int] | None]]:
        """One ``(items, sizes)`` per text; see the catalog's method.

        Segments are keyed by content hash, so an edited text simply
        produces a new key (no staleness window at all).
        """
        scanner = _SCANNERS[self.scan_mode][1]
        for label, text in self._texts(name, partition):
            scan = partial(scanner, text)
            if self.segment_cache is None:
                yield _scan_plain(self, label, scan, path), None
            else:
                fingerprint_of = partial(text_fingerprint, text)
                yield _scan_cached(self, label, fingerprint_of, scan, path)

    def _recorder(self, label: str):
        def record(offset: int | None, message: str) -> None:
            if self._report is not None:
                self._report.record_skipped_record(label, offset, message)

        return record

    def _record_skipped_file(self, label: str, cause: Exception) -> None:
        if self._report is not None:
            self._report.record_skipped_file(label, cause)
