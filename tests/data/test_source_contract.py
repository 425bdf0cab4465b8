"""One catalog, two registrations: the disk and in-memory sources agree.

``CollectionCatalog`` and ``InMemorySource`` are one implementation over
a small source protocol (``repro.data.catalog._PartitionedSource``), so
the same texts registered on disk and in memory must be
indistinguishable to a query: identical items, ``ScanCounters``, skip
events and error text, the source id apart (a file path on disk, the
``"/c[partition p] text i"`` label in memory).  Checked across
malformed-input policy x scan mode x segment-cache state.

Also here, because it is the same claim about the one text reader: a
byte-order mark is not text, and a record reads alike (or fails alike),
whichever plan reads the file.
"""

import os
import re

import pytest

from repro import JsonProcessor, RewriteConfig
from repro.cache.config import SCAN_MODES
from repro.cache.segments import (
    SegmentCache,
    canonical_projection,
    file_fingerprint,
    text_fingerprint,
)
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.errors import FileScanError, ReproError
from repro.jsonlib.path import parse_path
from repro.jsonlib.textscan import ScanCounters
from repro.resilience import DegradationReport
from repro.resilience.policies import ON_MALFORMED_POLICIES
from tests.jsonlib.test_parser import INVALID_INPUTS

CLEAN = '{"v": 1, "w": {"x": [1, 2]}}\n{"v": 2}\n{"w": 3}\n'
BROKEN = '{"v": 4}\n{"v": oops}\n{"v": 5}\n'
PARTITIONS = [[CLEAN, BROKEN], [CLEAN]]
PATH = parse_path('("v")')
KINDS = ("disk", "memory")


@pytest.fixture(autouse=True)
def _pinned_scan_env(monkeypatch):
    # Every cell sets its own mode and cache; the CI legs that run the
    # suite under these variables must not leak into the "off" cells.
    for name in ("REPRO_SEGMENT_CACHE", "REPRO_SCAN_MODE"):
        monkeypatch.delenv(name, raising=False)


def build(kind, root, partitions=PARTITIONS, **kwargs):
    """Register *partitions* as ``/c`` on disk under *root*, or in memory."""
    if kind == "memory":
        return InMemorySource({"/c": partitions}, **kwargs)
    for p, texts in enumerate(partitions):
        directory = root / "data" / "c" / f"partition{p}"
        directory.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(texts):
            (directory / f"t{i}.json").write_text(text, encoding="utf-8")
    return CollectionCatalog(str(root / "data"), **kwargs)


def unit_of(source_id):
    """``(partition, index)`` of a source id of either kind."""
    found = re.search(r"partition(\d+)/t(\d+)\.json$", source_id) or re.search(
        r"^/c\[partition (\d+)\] text (\d+)$", source_id
    )
    assert found, source_id
    return int(found.group(1)), int(found.group(2))


def observe(source, partition=None):
    """Everything one scan of ``/c`` shows, with source ids made neutral."""
    counters = ScanCounters()
    report = DegradationReport()
    source.attach_scan_counters(counters)
    items = error = None
    try:
        items = list(source.scan_collection("/c", PATH, partition, report=report))
    except FileScanError as raised:
        error = (
            unit_of(raised.file_path),
            str(raised).replace(repr(raised.file_path), "<unit>"),
        )
    finally:
        source.attach_scan_counters(None)
    return {
        "items": items,
        "error": error,
        "counters": counters.as_dict(),
        "skipped_records": [
            (unit_of(skip.source), skip.offset, skip.message)
            for skip in report.skipped_records
        ],
        "skipped_files": [
            (unit_of(skip.file_path), skip.message)
            for skip in report.skipped_files
        ],
        "cache_events": report.cache_events,
    }


@pytest.mark.parametrize("cache", ["off", "cold", "warm"])
@pytest.mark.parametrize("scan_mode", SCAN_MODES)
@pytest.mark.parametrize("policy", ON_MALFORMED_POLICIES)
def test_disk_and_memory_are_indistinguishable(tmp_path, policy, scan_mode, cache):
    seen = {}
    for kind in KINDS:
        root = tmp_path / kind
        root.mkdir()
        source = build(
            kind, root, on_malformed=policy, scan_mode=scan_mode,
            segment_cache_dir="" if cache == "off" else str(root / "cache"),
        )
        if cache == "warm":
            observe(source)
            observe(source, partition=1)
        try:
            read = source.read_collection("/c")
        except FileScanError as raised:
            read = str(raised).replace(repr(raised.file_path), "<unit>")
        seen[kind] = (observe(source), observe(source, partition=1), read)
    assert seen["disk"] == seen["memory"]
    whole, second_partition, _read = seen["disk"]
    # The cells are not vacuous: the broken unit shows under every policy,
    # and a warm cell was served from segments.
    assert second_partition["items"] == [1, 2]
    if policy == "fail":
        assert whole["error"][0] == (0, 1)
    else:
        assert whole["skipped_records"] or whole["skipped_files"]
    if cache == "warm":
        assert second_partition["counters"]["cache_hits"] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_segment_files_are_keyed_as_a_direct_store_keys_them(tmp_path, kind):
    """(source id, fingerprint, projection, policy) names a segment file;
    the catalogs add nothing to the key and take nothing from it."""
    source = build(
        kind, tmp_path, on_malformed="skip_record",
        segment_cache_dir=str(tmp_path / "cache"),
    )
    list(source.scan_collection("/c", PATH))
    direct = SegmentCache(str(tmp_path / "direct"))
    for p, texts in enumerate(PARTITIONS):
        for i, text in enumerate(texts):
            if kind == "disk":
                source_id = source.files("/c", p)[i]
                fingerprint = file_fingerprint(source_id)
            else:
                source_id = f"/c[partition {p}] text {i}"
                fingerprint = text_fingerprint(text)
            assert direct.store(
                source_id, fingerprint, canonical_projection(PATH),
                "skip_record", [], [], {}, [],
            )
    written = sorted(os.listdir(tmp_path / "cache"))
    assert len(written) == 3
    assert written == sorted(os.listdir(tmp_path / "direct"))


BOM = "\ufeff"
BOM_QUERY = 'for $r in collection("/c") return $r("a")'


class TestByteOrderMark:
    """A BOM-prefixed unit answers the same under the rewritten plan (the
    scanners) and the un-rewritten one (``read_collection``)."""

    def answers(self, source, query=BOM_QUERY):
        out = []
        for rewrite in (RewriteConfig.all(), RewriteConfig.none()):
            with JsonProcessor(source, rewrite=rewrite) as processor:
                result = processor.execute(query)
            out.append((result.items, repr(result.degradation)))
        return out

    @pytest.mark.parametrize("policy", ON_MALFORMED_POLICIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_both_plans_read_past_the_mark(self, tmp_path, kind, policy):
        source = build(
            kind, tmp_path, [[BOM + '{"a": 1}\n{"a": 2}\n']], on_malformed=policy
        )
        rewritten, unrewritten = self.answers(source)
        assert rewritten == unrewritten
        assert rewritten[0] == [1, 2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_offsets_stay_aligned_behind_the_mark(self, tmp_path, kind):
        source = build(
            kind, tmp_path, [[BOM + '{"a": 1}\n{"a": oops}\n{"a": 2}\n']],
            on_malformed="skip_record",
        )
        rewritten, unrewritten = self.answers(source)
        assert rewritten == unrewritten
        assert rewritten[0] == [1, 2]
        assert "offset" in rewritten[1]

    def test_read_document(self, tmp_path):
        text = BOM + '{"a": [1, 2]}'
        document = tmp_path / "d.json"
        document.write_text(text, encoding="utf-8")
        disk = CollectionCatalog()
        memory = InMemorySource(documents={str(document): text})
        query = f'json-doc("{document}")("a")()'
        for source in (disk, memory):
            assert source.read_document(str(document)) == {"a": [1, 2]}
            rewritten, unrewritten = self.answers(source, query)
            assert rewritten == unrewritten
            assert rewritten[0] == [1, 2]


def nested(depth):
    return "[" * depth + "]" * depth


PLANS = (("un-rewritten", RewriteConfig.none()), ("all rules", RewriteConfig.all()))


class TestBothPlansReadAlike:
    """The un-rewritten plan (``read_collection``) and DATASCAN decode
    with the same scanner, so they accept the same records and reject
    the others with the same error: below, around and far past the
    nesting limit, and on every malformed text ``parse`` rejects."""

    QUERY = 'for $r in collection("/c") return $r'

    def outcome(self, source, rewrite):
        # Sequential: pickling a deep answer across processes is its
        # own limit, not the plans'.
        with JsonProcessor(source, rewrite=rewrite, backend="sequential") as p:
            try:
                return "items", p.execute(self.QUERY).items
            except ReproError as raised:
                error = raised
        while not isinstance(error, FileScanError):
            error = error.__cause__
        cause = error.__cause__
        return type(cause).__name__, str(cause)

    @pytest.mark.parametrize(
        "text",
        [pytest.param(nested(d), id=f"nested-{d}") for d in (500, 1500, 5000)]
        + INVALID_INPUTS,
    )
    def test_same_items_or_same_error(self, tmp_path, text):
        seen = {}
        for kind in KINDS:
            for scan_mode in SCAN_MODES:
                source = build(
                    kind, tmp_path / f"{kind}-{scan_mode}", [[text]],
                    scan_mode=scan_mode,
                )
                for plan, rewrite in PLANS:
                    seen[kind, scan_mode, plan] = self.outcome(source, rewrite)
        assert len(set(map(repr, seen.values()))) == 1, seen
        answered = seen["disk", "text", "un-rewritten"][0] == "items"
        assert answered == (text == nested(500))
