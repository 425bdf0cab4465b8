"""Cached scans: byte-identical accounting, invalidation, and replay.

The segment cache's contract is that turning it on (or hitting it warm)
changes *nothing observable* except speed and the ``cache_hits`` /
``cache_misses`` diagnostics: items, projection hit/skip counters,
degradation events, and errors — including mid-scan failures and
retried partitions — are identical with the uncached scan.
"""

import json

import pytest

from repro.cache.config import SCAN_MODES
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.errors import FileScanError
from repro.jsonlib.path import parse_path
from repro.jsonlib.textscan import ScanCounters
from repro.processor import JsonProcessor
from repro.resilience import ResilienceConfig
from repro.resilience.faults import FaultPlan
from repro.resilience.report import DegradationReport

DOC = (
    '{"root": [{"results": ['
    '{"v": 1.5, "n": 1}, {"v": 2.5, "n": 2}, {"v": 3.5, "n": 3}'
    ']}], "noise": {"deep": [1, 2]}}'
)
PATH = parse_path('("root")()("results")()')
Q0 = (
    'for $r in collection("/sensors")("root")()("results")() '
    'where $r("n") ge 2 return $r("v")'
)


@pytest.fixture(autouse=True)
def _pinned_scan_env(monkeypatch):
    # Every test here builds its own scan/cache configuration and asserts
    # against an explicitly cache-off baseline; the CI leg that runs the
    # suite under REPRO_SEGMENT_CACHE must not leak into those baselines.
    monkeypatch.delenv("REPRO_SEGMENT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SCAN_MODE", raising=False)


def disk_catalog(tmp_path, text=DOC, **kwargs):
    data = tmp_path / "data.json"
    data.write_text(text, encoding="utf-8")
    catalog = CollectionCatalog(**kwargs)
    catalog.register("/sensors", [[str(data)]])
    return catalog, data


def counted_scan(catalog, expect_error=None):
    counters = ScanCounters()
    catalog.attach_scan_counters(counters)
    try:
        if expect_error is None:
            items = list(catalog.scan_collection("/sensors", PATH))
        else:
            with pytest.raises(expect_error):
                list(catalog.scan_collection("/sensors", PATH))
            items = None
    finally:
        catalog.attach_scan_counters(None)
    return items, counters


class TestWarmHits:
    def test_items_identical_and_counters_replayed(self, tmp_path):
        plain, _ = disk_catalog(tmp_path)
        cached, _ = disk_catalog(
            tmp_path, segment_cache_dir=str(tmp_path / "cache")
        )
        baseline_items, baseline = counted_scan(plain)
        cold_items, cold = counted_scan(cached)
        warm_items, warm = counted_scan(cached)
        assert cold_items == warm_items == baseline_items
        # Projection accounting is byte-identical across cache off /
        # cold / warm; only the cache diagnostics differ.
        for counters in (cold, warm):
            assert counters.matched == baseline.matched
            assert counters.skipped == baseline.skipped
        assert (cold.cache_misses, cold.cache_hits) == (1, 0)
        assert (warm.cache_misses, warm.cache_hits) == (0, 1)
        # A warm hit walks no text at all.
        assert cold.tape_records > 0
        assert warm.tape_records == 0
        assert (baseline.cache_hits, baseline.cache_misses) == (0, 0)

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_every_scan_mode_caches_identically(self, tmp_path, mode):
        plain, _ = disk_catalog(tmp_path, scan_mode=mode)
        cached, _ = disk_catalog(
            tmp_path, scan_mode=mode,
            segment_cache_dir=str(tmp_path / "cache"),
        )
        baseline_items, baseline = counted_scan(plain)
        cold_items, _ = counted_scan(cached)
        warm_items, warm = counted_scan(cached)
        assert cold_items == warm_items == baseline_items
        assert warm.matched == baseline.matched
        assert warm.skipped == baseline.skipped


class TestInvalidation:
    def warm(self, catalog):
        counted_scan(catalog)  # cold populate
        items, counters = counted_scan(catalog)
        assert counters.cache_hits == 1
        return items

    def test_truncate_invalidates(self, tmp_path):
        catalog, data = disk_catalog(
            tmp_path, segment_cache_dir=str(tmp_path / "cache")
        )
        self.warm(catalog)
        data.write_text(
            '{"root": [{"results": [{"v": 9.5, "n": 9}]}]}',
            encoding="utf-8",
        )
        items, counters = counted_scan(catalog)
        assert counters.cache_misses == 1
        assert items == [{"v": 9.5, "n": 9}]

    def test_append_invalidates(self, tmp_path):
        catalog, data = disk_catalog(
            tmp_path, segment_cache_dir=str(tmp_path / "cache")
        )
        stale = self.warm(catalog)
        with open(data, "a", encoding="utf-8") as handle:
            handle.write(' {"root": [{"results": [{"v": 9.5, "n": 9}]}]}')
        items, counters = counted_scan(catalog)
        assert counters.cache_misses == 1
        assert items == stale + [{"v": 9.5, "n": 9}]

    def test_mtime_touch_invalidates(self, tmp_path):
        import os

        catalog, data = disk_catalog(
            tmp_path, segment_cache_dir=str(tmp_path / "cache")
        )
        items = self.warm(catalog)
        stat = os.stat(data)
        os.utime(data, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        rescanned, counters = counted_scan(catalog)
        assert counters.cache_misses == 1  # same bytes, but no stale risk
        assert rescanned == items
        _, again = counted_scan(catalog)
        assert again.cache_hits == 1  # the new fingerprint was stored

    def test_in_memory_content_hash_has_no_staleness_window(self, tmp_path):
        source = InMemorySource(
            collections={"/sensors": [[DOC]]},
            segment_cache_dir=str(tmp_path / "cache"),
        )
        source.attach_scan_counters(counters := ScanCounters())
        first = list(source.scan_collection("/sensors", PATH))
        warm = list(source.scan_collection("/sensors", PATH))
        assert warm == first
        assert (counters.cache_misses, counters.cache_hits) == (1, 1)
        edited = DOC.replace("3.5", "9.5")
        source.add_collection("/sensors", [[edited]])
        changed = list(source.scan_collection("/sensors", PATH))
        assert changed != first
        assert counters.cache_misses == 2


class TestDegradationReplay:
    DIRTY = DOC + '\n{"root": [{"results": [}]}\n' + DOC.replace("1.5", "7.5")

    def events(self, catalog):
        report = DegradationReport()
        items = list(catalog.scan_collection("/sensors", PATH, report=report))
        return items, report.skipped_records

    def test_warm_hit_replays_skip_events_byte_identically(self, tmp_path):
        plain, _ = disk_catalog(
            tmp_path, text=self.DIRTY, on_malformed="skip_record"
        )
        cached, _ = disk_catalog(
            tmp_path, text=self.DIRTY, on_malformed="skip_record",
            segment_cache_dir=str(tmp_path / "cache"),
        )
        baseline_items, baseline_events = self.events(plain)
        cold_items, cold_events = self.events(cached)
        warm_items, warm_events = self.events(cached)
        assert baseline_events  # the malformed record was really skipped
        assert cold_items == warm_items == baseline_items
        assert repr(cold_events) == repr(baseline_events)
        assert repr(warm_events) == repr(baseline_events)

    def test_policies_never_share_segments(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        skip, _ = disk_catalog(
            tmp_path, text=self.DIRTY, on_malformed="skip_record",
            segment_cache_dir=cache_dir,
        )
        items, counters = counted_scan(skip)
        assert counters.cache_misses == 1
        strict, _ = disk_catalog(
            tmp_path, text=self.DIRTY, segment_cache_dir=cache_dir
        )
        # Same bytes, same projection — but the fail policy must not
        # serve the skip_record segment: it has to raise.
        _, strict_counters = counted_scan(strict, expect_error=FileScanError)
        assert strict_counters.cache_hits == 0


class TestFailureParity:
    BROKEN = DOC + '\n{"root": [{"results": ['  # truncated tail record

    def test_mid_scan_failure_merges_partial_counters(self, tmp_path):
        plain, _ = disk_catalog(tmp_path, text=self.BROKEN)
        cached, _ = disk_catalog(
            tmp_path, text=self.BROKEN,
            segment_cache_dir=str(tmp_path / "cache"),
        )
        _, baseline = counted_scan(plain, expect_error=FileScanError)
        _, cold = counted_scan(cached, expect_error=FileScanError)
        assert cold.matched == baseline.matched
        assert cold.skipped == baseline.skipped
        # A failed scan must not be stored: the next attempt is another
        # miss with the same partial counters, not a bogus hit.
        _, again = counted_scan(cached, expect_error=FileScanError)
        assert again.cache_misses == 1
        assert again.cache_hits == 0
        assert again.matched == baseline.matched

    def test_skipped_file_not_stored(self, tmp_path):
        plain, _ = disk_catalog(
            tmp_path, text=self.BROKEN, on_malformed="skip_file"
        )
        cached, _ = disk_catalog(
            tmp_path, text=self.BROKEN, on_malformed="skip_file",
            segment_cache_dir=str(tmp_path / "cache"),
        )
        baseline_items, baseline = counted_scan(plain)
        cold_items, _ = counted_scan(cached)
        again_items, again = counted_scan(cached)
        assert baseline_items == cold_items == again_items == []
        assert again.cache_hits == 0
        assert again.cache_misses == 1
        assert again.matched == baseline.matched
        assert again.skipped == baseline.skipped


class TestProcessorIntegration:
    def processors(self, tmp_path, **kwargs):
        base = tmp_path / "data" / "sensors" / "partition0"
        if not base.exists():
            base.mkdir(parents=True)
            for i in range(2):
                (base / f"f{i}.json").write_text(
                    DOC.replace('"n": 1', f'"n": {i + 10}'), encoding="utf-8"
                )
        return JsonProcessor.from_directory(str(tmp_path / "data"), **kwargs)

    def test_projection_counters_identical_across_cache_states(
        self, tmp_path
    ):
        def datascan_counters(processor):
            with processor as p:
                p.execute(Q0)  # cold populate when cached
                (scan,) = p.profile(Q0).find("DATASCAN")
            return scan.counters

        plain = datascan_counters(self.processors(tmp_path))
        warm = datascan_counters(
            self.processors(
                tmp_path, segment_cache_dir=str(tmp_path / "cache")
            )
        )
        for key in ("projection_hits", "projection_skips", "items_scanned",
                    "tuples_out"):
            assert warm.get(key, 0) == plain.get(key, 0), key
        assert warm["cache_hits"] == 2  # both files served warm
        assert "cache_hits" not in plain

    def test_warm_profiles_byte_identical_across_backends(self, tmp_path):
        blobs = {}
        for backend in ("sequential", "process"):
            cache_dir = str(tmp_path / f"cache-{backend}")
            with self.processors(
                tmp_path, backend=backend, segment_cache_dir=cache_dir
            ) as p:
                p.execute(Q0)  # populate this backend's own cache
                blobs[backend] = json.dumps(
                    p.profile(Q0).to_dict(), sort_keys=True
                )
        assert blobs["sequential"] == blobs["process"]

    def test_retried_partition_matches_uncached_run(self, tmp_path):
        self.processors(tmp_path).close()  # lays the data out

        def run(segment_cache_dir=None):
            source = CollectionCatalog(
                str(tmp_path / "data"), segment_cache_dir=segment_cache_dir
            )
            with JsonProcessor(
                source=FaultPlan().fail_partition(0, times=1).wrap(source),
                resilience=ResilienceConfig(max_attempts=3),
            ) as p:
                result = p.execute(Q0)
            return result.items, repr(result.degradation)

        plain_items, plain_degradation = run()
        cached_items, cached_degradation = run(
            segment_cache_dir=str(tmp_path / "cache")
        )
        warm_items, warm_degradation = run(
            segment_cache_dir=str(tmp_path / "cache")
        )
        assert plain_items == cached_items == warm_items
        # The retry is recorded identically whether the rescan was
        # served cold, stored mid-retry, or replayed from a warm hit.
        assert plain_degradation == cached_degradation == warm_degradation
