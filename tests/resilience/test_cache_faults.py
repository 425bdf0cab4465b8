"""Cache I/O fault injection end to end: ``fail_cache_io`` through the
processor, disk-full degradation to cache-off, and corrupt-segment
detection surfacing as structured degradation events.
"""

import json
import os
import pickle

import pytest

from repro import CollectionCatalog, FaultPlan, InMemorySource, JsonProcessor
from repro.resilience.report import CacheEvent, DegradationReport

PARTITIONS = 3
RECORDS = 40
QUERY = 'for $r in collection("/events") return $r("v")'


def make_source(segment_cache_dir=None):
    collections = {
        "/events": [
            [
                "\n".join(
                    json.dumps({"v": p * 1000 + i}) for i in range(RECORDS)
                )
            ]
            for p in range(PARTITIONS)
        ]
    }
    return InMemorySource(collections, segment_cache_dir=segment_cache_dir)


def expected_items():
    return [p * 1000 + i for p in range(PARTITIONS) for i in range(RECORDS)]


class TestFaultPlanCacheIO:
    def test_injected_error_is_enospc_oserror(self):
        plan = FaultPlan().fail_cache_io(permanent=True)
        with pytest.raises(OSError) as excinfo:
            plan.cache_io_attempt("store")
        assert excinfo.value.errno == 28  # ENOSPC — the full-disk shape

    def test_operation_scoping(self):
        plan = FaultPlan().fail_cache_io(permanent=True, operation="load")
        plan.cache_io_attempt("store")  # stores pass through
        with pytest.raises(OSError):
            plan.cache_io_attempt("load")

    def test_transient_fault_clears_and_reset_rewinds(self):
        plan = FaultPlan().fail_cache_io(times=2)
        for _ in range(2):
            with pytest.raises(OSError):
                plan.cache_io_attempt()
        plan.cache_io_attempt()  # third attempt clean
        plan.reset()
        with pytest.raises(OSError):
            plan.cache_io_attempt()

    def test_operation_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().fail_cache_io(operation="delete")

    def test_wrap_hooks_segment_cache(self, tmp_path):
        source = make_source(str(tmp_path))
        plan = FaultPlan().fail_cache_io(permanent=True)
        wrapped = plan.wrap(source)
        assert wrapped.segment_cache.fault_hook == plan.cache_io_attempt

    def test_hook_pickles_with_the_cache(self, tmp_path):
        source = make_source(str(tmp_path))
        plan = FaultPlan().fail_cache_io(permanent=True)
        wrapped = plan.wrap(source)
        clone = pickle.loads(pickle.dumps(wrapped.segment_cache))
        with pytest.raises(OSError):
            clone.fault_hook("store")


class TestDiskFullDegradesToCacheOff:
    def run_query(self, tmp_path, plan=None, backend=None):
        source = make_source(str(tmp_path))
        processor = JsonProcessor(
            source=source if plan is None else plan.wrap(source),
            backend=backend,
        )
        try:
            return processor.execute(QUERY)
        finally:
            processor.close()

    def test_results_identical_with_cache_dead(self, tmp_path):
        baseline = self.run_query(tmp_path / "healthy")
        assert baseline.items == expected_items()

        plan = FaultPlan().fail_cache_io(permanent=True)
        degraded = self.run_query(tmp_path / "dead", plan=plan)
        assert degraded.items == baseline.items
        # Nothing was dropped: cache death degrades performance, never
        # results.
        assert not degraded.is_partial
        assert degraded.degradation.is_degraded
        # "disabled" needs one cache object to see every failure; the
        # process backend's per-worker caches only ever report io-error.
        kinds = {event.kind for event in degraded.degradation.cache_events}
        assert "io-error" in kinds
        assert kinds <= {"io-error", "disabled"}
        # The dead cache never published a segment.
        dead_dir = tmp_path / "dead"
        assert not os.path.isdir(dead_dir) or not any(
            name.endswith(".seg") for name in os.listdir(dead_dir)
        )

    def test_one_cache_seeing_every_failure_reports_disabled(self, tmp_path):
        plan = FaultPlan().fail_cache_io(permanent=True)
        degraded = self.run_query(tmp_path, plan=plan, backend="sequential")
        assert degraded.items == expected_items()
        kinds = {event.kind for event in degraded.degradation.cache_events}
        assert kinds == {"io-error", "disabled"}

    def test_degradation_report_is_deterministic(self, tmp_path):
        reports = []
        for run in ("a", "b"):
            result = self.run_query(
                tmp_path / run,
                plan=FaultPlan().fail_cache_io(permanent=True),
            )
            reports.append(
                json.dumps(result.degradation.to_dict(), sort_keys=True)
            )
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["cache_events"], "cache events must be serialized"
        for event in payload["cache_events"]:
            assert set(event) == {"kind", "source", "message"}


class TestWrappingLeavesTheCatalogAlone:
    """A fault plan's cache hook, and the cache-off state it drives, stay
    with the processor that wraps the catalog: a fault-free processor
    built on the same catalog afterwards caches as if none had been."""

    def catalog(self, tmp_path, cache_name):
        data = tmp_path / "data" / "events" / "partition0"
        if not data.is_dir():
            data.mkdir(parents=True)
            (data / "a.json").write_text(
                "\n".join(json.dumps({"v": i}) for i in range(RECORDS)),
                encoding="utf-8",
            )
        return CollectionCatalog(
            str(tmp_path / "data"), segment_cache_dir=str(tmp_path / cache_name)
        )

    @staticmethod
    def segments(directory):
        if not os.path.isdir(directory):
            return []
        return sorted(
            name for name in os.listdir(directory) if name.endswith(".seg")
        )

    def execute(self, catalog, plan=None):
        processor = JsonProcessor(catalog if plan is None else plan.wrap(catalog))
        try:
            return processor.execute(QUERY).items
        finally:
            processor.close()

    def test_a_clean_processor_after_a_faulted_one_stores(self, tmp_path):
        control = self.catalog(tmp_path, "control")
        assert self.execute(control) == list(range(RECORDS))

        catalog = self.catalog(tmp_path, "cache")
        plan = FaultPlan().fail_cache_io(times=1000, operation="store")
        assert self.execute(catalog, plan) == list(range(RECORDS))
        assert self.segments(tmp_path / "cache") == []  # every store failed
        assert catalog.segment_cache.fault_hook is None
        assert catalog.segment_cache.disabled_reason is None

        assert self.execute(catalog) == list(range(RECORDS))
        assert len(self.segments(tmp_path / "cache")) == 1
        assert self.segments(tmp_path / "cache") == self.segments(
            tmp_path / "control"
        )


class TestCorruptSegmentsDetected:
    def test_bit_flipped_segments_rescan_with_event(self, tmp_path):
        cache_dir = tmp_path / "cache"
        primer = JsonProcessor(source=make_source(str(cache_dir)))
        try:
            warm = primer.execute(QUERY)
        finally:
            primer.close()
        assert warm.items == expected_items()
        segments = [
            name for name in os.listdir(cache_dir) if name.endswith(".seg")
        ]
        assert segments, "priming must have stored segments"
        for name in segments:
            path = cache_dir / name
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF
            path.write_bytes(bytes(raw))

        reader = JsonProcessor(source=make_source(str(cache_dir)))
        try:
            result = reader.execute(QUERY)
        finally:
            reader.close()
        assert result.items == expected_items()
        assert not result.is_partial
        corrupt = [
            event
            for event in result.degradation.cache_events
            if event.kind == "corrupt"
        ]
        assert len(corrupt) == PARTITIONS
        assert result.degradation.is_degraded
        # The damaged files were deleted and rewritten by the rescan.
        for name in os.listdir(cache_dir):
            assert not name.endswith(".tmp")


class TestCacheEventPlumbing:
    def test_events_dedup_and_absorb(self):
        report = DegradationReport()
        report.record_cache_event("corrupt", "/s[partition 0]", "bad crc")
        report.record_cache_event("corrupt", "/s[partition 0]", "bad crc")
        report.record_cache_event("io-error", "/s[partition 0]", "EIO")
        assert len(report.cache_events) == 2

        other = DegradationReport()
        other.record_cache_event("corrupt", "/s[partition 0]", "bad crc")
        other.record_cache_event("disabled", "/s[partition 1]", "cache off")
        report.absorb(other)
        assert len(report.cache_events) == 3
        assert report.is_degraded
        assert any("segment cache" in warning for warning in report.warnings)

    def test_cache_event_picklable(self):
        event = CacheEvent(kind="corrupt", source="/s[partition 0]", message="m")
        assert pickle.loads(pickle.dumps(event)) == event
