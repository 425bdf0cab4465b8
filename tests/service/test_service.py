"""QueryService end-to-end: concurrency, caches, cancellation, lifecycle."""

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.catalog import CollectionCatalog
from repro.errors import AdmissionError, QueryCancelledError, ReproError
from repro.processor import JsonProcessor
from repro.resilience.faults import FaultPlan
from repro.service import QueryService, TenantQuota

from tests.service.conftest import (
    COUNT_QUERY,
    FILTER_QUERY,
    GROUP_QUERY,
    GatedSource,
    make_rows,
    make_source,
)

QUERIES = [COUNT_QUERY, FILTER_QUERY, GROUP_QUERY]


def references(source):
    with JsonProcessor(source, backend="sequential") as processor:
        return {query: processor.evaluate(query) for query in QUERIES}


class TestConcurrentEquivalence:
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_threads_byte_identical_to_one_shot(self, backend):
        source = make_source(records_per_partition=40)
        expected = references(source)
        tenants = [f"t{i}" for i in range(4)]
        with QueryService(
            source,
            backend=backend,
            max_concurrent_queries=2,
            max_workers=2,
            max_queue_depth=64,
            default_quota=TenantQuota(max_concurrent=2, max_queued=16),
        ) as service:

            def run_tenant(tenant):
                rows = []
                for _ in range(2):
                    for query in QUERIES:
                        rows.append(
                            (query, service.execute(query, tenant=tenant))
                        )
                return rows

            with ThreadPoolExecutor(max_workers=len(tenants)) as pool:
                for rows in pool.map(run_tenant, tenants):
                    for query, response in rows:
                        assert response.items == expected[query]
                        assert response.backend == backend
            stats = service.stats()
            assert stats["completed"] == len(tenants) * len(QUERIES) * 2
            assert stats["failed"] == 0

    def test_rejects_backend_instances(self):
        from repro.hyracks.backends import SequentialBackend

        with pytest.raises(ValueError):
            QueryService(make_source(5), backend=SequentialBackend())

    def test_query_errors_route_to_the_ticket(self):
        with QueryService(make_source(5), backend="sequential") as service:
            with pytest.raises(ReproError):
                service.execute('count(collection("/missing")())')
            # the worker survives the failure and serves the next query
            assert service.execute(COUNT_QUERY).items == [10]
            assert service.stats()["failed"] == 1


class TestStatsContract:
    """The ``stats()`` shape that ``tools/serve.py`` sends on its
    ``stats`` op and ``perfbench`` reads: keys, event fields in order,
    and the cache fields."""

    CACHE_FIELDS = ["capacity", "entries", "hits", "misses", "evictions"]

    def test_keys_event_fields_and_cache_fields(self):
        with QueryService(
            make_source(5),
            backend="sequential",
            max_concurrent_queries=1,
            result_cache_size=4,
        ) as service:
            service.inject_slot_failure(0)
            assert service.execute(COUNT_QUERY).retries == 1
            stats = service.stats()
        assert list(stats) == [
            "submitted",
            "completed",
            "failed",
            "cancelled",
            "rejected",
            "retried",
            "slot_restarts_total",
            "rejected_by_reason",
            "queued",
            "running",
            "slot_restarts",
            "query_retries",
            "slots",
            "plan_cache",
            "result_cache",
        ]
        (restart,) = stats["slot_restarts"]
        assert list(restart) == [
            "slot", "kind", "restarts", "message", "request_id",
        ]
        assert restart["kind"] == "worker-death"
        (retry,) = stats["query_retries"]
        assert list(retry) == [
            "request_id", "tenant", "attempt", "slot", "error", "message",
        ]
        assert retry["error"] == "SlotFailureError"
        assert list(stats["slots"]) == ["total", "live", "abandoned"]
        assert list(stats["plan_cache"]) == self.CACHE_FIELDS
        assert list(stats["result_cache"]) == self.CACHE_FIELDS
        assert (stats["retried"], stats["rejected"]) == (1, 0)
        assert stats["slot_restarts_total"] == 1
        json.dumps(stats)  # the serve tool's protocol line

    def test_without_a_result_cache(self):
        with QueryService(make_source(5), backend="sequential") as service:
            assert service.stats()["result_cache"] is None


class TestPlanCache:
    def test_warm_hits_across_tenants(self):
        with QueryService(make_source(5), backend="sequential") as service:
            cold = service.execute(COUNT_QUERY, tenant="a")
            warm = service.execute(COUNT_QUERY, tenant="b")
            assert not cold.plan_cache_hit
            assert warm.plan_cache_hit
            assert warm.items == cold.items
            stats = service.stats()["plan_cache"]
            assert stats["hits"] == 1
            assert stats["misses"] == 1


class TestResultCache:
    def make_base(self, tmp_path, rows):
        directory = tmp_path / "data" / "s"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "part.json").write_text(
            json.dumps({"root": [{"results": rows}]})
        )
        return str(tmp_path / "data")

    def test_hit_and_content_invalidation(self, tmp_path):
        base = self.make_base(tmp_path, make_rows(20))
        catalog = CollectionCatalog(base)
        with QueryService(
            catalog, backend="sequential", result_cache_size=8
        ) as service:
            first = service.execute(COUNT_QUERY)
            second = service.execute(COUNT_QUERY)
            assert not first.result_cache_hit
            assert second.result_cache_hit
            assert second.items == first.items == [20]
            # an in-place rewrite (same file, new bytes) invalidates
            path = os.path.join(base, "s", "part.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"root": [{"results": make_rows(21)}]}))
            third = service.execute(COUNT_QUERY)
            assert not third.result_cache_hit
            assert third.items == [21]

    def test_profiled_requests_bypass_the_cache(self, tmp_path):
        base = self.make_base(tmp_path, make_rows(10))
        with QueryService(
            CollectionCatalog(base), backend="sequential", result_cache_size=8
        ) as service:
            service.execute(COUNT_QUERY)
            profiled = service.execute(COUNT_QUERY, profile="counter")
            assert not profiled.result_cache_hit
            assert profiled.profile is not None
            # and a profiled run never populates the cache either
            assert service.stats()["result_cache"]["entries"] == 1

    def test_disabled_by_default(self):
        with QueryService(make_source(5), backend="sequential") as service:
            service.execute(COUNT_QUERY)
            response = service.execute(COUNT_QUERY)
            assert not response.result_cache_hit
            assert service.stats()["result_cache"] is None


class TestSegmentCacheFingerprints:
    """The service fingerprints segments by content, through its own copy
    of the source's segment cache."""

    def test_a_same_size_rewrite_is_seen(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENT_CACHE", str(tmp_path / "segments"))
        # A filesystem whose timestamps do not move within one tick: the
        # stat fingerprint sees size, mtime and inode only.
        import repro.data.catalog as catalog_module

        stat_fingerprint = catalog_module.file_fingerprint
        monkeypatch.setattr(
            catalog_module,
            "file_fingerprint",
            lambda path: tuple(
                part for i, part in enumerate(stat_fingerprint(path)) if i != 3
            ),
        )
        base = TestResultCache().make_base(tmp_path, make_rows(20))
        path = os.path.join(base, "s", "part.json")
        catalog = CollectionCatalog(base)
        with QueryService(catalog, backend="sequential") as service:
            assert catalog.segment_cache.fingerprint_mode == "stat"
            first = service.execute(FILTER_QUERY)
            before = os.stat(path)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text.replace("TMIN", "TMAX"))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            second = service.execute(FILTER_QUERY)
        assert first.items and second.items == []


def segment_files(directory) -> list:
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory) if name.endswith(".seg"))


class TestTheSourceStaysAsBuilt:
    """A processor or a service reads the source it is handed as that
    source was built: its scan mode, its segment cache object and that
    cache's ``stat`` fingerprints stay, so a processor built on it
    earlier stores the segments a control catalog stores, where its own
    cache says."""

    @pytest.mark.parametrize("wrapped", [False, True], ids=["catalog", "fault-wrapped"])
    def test_neither_a_processor_nor_a_service_rewires_it(self, tmp_path, wrapped):
        base = TestResultCache().make_base(tmp_path, make_rows(20))
        cache_dir = tmp_path / "segments"
        catalog = CollectionCatalog(
            base, scan_mode="text", segment_cache_dir=str(cache_dir)
        )
        source = FaultPlan().wrap(catalog) if wrapped else catalog
        cache = source.segment_cache
        earlier = JsonProcessor(source, backend="sequential")
        with JsonProcessor(source, backend="sequential") as processor:
            expected = processor.evaluate(FILTER_QUERY)
        with QueryService(source, backend="sequential") as service:
            assert service.execute(FILTER_QUERY).items == expected
        for held in (catalog, source):
            assert held.segment_cache.fingerprint_mode == "stat"
        assert catalog.scan_mode == "text"
        assert source.segment_cache is cache

        control_dir = tmp_path / "control"
        control = CollectionCatalog(
            base, scan_mode="text", segment_cache_dir=str(control_dir)
        )
        with JsonProcessor(control, backend="sequential") as processor:
            assert processor.evaluate(FILTER_QUERY) == expected
        for name in segment_files(cache_dir):
            os.unlink(cache_dir / name)
        with earlier:
            assert earlier.evaluate(FILTER_QUERY) == expected
        assert segment_files(cache_dir) == segment_files(control_dir)
        assert len(segment_files(control_dir)) == 1


class TestCancellation:
    def gated(self, **kwargs):
        source = GatedSource(
            collections={
                "/s": [
                    [
                        json.dumps(
                            {"root": [{"results": make_rows(600)}]}
                        )
                    ]
                ]
            }
        )
        service = QueryService(
            source, backend="sequential", max_concurrent_queries=1, **kwargs
        )
        return source, service

    def test_cancel_queued_request_never_executes(self):
        source, service = self.gated(
            default_quota=TenantQuota(max_concurrent=1, max_queued=4)
        )
        try:
            running = service.submit(COUNT_QUERY)
            source.wait_entered()
            queued = service.submit(COUNT_QUERY)
            assert queued.cancel("client went away")
            with pytest.raises(QueryCancelledError) as exc_info:
                queued.result(5)
            assert "client went away" in str(exc_info.value)
            source.release()
            assert running.result(30).items == [600]
            stats = service.stats()
            assert stats["cancelled"] == 1
            assert stats["completed"] == 1
        finally:
            source.release()
            service.close()

    def test_cancel_running_request_unwinds(self):
        source, service = self.gated()
        try:
            running = service.submit(COUNT_QUERY)
            source.wait_entered()
            assert running.cancel("operator abort")
            source.release()
            with pytest.raises(QueryCancelledError):
                running.result(30)
            assert service.stats()["cancelled"] == 1
        finally:
            source.release()
            service.close()

    def test_cancel_after_completion_returns_false(self):
        with QueryService(make_source(5), backend="sequential") as service:
            ticket = service.submit(COUNT_QUERY)
            ticket.result(30)
            assert not ticket.cancel()


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_after(self):
        service = QueryService(make_source(5), backend="sequential")
        assert service.execute(COUNT_QUERY).items == [10]
        service.close()
        service.close()  # no-op
        with pytest.raises(AdmissionError):
            service.submit(COUNT_QUERY)

    def test_close_cancel_pending_unblocks_queued_requests(self):
        source = GatedSource(
            collections={"/s": [['{"root": [{"results": [{"v": 1}]}]}']]}
        )
        service = QueryService(
            source,
            backend="sequential",
            max_concurrent_queries=1,
            default_quota=TenantQuota(max_concurrent=1, max_queued=4),
        )
        running = service.submit(COUNT_QUERY)
        source.wait_entered()
        queued = service.submit(COUNT_QUERY)
        closer = threading.Thread(
            target=service.close, kwargs={"cancel_pending": True}
        )
        closer.start()
        with pytest.raises(QueryCancelledError):
            queued.result(10)
        source.release()
        closer.join(30)
        assert not closer.is_alive()
        # the running query either finished or was cancelled — but the
        # ticket resolved and the service is down either way
        assert running.done()

    def test_drain_waits_for_in_flight_queries(self):
        with QueryService(
            make_source(40), backend="sequential", max_concurrent_queries=2
        ) as service:
            tickets = [service.submit(GROUP_QUERY) for _ in range(4)]
            assert service.drain(timeout=30)
            assert all(ticket.done() for ticket in tickets)

    def test_response_telemetry_fields(self):
        with QueryService(make_source(5), backend="sequential") as service:
            response = service.execute(COUNT_QUERY, tenant="alice")
            assert response.tenant == "alice"
            assert response.query == COUNT_QUERY
            assert response.request_id == 1
            assert response.wall_seconds >= 0
            assert response.queue_seconds >= 0
            assert response.strategy
            assert response.degradation is not None
            assert not response.is_partial
