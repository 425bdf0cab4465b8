"""Self-healing query-service behaviour: slot supervision, query-level
retry and load shedding.

Slot death is injected *in the service layer* (the worker thread raises
after claiming a request), so the same schedule is exercised identically
on the sequential and process backends — the determinism the
cross-backend parametrisation below pins down.  Shedding tests run on
clocks from the injectable ``CLOCKS`` registry, so no assertion depends
on wall time.
"""

import itertools
import json
import pickle
import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    BackendError,
    QueryCancelledError,
    QueryTimeoutError,
    RecoveryExhaustedError,
    SlotFailureError,
    is_retryable,
)
from repro.observability.clock import CLOCKS
from repro.service import QueryService, TenantQuota
from repro.service import service as service_module
from repro.service.events import QueryRetryEvent, SlotRestartEvent

from tests.service.conftest import (
    COUNT_QUERY,
    FILTER_QUERY,
    GROUP_QUERY,
    GatedSource,
    close_within,
    make_rows,
    make_source,
)

BACKENDS = ["sequential", "process"]


def make_gated():
    return GatedSource(
        collections={
            "/s": [[json.dumps({"root": [{"results": make_rows(120)}]})]]
        }
    )


# -- retryability classification ----------------------------------------------


def test_retryable_classification_walks_cause_chain():
    exhausted = RecoveryExhaustedError((1,), (3,), "process")
    assert is_retryable(exhausted)
    assert is_retryable(SlotFailureError(0, "died"))
    wrapped = BackendError("boom", cause=SlotFailureError(1))
    assert is_retryable(wrapped)
    assert not is_retryable(QueryCancelledError("client cancel"))
    assert not is_retryable(QueryTimeoutError(1.0, 2.0))
    assert not is_retryable(ValueError("not classified"))
    # Terminal classifications win even with a retryable cause below.
    timeout = QueryTimeoutError(1.0, 2.0)
    timeout.__cause__ = SlotFailureError(0)
    assert not is_retryable(timeout)


def test_selfhealing_errors_and_events_pickle_round_trip():
    for original in (SlotFailureError(2, "injected slot death"),):
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is type(original)
        assert str(clone) == str(original)
        assert is_retryable(clone)
    for event in (
        SlotRestartEvent(slot=1, kind="worker-death", restarts=2, message="m"),
        QueryRetryEvent(
            request_id=7, tenant="t", attempt=1, slot=0, error="E", message="m"
        ),
    ):
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert clone.to_dict() == event.to_dict()


# -- slot supervision + query retry -------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_slot_death_recovers_with_identical_results(backend):
    """An injected slot death is invisible to the client apart from the
    structured retry provenance: items match an undisturbed run exactly,
    the slot is restarted within budget, and ``stats()`` records both
    the restart and the retry.  One slot makes the schedule exact: every
    query lands on slot 0, and each injected death kills exactly one
    claimed request."""
    queries = (COUNT_QUERY, GROUP_QUERY, FILTER_QUERY)
    with QueryService(
        make_source(), backend=backend, max_concurrent_queries=1
    ) as baseline:
        expected = [baseline.execute(query).items for query in queries]

    with QueryService(
        make_source(), backend=backend, max_concurrent_queries=1
    ) as service:
        responses = []
        for index, query in enumerate(queries):
            if index < 2:
                service.inject_slot_failure(0)
            responses.append(service.execute(query))
        stats = service.stats()

    assert [r.items for r in responses] == expected
    assert [r.retries for r in responses] == [1, 1, 0]
    for response in responses[:2]:
        assert len(response.retry_causes) == 1
        assert "SlotFailureError" in response.retry_causes[0]
    assert stats["retried"] == 2
    deaths = [e for e in stats["slot_restarts"] if e["kind"] == "worker-death"]
    assert len(deaths) == 2
    assert all(e["slot"] == 0 for e in deaths)
    assert all(e["request_id"] is not None for e in deaths)
    assert [e["attempt"] for e in stats["query_retries"]] == [1, 1]
    assert stats["slots"] == {"total": 1, "live": 1, "abandoned": 0}
    assert stats["completed"] == 3 and stats["failed"] == 0


def test_slot_death_retries_on_sibling_slot():
    """With two slots and a death queued on each, one request walks the
    whole gauntlet: the retry prefers the sibling (which also dies)
    before a respawned slot finally serves it — two retries, two
    restarts, correct answer."""
    with QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=2,
        max_query_retries=2,
    ) as service:
        service.inject_slot_failure(0)
        service.inject_slot_failure(1)
        response = service.execute(COUNT_QUERY)
        stats = service.stats()
    assert response.items == [120]
    assert response.retries == 2
    assert stats["retried"] == 2
    assert {e["slot"] for e in stats["slot_restarts"]} == {0, 1}
    assert stats["slots"] == {"total": 2, "live": 2, "abandoned": 0}


def test_slot_abandoned_when_restart_budget_spent():
    """With a zero restart budget a dying slot stays down: the in-flight
    request fails with a picklable SlotFailureError, and once every slot
    is abandoned new submissions are rejected with ``no-slots``."""
    with QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=1,
        max_slot_restarts=0,
    ) as service:
        service.inject_slot_failure(0)
        with pytest.raises(SlotFailureError) as excinfo:
            service.execute(COUNT_QUERY)
        pickle.loads(pickle.dumps(excinfo.value))  # stays picklable
        stats = service.stats()
        assert stats["slots"] == {"total": 1, "live": 0, "abandoned": 1}
        assert [e["kind"] for e in stats["slot_restarts"]] == ["abandoned"]
        with pytest.raises(AdmissionError) as admission:
            service.submit(COUNT_QUERY)
        assert admission.value.reason == "no-slots"
        pickle.loads(pickle.dumps(admission.value))


def test_slot_death_exhausts_retry_budget():
    """One slot, retries allowed, but the retry's slot dies too: the
    request fails after ``max_query_retries`` re-executions with the
    attempt trail in ``stats()``."""
    with QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=1,
        max_query_retries=1,
        max_slot_restarts=8,
    ) as service:
        # Two queued deaths: one for the original attempt, one for the
        # single permitted retry.
        service.inject_slot_failure(0)
        service.inject_slot_failure(0)
        with pytest.raises(SlotFailureError):
            service.execute(COUNT_QUERY)
        stats = service.stats()
        assert stats["retried"] == 1
        assert stats["failed"] == 1
        assert len(stats["slot_restarts"]) == 2
        assert stats["slots"]["live"] == 1  # respawned both times
        # The service still serves after the storm.
        assert service.execute(COUNT_QUERY).items == [120]


def test_retry_disabled_fails_fast():
    with QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=1,
        max_query_retries=0,
    ) as service:
        service.inject_slot_failure(0)
        with pytest.raises(SlotFailureError):
            service.execute(COUNT_QUERY)
        stats = service.stats()
        assert stats["retried"] == 0
        assert stats["query_retries"] == []
        # The slot itself still healed.
        assert stats["slots"]["live"] == 1
        assert service.execute(COUNT_QUERY).items == [120]


def test_event_history_is_bounded_and_totals_are_exact(monkeypatch):
    """``stats()`` keeps the most recent slot and retry events, newest
    last, however many there were; the counters beside them keep the
    exact totals."""
    monkeypatch.setattr(service_module, "_EVENT_HISTORY", 4)
    deaths = 7
    with QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=1,
        max_slot_restarts=deaths,
    ) as service:
        for _ in range(deaths):
            service.inject_slot_failure(0)
            assert service.execute(COUNT_QUERY).retries == 1
        stats = service.stats()
    assert stats["slot_restarts_total"] == deaths
    assert stats["retried"] == deaths
    assert [e["restarts"] for e in stats["slot_restarts"]] == [4, 5, 6, 7]
    retried = [e["request_id"] for e in stats["query_retries"]]
    assert len(retried) == 4
    assert retried == sorted(retried)
    assert retried == [e["request_id"] for e in stats["slot_restarts"]]


def test_invalid_injection_slot_rejected():
    with QueryService(make_source(), backend="sequential") as service:
        with pytest.raises(ValueError):
            service.inject_slot_failure(99)
        with pytest.raises(ValueError):
            service.inject_slot_failure(-1)


# -- close() racing in-flight queries -----------------------------------------


def test_close_waits_for_inflight_query_then_succeeds():
    source = make_gated()
    service = QueryService(
        source, backend="sequential", max_concurrent_queries=1
    )
    ticket = service.submit(COUNT_QUERY)
    source.wait_entered()
    closer = threading.Thread(target=service.close)
    closer.start()
    # close() drains: the running query must still complete normally.
    source.release()
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert ticket.result().items == [120]
    with pytest.raises(AdmissionError):
        service.submit(COUNT_QUERY)


def test_close_cancel_pending_races_running_query():
    source = make_gated()
    service = QueryService(
        source, backend="sequential", max_concurrent_queries=1
    )
    ticket = service.submit(COUNT_QUERY)
    source.wait_entered()
    closer = threading.Thread(
        target=service.close, kwargs={"cancel_pending": True}
    )
    closer.start()
    source.release()
    closer.join(timeout=30)
    assert not closer.is_alive()
    # The gate may release before or after the cancel flag lands; either
    # terminal state is legal, but the ticket must be done and close()
    # must have returned with no worker thread leaked.
    assert ticket.done()
    try:
        assert ticket.result().items == [120]
    except QueryCancelledError:
        pass
    for slot in service._slots:
        assert slot.thread is None or not slot.thread.is_alive()


def test_close_during_slot_respawn_is_clean():
    """Injected death concurrent with close(): no hang, no leaked
    threads, the ticket reaches a terminal state."""
    service = QueryService(
        make_source(), backend="sequential", max_concurrent_queries=2
    )
    service.inject_slot_failure(0)
    service.inject_slot_failure(1)
    ticket = service.submit(COUNT_QUERY)
    service.close()
    assert ticket.done()
    try:
        assert ticket.result().items == [120]
    except SlotFailureError:
        pass  # close won the race before the retry could run
    for slot in service._slots:
        assert slot.thread is None or not slot.thread.is_alive()


def test_respawn_failure_abandons_slot_instead_of_phantom(monkeypatch):
    """If the *respawn* itself fails (backend construction dies under
    the same resource exhaustion that killed the slot), the slot must be
    abandoned — not left counted as live with a dead thread, which would
    strand retried requests forever and keep ``_fail_orphans`` from ever
    firing."""
    service = QueryService(
        make_source(), backend="sequential", max_concurrent_queries=1
    )
    try:
        def broken_resolve(*args, **kwargs):
            raise RuntimeError("fork failed: out of resources")

        monkeypatch.setattr(
            "repro.service.service.resolve_backend", broken_resolve
        )
        service.inject_slot_failure(0)
        ticket = service.submit(COUNT_QUERY)
        with pytest.raises(SlotFailureError):
            ticket.result()
        stats = service.stats()
        assert stats["slots"] == {"total": 1, "live": 0, "abandoned": 1}
        events = stats["slot_restarts"]
        assert [event["kind"] for event in events] == [
            "worker-death",
            "abandoned",
        ]
        assert "respawn failed" in events[-1]["message"]
        assert "fork failed" in events[-1]["message"]
        # No phantom live slot: new submissions are rejected cleanly
        # instead of queueing behind a thread that will never run.
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(COUNT_QUERY)
        assert excinfo.value.reason == "no-slots"
        # The dying worker thread exits once supervision completes (the
        # ticket resolves slightly earlier, so join rather than poll).
        for slot in service._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=10.0)
                assert not slot.thread.is_alive()
    finally:
        service.close()


# -- load shedding -------------------------------------------------------------


def test_predicted_timeout_shedding_is_deterministic():
    """With a seeded duration history and a parked backlog, the
    predicted-wait formula (mean duration × backlog ÷ live slots) sheds
    exactly the submissions whose deadline it exceeds — no wall time
    involved."""
    source = make_gated()
    with QueryService(
        source,
        backend="sequential",
        max_concurrent_queries=1,
        clock="counter",
    ) as service:
        running = service.submit(COUNT_QUERY)
        source.wait_entered()
        queued = service.submit(FILTER_QUERY)
        # Recent history says queries take 10s on this clock.
        with service._lock:
            service._recent_durations.append(10.0)
        # backlog = 1 running + 1 queued over 1 live slot → 20s wait.
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(GROUP_QUERY, deadline_seconds=5.0)
        assert excinfo.value.reason == "predicted-timeout"
        assert excinfo.value.limit == 5.0
        assert excinfo.value.requested == 20.0
        pickle.loads(pickle.dumps(excinfo.value))
        # A deadline beyond the prediction is admitted...
        admitted = service.submit(GROUP_QUERY, deadline_seconds=30.0)
        # ...and no-deadline submissions are never shed.
        unbounded = service.submit(COUNT_QUERY)
        source.release()
        for ticket in (running, queued, admitted, unbounded):
            assert ticket.result().items
        stats = service.stats()
        assert stats["rejected_by_reason"] == {"predicted-timeout": 1}


def test_shedding_uses_tenant_deadline_ceiling():
    source = make_gated()
    quota = TenantQuota(deadline_ceiling_seconds=30.0, max_queued=8)
    with QueryService(
        source,
        backend="sequential",
        max_concurrent_queries=1,
        quotas={"capped": quota},
    ) as service:
        running = service.submit(COUNT_QUERY, tenant="capped")
        source.wait_entered()
        with service._lock:
            service._recent_durations.append(100.0)
        # No explicit deadline, but the tenant ceiling applies: predicted
        # 100 × 1 ÷ 1 = 100s > 30s ceiling.
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(FILTER_QUERY, tenant="capped")
        assert excinfo.value.reason == "predicted-timeout"
        source.release()
        assert running.result().items == [120]


def test_drain_times_out_on_the_service_clock(monkeypatch):
    # Every read of this clock is a minute after the last, so a drain's
    # 30-second deadline has passed at its first check: no real waiting.
    minutes = itertools.count(step=60.0)
    monkeypatch.setitem(CLOCKS, "leaping", lambda: lambda: next(minutes))
    source = make_gated()
    with QueryService(
        source, backend="sequential", max_concurrent_queries=1, clock="leaping"
    ) as service:
        running = service.submit(COUNT_QUERY)
        source.wait_entered()
        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(service.drain(timeout=30))
        )
        drainer.start()
        drainer.join(5)
        returned_in_time = not drainer.is_alive()
        source.release()
        drainer.join(60)
        assert returned_in_time
        assert drained == [False]
        assert running.result().items == [120]


# -- backend replacement ------------------------------------------------------


def test_backend_replaced_after_consecutive_backend_errors(monkeypatch):
    """``BACKEND_FAILURE_THRESHOLD`` (3) consecutive backend errors on a
    slot swap in a fresh backend, once, and the next query answers."""
    from repro.hyracks.backends import SequentialBackend

    left = [3]
    run_units = SequentialBackend.run_units

    def flaky(self, units, events):
        if left[0]:
            left[0] -= 1
            raise BackendError("injected backend failure")
        return run_units(self, units, events)

    monkeypatch.setattr(SequentialBackend, "run_units", flaky)
    with QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=1,
        max_query_retries=0,
    ) as service:
        first = service._slots[0].backend
        for attempt in range(3):
            with pytest.raises(BackendError):
                service.execute(COUNT_QUERY)
            replaced = service._slots[0].backend is not first
            assert replaced == (attempt == 2)
        assert service.execute(COUNT_QUERY).items == [120]
        events = service.stats()["slot_restarts"]
    assert [e["kind"] for e in events] == ["backend-replaced"]
    assert events[0]["slot"] == 0
    assert "3 consecutive backend failures" in events[0]["message"]


@pytest.mark.parametrize("failed_builds", [1, 10])
def test_failed_backend_replacement_still_finishes_the_request(
    monkeypatch, failed_builds
):
    """A backend worn out by ``BACKEND_FAILURE_THRESHOLD`` failures whose
    replacement cannot be built (once, or every time) abandons the slot,
    and the request that wore it out still reaches its ticket: it used
    to stay ``running`` forever, so ``drain`` and ``close`` never
    returned."""
    from repro.hyracks.backends import SequentialBackend

    run_units = SequentialBackend.run_units
    backend_failures = [1]

    def flaky(self, units, events):
        if backend_failures[0]:
            backend_failures[0] -= 1
            raise BackendError("injected backend failure")
        return run_units(self, units, events)

    monkeypatch.setattr(SequentialBackend, "run_units", flaky)
    monkeypatch.setattr(service_module, "BACKEND_FAILURE_THRESHOLD", 1)
    service = QueryService(
        make_source(),
        backend="sequential",
        max_concurrent_queries=1,
        max_query_retries=0,
    )
    resolve = service_module.resolve_backend
    builds_to_fail = [failed_builds]

    def broken_resolve(*args, **kwargs):
        if builds_to_fail[0]:
            builds_to_fail[0] -= 1
            raise RuntimeError("fork failed: out of resources")
        return resolve(*args, **kwargs)

    monkeypatch.setattr(
        "repro.service.service.resolve_backend", broken_resolve
    )
    try:
        ticket = service.submit(COUNT_QUERY)
        with pytest.raises(BackendError):
            ticket.result(timeout=5)
        assert service.drain(2)
        stats = service.stats()
        assert (stats["running"], stats["failed"]) == (0, 1)
        events = stats["slot_restarts"]
        assert [event["kind"] for event in events] == [
            "backend-replaced",
            "abandoned",
        ]
        assert {event["request_id"] for event in events} == {
            ticket.request_id
        }
        assert "respawn failed: RuntimeError" in events[-1]["message"]
        assert stats["slots"] == {"total": 1, "live": 0, "abandoned": 1}
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(COUNT_QUERY)
        assert excinfo.value.reason == "no-slots"
        assert close_within(service)
    finally:
        close_within(service)


def test_per_tenant_state_is_not_kept_for_tenants_that_never_failed():
    """Tenant names come from clients (``tools/serve.py``), so a service
    must not keep an entry per name it has seen: after 500 tenants with
    one successful query each, no dict on the service holds a tenant.
    A tenant that failed leaves nothing behind either."""

    def holding():
        return [
            name
            for name, value in vars(service).items()
            if isinstance(value, dict)
            and any(str(key).startswith("tenant-") for key in value)
        ]

    with QueryService(
        make_source(5),
        backend="sequential",
        max_concurrent_queries=1,
        result_cache_size=1,
    ) as service:
        for index in range(500):
            response = service.execute(COUNT_QUERY, tenant=f"tenant-{index}")
            assert response.items == [10]
        assert holding() == []
        with pytest.raises(Exception):
            service.execute("count(((", tenant="tenant-0")
        assert holding() == []
        assert "circuit_breakers" not in service.stats()


def start_closing(service) -> threading.Thread:
    """Run ``close()`` on a helper thread; return it once close has
    begun (submissions are rejected from then on)."""
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    deadline = time.monotonic() + 10
    while not service._closed and time.monotonic() < deadline:
        time.sleep(0.001)
    assert service._closed
    return closer


def test_last_slot_dying_during_close_fails_the_queued_requests():
    """A slot that dies while the service closes is abandoned, not
    respawned.  When it was the last live slot, the requests still
    queued behind it can never run, so they fail at once; they used to
    stay queued, and close(), which drains first, never returned."""
    source = make_gated()
    service = QueryService(
        source, backend="sequential", max_concurrent_queries=1
    )
    try:
        running = service.submit(COUNT_QUERY)
        source.wait_entered()
        claimed = service.submit(COUNT_QUERY)
        stranded = service.submit(COUNT_QUERY)
        service.inject_slot_failure(0)  # fires when `claimed` is claimed
        closer = start_closing(service)
        source.release()
        assert running.result(timeout=5).items == [120]
        for ticket in (claimed, stranded):
            with pytest.raises(SlotFailureError):
                ticket.result(timeout=5)
        closer.join(10)
        assert not closer.is_alive()
        stats = service.stats()
        assert stats["slots"] == {"total": 1, "live": 0, "abandoned": 1}
        assert (stats["queued"], stats["running"], stats["failed"]) == (
            0, 0, 2
        )
    finally:
        source.release()
        close_within(service)


def test_idle_slot_keeps_serving_the_queue_while_closing():
    """close() lets the queue empty: a slot with nothing it may run yet
    (the tenant is at its concurrency limit) must not exit just because
    the service is closing, or when the busy slot then dies the queued
    requests are left with a live slot that has no thread, and close()
    never returns."""
    source = make_gated()
    service = QueryService(
        source,
        backend="sequential",
        max_concurrent_queries=2,
        default_quota=TenantQuota(max_concurrent=1, max_queued=4),
    )
    try:
        running = service.submit(COUNT_QUERY, tenant="a")
        source.wait_entered()
        busy = next(slot for slot in service._slots if slot.current)
        idle = next(slot for slot in service._slots if slot is not busy)
        claimed = service.submit(COUNT_QUERY, tenant="a")
        queued = service.submit(COUNT_QUERY, tenant="a")
        # Dying while the service closes abandons `busy`.
        service.inject_slot_failure(busy.index)
        closer = start_closing(service)
        idle.thread.join(0.5)  # an idle slot that quits on close is gone
        source.release()
        assert running.result(timeout=5).items == [120]
        # Either slot may claim either request first, and the death
        # fires only if `busy` claims one: each ends one way or the other.
        for ticket in (claimed, queued):
            try:
                assert ticket.result(timeout=5).items == [120]
            except SlotFailureError:
                pass
        closer.join(10)
        assert not closer.is_alive()
    finally:
        source.release()
        close_within(service)
