"""Admission control: quotas reject deterministically and structurally."""

import pickle

import pytest

from repro.errors import AdmissionError
from repro.service import QueryService, TenantQuota
from repro.service.admission import admit

from tests.service.conftest import COUNT_QUERY, GatedSource, make_source


def gated_service(**kwargs):
    source = GatedSource(
        collections={"/s": [['{"root": [{"results": [{"v": 1}]}]}']]}
    )
    service = QueryService(
        source, backend="sequential", max_concurrent_queries=1, **kwargs
    )
    return source, service


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_concurrent=0)
        with pytest.raises(ValueError):
            TenantQuota(max_queued=-1)
        with pytest.raises(ValueError):
            TenantQuota(deadline_ceiling_seconds=0.0)

    def test_defaults(self):
        quota = TenantQuota()
        assert quota.max_concurrent == 2
        assert quota.max_queued == 8
        assert quota.memory_budget_bytes is None
        assert quota.deadline_ceiling_seconds is None


class TestAdmission:
    def test_tenant_quota_rejects_deterministically(self):
        source, service = gated_service(
            default_quota=TenantQuota(max_concurrent=1, max_queued=1)
        )
        try:
            first = service.submit(COUNT_QUERY, tenant="t")
            source.wait_entered()  # first query is now running
            second = service.submit(COUNT_QUERY, tenant="t")  # fills the queue
            with pytest.raises(AdmissionError) as exc_info:
                service.submit(COUNT_QUERY, tenant="t")
            error = exc_info.value
            assert error.reason == "tenant-quota"
            assert error.tenant == "t"
            assert error.limit == 2  # 1 running + 1 queued
            assert error.requested == 3
            # other tenants are unaffected by t's backlog
            third = service.submit(COUNT_QUERY, tenant="other")
            source.release()
            assert first.result(30).items == [1]
            assert second.result(30).items == [1]
            assert third.result(30).items == [1]
            stats = service.stats()
            assert stats["rejected"] == 1
            assert stats["rejected_by_reason"] == {"tenant-quota": 1}
        finally:
            source.release()
            service.close()

    def test_memory_quota_rejects_over_budget_requests(self):
        source = make_source(records_per_partition=5)
        with QueryService(
            source,
            backend="sequential",
            quotas={"t": TenantQuota(memory_budget_bytes=1 << 20)},
        ) as service:
            with pytest.raises(AdmissionError) as exc_info:
                service.submit(
                    COUNT_QUERY, tenant="t", memory_budget_bytes=2 << 20
                )
            error = exc_info.value
            assert error.reason == "memory-quota"
            assert (error.limit, error.requested) == (1 << 20, 2 << 20)
            # at or under the budget is admitted (and the budget is the
            # default when the request asks for nothing)
            assert service.execute(COUNT_QUERY, tenant="t").items == [10]

    def test_deadline_quota_rejects_over_ceiling_requests(self):
        source = make_source(records_per_partition=5)
        with QueryService(
            source,
            backend="sequential",
            quotas={"t": TenantQuota(deadline_ceiling_seconds=60.0)},
        ) as service:
            with pytest.raises(AdmissionError) as exc_info:
                service.submit(COUNT_QUERY, tenant="t", deadline_seconds=120.0)
            assert exc_info.value.reason == "deadline-quota"
            response = service.execute(
                COUNT_QUERY, tenant="t", deadline_seconds=30.0
            )
            assert response.items == [10]
            assert response.deadline_slack_seconds is not None

    def test_service_queue_depth_is_global(self):
        source, service = gated_service(
            max_queue_depth=1,
            default_quota=TenantQuota(max_concurrent=1, max_queued=8),
        )
        try:
            first = service.submit(COUNT_QUERY, tenant="a")
            source.wait_entered()
            second = service.submit(COUNT_QUERY, tenant="a")  # queued (1/1)
            with pytest.raises(AdmissionError) as exc_info:
                service.submit(COUNT_QUERY, tenant="b")
            assert exc_info.value.reason == "service-queue"
            assert exc_info.value.limit == 1
            source.release()
            first.result(30)
            second.result(30)
        finally:
            source.release()
            service.close()

    def test_closed_service_rejects(self):
        service = QueryService(make_source(5), backend="sequential")
        service.close()
        with pytest.raises(AdmissionError) as exc_info:
            service.submit(COUNT_QUERY)
        assert exc_info.value.reason == "closed"

    def test_admission_error_pickles_with_fields(self):
        error = AdmissionError("tenant-quota", "t", "full", 2, 3)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.reason == "tenant-quota"
        assert clone.tenant == "t"
        assert (clone.limit, clone.requested) == (2, 3)
        assert "tenant-quota" in str(clone)


# -- the admission check itself, without a service or a thread ----------------

#: Each rejection reason alone, in the order admit() checks them: the
#: keyword arguments that trigger it and the TenantQuota fields it needs.
#: Where two share an argument they agree on its value, so any two can
#: be applied together.
REASONS = {
    "closed": ({"closed": True}, {}),
    "no-slots": ({"live_slots": 0}, {}),
    "memory-quota": ({"memory_bytes": 11}, {"memory_budget_bytes": 10}),
    "deadline-quota": (
        {"deadline_seconds": 11.0}, {"deadline_ceiling_seconds": 10.0}
    ),
    "tenant-quota": ({"in_flight": 1}, {"max_concurrent": 1, "max_queued": 0}),
    "service-queue": ({"queued": 4, "max_queue_depth": 4}, {}),
    "predicted-timeout": (
        {"durations": [20.0], "running": 1, "deadline_seconds": 11.0}, {}
    ),
}


def verdict(*reasons, quota=None, **overrides):
    """admit() for tenant "t" with every named reason's trigger applied
    and nothing else in the way."""
    arguments = {
        "memory_bytes": None,
        "deadline_seconds": None,
        "closed": False,
        "live_slots": 1,
        "in_flight": 0,
        "queued": 0,
        "running": 0,
        "max_queue_depth": 8,
        "durations": (),
    }
    fields = {}
    for reason in reasons:
        triggers, quota_fields = REASONS[reason]
        arguments.update(triggers)
        fields.update(quota_fields)
    arguments.update(overrides)
    return admit("t", quota or TenantQuota(**fields), **arguments)


class TestAdmit:
    def test_nothing_in_the_way_admits(self):
        assert verdict() is None

    @pytest.mark.parametrize("reason", list(REASONS))
    def test_each_reason_alone(self, reason):
        rejection = verdict(reason)
        assert isinstance(rejection, AdmissionError)
        assert rejection.reason == reason
        assert rejection.tenant == "t"

    @pytest.mark.parametrize(
        "first, second",
        [
            (first, second)
            for index, first in enumerate(REASONS)
            for second in list(REASONS)[index + 1:]
        ],
    )
    def test_the_earlier_reason_wins(self, first, second):
        assert verdict(first, second).reason == first
        assert verdict(second, first).reason == first

    def test_structured_fields(self):
        tenant = verdict("tenant-quota")
        assert (tenant.limit, tenant.requested) == (1, 2)
        queue = verdict("service-queue")
        assert (queue.limit, queue.requested) == (4, 5)
        shed = verdict("predicted-timeout")
        assert (shed.limit, shed.requested) == (11.0, 20.0)

    def test_predicted_wait_spreads_the_backlog_over_live_slots(self):
        # mean 4 x backlog (2 queued + 1 running) / 2 live slots = 6s
        assert verdict(
            durations=[2.0, 6.0], queued=2, running=1, live_slots=2,
            deadline_seconds=6.0,
        ) is None
        shed = verdict(
            durations=[2.0, 6.0], queued=2, running=1, live_slots=2,
            deadline_seconds=5.9,
        )
        assert shed.reason == "predicted-timeout" and shed.requested == 6.0
        # the tenant ceiling stands in for a missing deadline
        ceiling = TenantQuota(deadline_ceiling_seconds=5.9)
        assert verdict(
            quota=ceiling, durations=[2.0, 6.0], queued=2, running=1,
            live_slots=2,
        ).reason == "predicted-timeout"
        # without a deadline or a history, nothing is shed
        assert verdict(durations=[100.0], queued=3) is None
        assert verdict(deadline_seconds=0.5, queued=3) is None
