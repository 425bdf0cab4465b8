"""Unit tests for RetryPolicy and FaultPlan determinism."""

import pytest

from repro.resilience import (
    FaultPlan,
    PermanentFaultError,
    RetryPolicy,
    TransientFaultError,
)
from repro.resilience import retry


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self, monkeypatch):
        monkeypatch.setattr(retry, "JITTER", 0.0)
        policy = RetryPolicy()
        assert policy.backoff_seconds(1) == pytest.approx(0.05)
        assert policy.backoff_seconds(2) == pytest.approx(0.1)
        assert policy.backoff_seconds(3) == pytest.approx(0.2)

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        c = RetryPolicy(seed=43)
        for attempt in (1, 2, 3):
            assert a.backoff_seconds(attempt) == b.backoff_seconds(attempt)
        assert a.backoff_seconds(1) != c.backoff_seconds(1)

    def test_jitter_bounded(self):
        policy = RetryPolicy(seed=3)
        for attempt in range(1, 10):
            base = 0.05 * 2.0 ** (attempt - 1)
            assert base <= policy.backoff_seconds(attempt) <= base * 1.1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFaultPlan:
    def test_transient_fault_clears_after_n_attempts(self):
        plan = FaultPlan()
        plan.fail_partition(1, times=2)
        with pytest.raises(TransientFaultError):
            plan.begin_attempt("/c", 1)
        with pytest.raises(TransientFaultError):
            plan.begin_attempt("/c", 1)
        plan.begin_attempt("/c", 1)  # third attempt succeeds

    def test_permanent_fault_never_clears(self):
        plan = FaultPlan()
        plan.fail_partition(0, permanent=True)
        for _ in range(5):
            with pytest.raises(PermanentFaultError):
                plan.begin_attempt("/c", 0)

    def test_faults_are_partition_scoped(self):
        plan = FaultPlan()
        plan.fail_partition(1, times=1)
        plan.begin_attempt("/c", 0)
        plan.begin_attempt("/c", 2)
        plan.begin_attempt("/c", None)  # global scans pass through

    def test_collection_scoped_fault(self):
        plan = FaultPlan()
        plan.fail_partition(0, times=10, collection="/broken")
        plan.begin_attempt("/healthy", 0)
        with pytest.raises(TransientFaultError):
            plan.begin_attempt("/broken", 0)

    def test_reset_rewinds_attempt_counters(self):
        plan = FaultPlan()
        plan.fail_partition(0, times=1)
        with pytest.raises(TransientFaultError):
            plan.begin_attempt("/c", 0)
        plan.begin_attempt("/c", 0)
        plan.reset()
        with pytest.raises(TransientFaultError):
            plan.begin_attempt("/c", 0)

    def test_corruption_is_deterministic_and_seed_dependent(self):
        a = FaultPlan(seed=7).corrupt_records(1, fraction=0.1)
        b = FaultPlan(seed=7).corrupt_records(1, fraction=0.1)
        c = FaultPlan(seed=8).corrupt_records(1, fraction=0.1)
        draws_a = [a.should_corrupt("/c", 1, i) for i in range(500)]
        draws_b = [b.should_corrupt("/c", 1, i) for i in range(500)]
        draws_c = [c.should_corrupt("/c", 1, i) for i in range(500)]
        assert draws_a == draws_b
        assert draws_a != draws_c
        fraction = sum(draws_a) / len(draws_a)
        assert 0.02 < fraction < 0.25  # roughly the requested rate

    def test_corruption_fraction_bounds(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.corrupt_records(0, fraction=1.5)
        plan.corrupt_records(0, fraction=1.0)
        assert plan.should_corrupt("/c", 0, 123)
        assert not plan.should_corrupt("/c", None, 123)

    def test_injected_delay(self):
        plan = FaultPlan()
        plan.delay_partition(2, 0.5).delay_partition(2, 0.25)
        assert plan.injected_delay(2) == pytest.approx(0.75)
        assert plan.injected_delay(0) == 0.0
        assert plan.injected_delay(None) == 0.0
