"""Unit tests for the retry rule and FaultPlan determinism."""

import errno

import pytest

from repro import errors
from repro.errors import is_retryable
from repro.resilience import (
    CorruptRecordError,
    FaultPlan,
    PermanentFaultError,
    ResilienceConfig,
    TransientFaultError,
)

#: every error class, built, and whether running its work again may help
ERRORS = [
    (errors.ReproError("x"), False),
    (errors.JsonSyntaxError("bad", 3), False),
    (errors.ItemTypeError("dateTime() expects a string"), False),
    (errors.ItemDepthError("too deep"), False),
    (errors.LexerError("bad token", 1), False),
    (errors.ParseError("bad syntax", 1), False),
    (errors.TranslationError("x"), False),
    (errors.UnknownFunctionError("f", 1), False),
    (errors.UnboundVariableError("v"), False),
    (errors.PlanError("x"), False),
    (errors.RewriteError("x"), False),
    (errors.RuntimeExecutionError("x"), False),
    (errors.MemoryBudgetExceededError(10, 5), False),
    (errors.TypeCheckError("x"), False),
    (errors.SpillError("disk gone"), True),
    (errors.SlotFailureError(0), True),
    (errors.QueryTimeoutError(1.0, 2.0), False),
    (errors.QueryCancelledError("stop"), False),
    (errors.WorkerCrashError(0, 1), False),
    (errors.RecoveryExhaustedError((0,), (3,)), True),
    (errors.ProcessorClosedError(), False),
    (errors.AdmissionError("closed", "t", "closed"), False),
    (errors.DocumentTooLargeError(10, 5), False),
    (errors.LoadError("x"), False),
    (TransientFaultError("flaky"), True),
    (PermanentFaultError("broken"), False),
    (CorruptRecordError("corrupt", 0), False),
    (OSError(errno.ENOSPC, "disk full"), True),
    (ValueError("x"), False),
]


def wrapped_in(kind, error):
    """*error* as the ``__cause__`` of one of the wrapping errors."""
    if kind == "FileScanError":
        wrapper = errors.FileScanError("data.json", error)
        wrapper.__cause__ = error
        return wrapper
    if kind == "PartitionExecutionError":
        return errors.PartitionExecutionError(2, error, ("/c",), attempts=1)
    return errors.BackendError("unit failed", (2,), (1,), cause=error)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "error,expected", ERRORS, ids=[type(e).__name__ for e, _ in ERRORS]
    )
    def test_is_retryable_bare(self, error, expected):
        assert is_retryable(error) is expected

    @pytest.mark.parametrize(
        "wrapper", ["FileScanError", "PartitionExecutionError", "BackendError"]
    )
    @pytest.mark.parametrize(
        "error,expected", ERRORS, ids=[type(e).__name__ for e, _ in ERRORS]
    )
    def test_is_retryable_wrapped(self, wrapper, error, expected):
        assert is_retryable(wrapped_in(wrapper, error)) is expected

    def test_the_first_error_that_decides_wins(self):
        timeout = errors.QueryTimeoutError(1.0, 2.0)
        timeout.__cause__ = OSError("late disk")
        assert not is_retryable(timeout)
        slot = errors.SlotFailureError(1)
        slot.__cause__ = errors.QueryCancelledError()
        assert is_retryable(slot)
        assert not is_retryable(None)

    def test_a_looping_chain_ends(self):
        first = errors.ReproError("a")
        second = errors.ReproError("b")
        first.__cause__, second.__cause__ = second, first
        assert not is_retryable(first)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_attempts=0)


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
