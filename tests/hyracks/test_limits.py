"""Query deadlines and cooperative cancellation."""

import json
import os
import pickle
import time

import pytest

from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.data.catalog import InMemorySource
from repro.hyracks.limits import (
    CHECK_STRIDE,
    CancellationToken,
    ExecutionLimits,
    QueryDeadline,
    resolve_deadline_seconds,
)
from repro.processor import JsonProcessor


def make_source(records: int = 200):
    rows = [
        {"date": f"d{i % 11}", "dataType": "TMIN", "station": f"S{i % 5}",
         "value": i}
        for i in range(records)
    ]
    text = json.dumps({"root": [{"results": rows}]})
    return InMemorySource(collections={"/s": [[text], [text]]})


GROUP_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") return count($r("station"))'
)


class TestResolveDeadline:
    def test_none_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        assert resolve_deadline_seconds(None) is None

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        assert resolve_deadline_seconds(None) == 2.5

    def test_env_zero_means_no_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "0")
        assert resolve_deadline_seconds(None) is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        assert resolve_deadline_seconds(7.0) == 7.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            resolve_deadline_seconds(-1.0)


class TestQueryDeadline:
    def test_remaining_and_expiry(self):
        deadline = QueryDeadline.start(60.0)
        assert 0 < deadline.remaining() <= 60.0
        assert not deadline.expired()
        deadline.check()  # no raise

    def test_expired_raises_with_details(self):
        deadline = QueryDeadline(0.001)
        time.sleep(0.005)
        assert deadline.expired()
        with pytest.raises(QueryTimeoutError) as exc_info:
            deadline.check()
        error = exc_info.value
        assert error.deadline_seconds == 0.001
        assert error.elapsed_seconds >= 0.001
        assert error.retryable is False

    def test_pickle_preserves_absolute_expiry(self):
        deadline = QueryDeadline.start(60.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expires_at == deadline.expires_at
        assert clone.deadline_seconds == deadline.deadline_seconds


class TestCancellationToken:
    def test_cancel_then_check_raises(self):
        token = CancellationToken()
        token.check()  # not cancelled yet
        token.cancel("operator abort")
        assert token.cancelled
        with pytest.raises(QueryCancelledError) as exc_info:
            token.check()
        assert "operator abort" in str(exc_info.value)
        assert exc_info.value.retryable is False

    def test_flag_file_crosses_processes(self, tmp_path):
        flag = str(tmp_path / "cancel.flag")
        token = CancellationToken(flag_path=flag)
        # Simulate the coordinator's cancel arriving via the filesystem:
        # a fresh token object (as a forked worker would hold) sees it.
        other = pickle.loads(pickle.dumps(token))
        assert not other.cancelled
        token.cancel("stop")
        assert os.path.exists(flag)
        assert other.cancelled

    def test_pickle_carries_cancelled_snapshot(self):
        token = CancellationToken()
        token.cancel()
        clone = pickle.loads(pickle.dumps(token))
        assert clone.cancelled


class TestExecutionLimits:
    def test_checkpoint_is_strided(self):
        token = CancellationToken()
        limits = ExecutionLimits(token=token)
        token.cancel()
        # The first CHECK_STRIDE - 1 checkpoints are free.
        for _ in range(CHECK_STRIDE - 1):
            limits.checkpoint()
        with pytest.raises(QueryCancelledError):
            limits.checkpoint()

    def test_check_is_immediate(self):
        token = CancellationToken()
        limits = ExecutionLimits(token=token)
        token.cancel()
        with pytest.raises(QueryCancelledError):
            limits.check()

    def test_inactive_limits(self):
        limits = ExecutionLimits()
        assert not limits.active
        assert limits.remaining_seconds() is None
        limits.check()

    def test_pickle_roundtrip(self):
        limits = ExecutionLimits(
            QueryDeadline.start(60.0), CancellationToken()
        )
        clone = pickle.loads(pickle.dumps(limits))
        assert clone.active
        assert clone.remaining_seconds() is not None


class TestErrorsPickle:
    def test_timeout_error(self):
        error = QueryTimeoutError(5.0, 6.2)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.deadline_seconds == 5.0
        assert clone.elapsed_seconds == 6.2

    def test_cancelled_error(self):
        error = QueryCancelledError("why")
        clone = pickle.loads(pickle.dumps(error))
        assert "why" in str(clone)


class TestQueryLevelLimits:
    def test_deadline_exceeded_raises_and_reports(self, tmp_path):
        processor = JsonProcessor(
            source=make_source(),
            memory_budget_bytes=2048,
            spill_dir=str(tmp_path),
            deadline_seconds=1e-6,
        )
        with pytest.raises(QueryTimeoutError) as exc_info:
            processor.execute(GROUP_QUERY)
        report = exc_info.value.degradation
        assert report is not None
        assert report.cancellations
        assert report.cancellations[0].kind == "timeout"
        assert os.listdir(str(tmp_path)) == []  # zero temp files

    def test_pre_cancelled_token_raises(self, tmp_path):
        token = CancellationToken()
        token.cancel("shed load")
        processor = JsonProcessor(
            source=make_source(),
            memory_budget_bytes=2048,
            spill_dir=str(tmp_path),
        )
        with pytest.raises(QueryCancelledError) as exc_info:
            processor.execute(GROUP_QUERY, cancellation=token)
        assert exc_info.value.degradation.cancellations[0].kind == "cancelled"
        assert os.listdir(str(tmp_path)) == []

    def test_generous_deadline_reports_slack(self):
        processor = JsonProcessor(
            source=make_source(20), deadline_seconds=300.0
        )
        result = processor.execute(GROUP_QUERY)
        assert result.deadline_slack_seconds is not None
        assert 0 < result.deadline_slack_seconds <= 300.0

    def test_no_deadline_means_no_slack(self):
        result = JsonProcessor(source=make_source(20)).execute(GROUP_QUERY)
        assert result.deadline_slack_seconds is None

    def test_env_deadline_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "0.000001")
        processor = JsonProcessor(source=make_source())
        with pytest.raises(QueryTimeoutError):
            processor.execute(GROUP_QUERY)

    def test_timeout_never_retried(self, tmp_path):
        from repro.resilience.policies import ResilienceConfig
        from repro.resilience.retry import RetryPolicy

        processor = JsonProcessor(
            source=make_source(),
            deadline_seconds=1e-6,
            resilience=ResilienceConfig(
                partition_policy="retry", retry=RetryPolicy(max_attempts=5)
            ),
        )
        with pytest.raises(QueryTimeoutError) as exc_info:
            processor.execute(GROUP_QUERY)
        # A query-global limit is not a partition fault: no retries.
        assert exc_info.value.degradation.retry_count == 0

    @pytest.mark.parametrize("backend", ["process"])
    def test_deadline_crosses_backends(self, tmp_path, backend):
        processor = JsonProcessor(
            source=make_source(),
            memory_budget_bytes=2048,
            spill_dir=str(tmp_path),
            deadline_seconds=1e-6,
            backend=backend,
            max_workers=2,
        )
        try:
            with pytest.raises(QueryTimeoutError):
                processor.execute(GROUP_QUERY)
        finally:
            processor.close()
        assert os.listdir(str(tmp_path)) == []
