"""Spill-write fault injection and cancellation-safe cleanup."""

import json
import os

import pytest

from repro.errors import PartitionExecutionError, QueryCancelledError, is_retryable
from repro.data.catalog import InMemorySource
from repro.hyracks.limits import CancellationToken
from repro.processor import JsonProcessor
from repro.resilience.faults import FaultPlan, PermanentFaultError
from repro.resilience.policies import ResilienceConfig


def make_source(records: int = 150):
    texts = []
    for p in range(2):
        rows = [
            {"date": f"d{i % 13}", "dataType": "TMIN",
             "station": f"S{i % 5}", "value": i + p}
            for i in range(records)
        ]
        texts.append(json.dumps({"root": [{"results": rows}]}))
    return InMemorySource(collections={"/s": [[t] for t in texts]})


GROUP_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") return count($r("station"))'
)


class CancelOnSpill(FaultPlan):
    """Fault plan whose spill-write hook cancels its token.

    The hook runs on every spill write of a partition, so cancelling
    there guarantees the query was mid-spill when the limit was
    observed.  Module level with the token as state, so it pickles into
    process-pool workers.
    """

    def __init__(self, token):
        super().__init__()
        self._token = token

    def spill_write_attempt(self, partition):
        self._token.cancel("mid-spill cancel")
        self._token.check()


@pytest.fixture
def spill_root(tmp_path):
    root = tmp_path / "spill"
    root.mkdir()
    yield str(root)
    assert os.listdir(str(root)) == [], "spill run files leaked"


class TestSpillFaultInjection:
    def test_transient_fault_recovered_by_retry(self, spill_root):
        source = make_source()
        oracle = JsonProcessor(source=source).execute(GROUP_QUERY)
        plan = FaultPlan(seed=3).fail_spill(1, times=2)
        processor = JsonProcessor(
            source=plan.wrap(make_source()),
            memory_budget_bytes=512,
            spill_dir=spill_root,
            resilience=ResilienceConfig(max_attempts=4),
        )
        result = processor.execute(GROUP_QUERY)
        assert result.items == oracle.items
        assert result.degradation.retry_count == 2
        assert not result.is_partial

    def test_fail_fast_names_the_partition(self, spill_root):
        plan = FaultPlan(seed=3).fail_spill(1, times=1)
        processor = JsonProcessor(
            source=plan.wrap(make_source()),
            memory_budget_bytes=512,
            spill_dir=spill_root,
        )
        with pytest.raises(PartitionExecutionError) as exc_info:
            processor.execute(GROUP_QUERY)
        assert "partition 1" in str(exc_info.value)

    def test_permanent_fault_with_skip_degrades(self, spill_root):
        plan = FaultPlan(seed=3).fail_spill(0, permanent=True)
        processor = JsonProcessor(
            source=plan.wrap(make_source()),
            memory_budget_bytes=512,
            spill_dir=spill_root,
            resilience=ResilienceConfig(on_exhausted="skip"),
        )
        result = processor.execute(GROUP_QUERY)
        assert result.is_partial
        assert [s.partition for s in result.degradation.skipped_partitions] == [0]

    def test_spill_fault_counters_are_deterministic(self):
        plan = FaultPlan(seed=3).fail_spill(0, times=2)
        plan.spill_write_attempt(None)  # global scans pass through
        with pytest.raises(Exception):
            plan.spill_write_attempt(0)
        with pytest.raises(Exception):
            plan.spill_write_attempt(0)
        plan.spill_write_attempt(0)  # third write succeeds
        plan.reset()
        with pytest.raises(Exception):
            plan.spill_write_attempt(0)  # counters rewound

    def test_permanent_spill_fault_is_not_retryable(self):
        plan = FaultPlan().fail_spill(0, permanent=True)
        with pytest.raises(PermanentFaultError) as exc_info:
            plan.spill_write_attempt(0)
        assert not is_retryable(exc_info.value)


class TestCancellationCleanup:
    def test_cancel_mid_spill_leaves_no_temp_files(self, spill_root):
        """Cancel fired from inside the spill path (see CancelOnSpill)."""
        token = CancellationToken()
        processor = JsonProcessor(
            source=CancelOnSpill(token).wrap(make_source()),
            memory_budget_bytes=512,
            spill_dir=spill_root,
        )
        with pytest.raises(QueryCancelledError) as exc_info:
            processor.execute(GROUP_QUERY, cancellation=token)
        report = exc_info.value.degradation
        assert report.cancellations
        assert report.cancellations[0].kind == "cancelled"
        # spill_root leak check runs in the fixture teardown

    def test_cancellation_not_counted_as_partial(self, spill_root):
        token = CancellationToken()
        token.cancel()
        processor = JsonProcessor(
            source=make_source(),
            memory_budget_bytes=512,
            spill_dir=spill_root,
        )
        with pytest.raises(QueryCancelledError) as exc_info:
            processor.execute(GROUP_QUERY, cancellation=token)
        report = exc_info.value.degradation
        assert not report.is_partial  # nothing was skipped, it unwound
        assert report.cancellations

    def test_report_dict_includes_cancellations(self, spill_root):
        token = CancellationToken()
        token.cancel("shed")
        processor = JsonProcessor(source=make_source())
        with pytest.raises(QueryCancelledError) as exc_info:
            processor.execute(GROUP_QUERY, cancellation=token)
        payload = exc_info.value.degradation.to_dict()
        assert payload["cancellations"]
        assert payload["cancellations"][0]["kind"] == "cancelled"
