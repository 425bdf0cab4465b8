"""Partition policies on the executor: every combination, deterministic."""

import json

import pytest

from repro import (
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    ResilienceConfig,
    RetryPolicy,
)
from repro.algebra.rules import RewriteConfig
from repro.errors import PartitionExecutionError
from repro.resilience import TransientFaultError

QUERY = 'for $r in collection("/events") return $r("v")'
COUNT_QUERY = 'count(for $r in collection("/events") return $r)'
#: what each aggregate answers over no input
ZERO_KEPT = {"count": [0], "sum": [0], "avg": [], "min": [], "max": []}


def make_source(on_malformed="fail", partitions=4, per_partition=5):
    collections = {
        "/events": [
            [
                "\n".join(
                    json.dumps({"v": p * 100 + i}) for i in range(per_partition)
                )
            ]
            for p in range(partitions)
        ]
    }
    return InMemorySource(collections, on_malformed=on_malformed)


def all_values(partitions=4, per_partition=5):
    return [p * 100 + i for p in range(partitions) for i in range(per_partition)]


def make_processor(plan=None, config=None, on_malformed="fail", **kwargs):
    return JsonProcessor(
        source=make_source(on_malformed=on_malformed),
        fault_plan=plan,
        resilience=config,
        **kwargs,
    )


class TestFailFast:
    def test_clean_run_has_empty_degradation(self):
        result = make_processor().execute(QUERY)
        assert result.items == all_values()
        assert result.strategy == "pipelined"
        assert not result.degradation.is_degraded
        assert not result.is_partial
        assert result.warnings == []
        assert result.injected_seconds == [0.0] * 4

    def test_default_matches_explicit_fail_fast(self):
        default = make_processor().execute(QUERY)
        explicit = make_processor(
            config=ResilienceConfig(partition_policy="fail_fast")
        ).execute(QUERY)
        assert default.items == explicit.items
        assert default.strategy == explicit.strategy

    def test_fault_raises_partition_execution_error(self):
        plan = FaultPlan().fail_partition(2, times=1)
        processor = make_processor(plan=plan)
        with pytest.raises(PartitionExecutionError) as excinfo:
            processor.execute(QUERY)
        error = excinfo.value
        assert error.partition == 2
        assert error.collections == ("/events",)
        assert isinstance(error.__cause__, TransientFaultError)

    def test_malformed_data_names_collection_and_partition(self):
        source = InMemorySource({"/events": [['{"v": 1}'], ["{broken"]]})
        processor = JsonProcessor(source=source)
        with pytest.raises(PartitionExecutionError) as excinfo:
            processor.execute(QUERY)
        message = str(excinfo.value)
        assert "partition 1" in message
        assert "/events" in message


class TestRetry:
    def test_retry_then_succeed(self):
        plan = FaultPlan(seed=3).fail_partition(1, times=2)
        config = ResilienceConfig(
            partition_policy="retry", retry=RetryPolicy(max_attempts=3, seed=3)
        )
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.items == all_values()  # nothing lost
        assert not result.is_partial
        assert result.degradation.is_degraded
        retries = result.degradation.retries
        assert [(r.partition, r.attempt) for r in retries] == [(1, 1), (1, 2)]
        assert all(r.backoff_seconds > 0 for r in retries)
        # Backoff charged to the simulated clock of the failing partition.
        assert result.injected_seconds[1] > 0
        assert result.injected_seconds[0] == 0.0

    def test_retry_exhausted_fails_by_default(self):
        plan = FaultPlan().fail_partition(1, times=10)
        config = ResilienceConfig(
            partition_policy="retry", retry=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(PartitionExecutionError) as excinfo:
            make_processor(plan=plan, config=config).execute(QUERY)
        assert excinfo.value.attempts == 3

    def test_retry_exhausted_can_degrade_to_skip(self):
        plan = FaultPlan().fail_partition(1, times=10)
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=3),
            on_exhausted="skip",
        )
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.items == [v for v in all_values() if not 100 <= v < 200]
        assert result.is_partial
        (skip,) = result.degradation.skipped_partitions
        assert skip.partition == 1
        assert skip.attempts == 3
        assert skip.collections == ("/events",)

    def test_permanent_fault_not_retried(self):
        plan = FaultPlan().fail_partition(1, permanent=True)
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=5),
            on_exhausted="skip",
        )
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.degradation.retries == []  # no pointless retries
        (skip,) = result.degradation.skipped_partitions
        assert skip.attempts == 1


class TestSkipPartition:
    def test_skips_on_first_failure(self):
        plan = FaultPlan().fail_partition(3, times=1)
        config = ResilienceConfig(partition_policy="skip_partition")
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.items == [v for v in all_values() if v < 300]
        assert result.degradation.retries == []
        (skip,) = result.degradation.skipped_partitions
        assert skip.partition == 3 and skip.attempts == 1

    def test_aggregate_over_skipped_partition_is_partial(self):
        plan = FaultPlan().fail_partition(0, times=1)
        config = ResilienceConfig(partition_policy="skip_partition")
        result = make_processor(plan=plan, config=config).execute(COUNT_QUERY)
        assert result.strategy == "aggregated-two-step"
        assert result.items == [15]  # 3 of 4 partitions x 5 records
        assert result.is_partial

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize(
        "strategy,function",
        [
            (strategy, function)
            for strategy in ("aggregated-two-step", "aggregated-raw")
            for function in ZERO_KEPT
        ]
        + [("hash-join", "count"), ("hash-join", "sum")],
    )
    def test_aggregate_over_zero_kept_partitions(self, strategy, function, backend):
        """Every partition skipped: the AGGREGATE still answers its one
        tuple, over the empty input."""
        if strategy == "hash-join":
            query = (
                f'{function}(for $a in collection("/events") '
                'for $b in collection("/events") '
                'where $a("v") eq $b("v") return $b("v"))'
            )
        else:
            query = f'{function}(for $r in collection("/events") return $r("v"))'
        plan = FaultPlan()
        for partition in range(4):
            plan.fail_partition(partition, permanent=True)
        config = ResilienceConfig(partition_policy="skip_partition")
        rewrite = RewriteConfig(two_step_aggregation=strategy != "aggregated-raw")
        with make_processor(
            plan=plan, config=config, rewrite=rewrite, backend=backend
        ) as processor:
            result = processor.execute(query)
        assert result.strategy == strategy
        assert result.items == ZERO_KEPT[function]
        assert result.is_partial
        assert len(result.degradation.skipped_partitions) == 4

    def test_grouped_query_with_retry(self):
        plan = FaultPlan().fail_partition(2, times=1)
        config = ResilienceConfig(
            partition_policy="retry", retry=RetryPolicy(max_attempts=2)
        )
        query = (
            'for $r in collection("/events") '
            'group by $k := $r("v") mod 2 '
            "return count($r)"
        )
        clean = make_processor().execute(query)
        faulty = make_processor(plan=plan, config=config).execute(query)
        assert sorted(faulty.items) == sorted(clean.items)
        assert faulty.degradation.retry_count == 1


class TestSimulatedClock:
    def test_straggler_delay_charged_to_makespan(self):
        from repro import ClusterSpec

        cluster = ClusterSpec(nodes=1, cores_per_node=4, partitions_per_node=4)
        clean = make_processor().execute(QUERY)
        plan = FaultPlan().delay_partition(2, 0.5)
        config = ResilienceConfig(partition_policy="retry")
        slow = make_processor(plan=plan, config=config).execute(QUERY)
        assert slow.injected_seconds[2] == pytest.approx(0.5)
        difference = slow.simulated_seconds(cluster) - clean.simulated_seconds(
            cluster
        )
        assert difference >= 0.45  # the delay survives smoothing

    def test_retry_backoff_charged_to_makespan(self):
        from repro import ClusterSpec

        cluster = ClusterSpec(nodes=1, cores_per_node=4, partitions_per_node=4)
        plan = FaultPlan().fail_partition(1, times=2)
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=3),
        )
        result = make_processor(plan=plan, config=config).execute(QUERY)
        # About 0.05 + 0.1 backoff on partition 1, each up to 10% jitter.
        backoff = config.retry.backoff_seconds(1) + config.retry.backoff_seconds(2)
        assert 0.15 <= backoff <= 0.165
        assert result.injected_seconds[1] == pytest.approx(backoff)
        clean = make_processor().execute(QUERY)
        difference = result.simulated_seconds(cluster) - clean.simulated_seconds(
            cluster
        )
        assert difference >= backoff - 0.05


class TestDeterminism:
    def run_once(self):
        plan = FaultPlan(seed=11).fail_partition(0, times=2)
        plan.corrupt_records(2, fraction=0.3)
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=3, seed=11),
            on_exhausted="skip",
        )
        result = make_processor(
            plan=plan, config=config, on_malformed="skip_record"
        ).execute(QUERY)
        return result.items, json.dumps(
            result.degradation.to_dict(), sort_keys=True
        )

    def test_two_runs_identical(self):
        items_a, report_a = self.run_once()
        items_b, report_b = self.run_once()
        assert items_a == items_b
        assert report_a == report_b


class TestConfigValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(partition_policy="shrug")
        with pytest.raises(ValueError):
            ResilienceConfig(on_exhausted="maybe")
