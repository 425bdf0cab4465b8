"""Partition policies on the executor: every combination, deterministic."""

import json

import pytest

from repro import (
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    ResilienceConfig,
)
from repro.algebra.rules import RewriteConfig
from repro.errors import ItemTypeError, PartitionExecutionError
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
    source = make_source(on_malformed=on_malformed)
    return JsonProcessor(
        source=source if plan is None else plan.wrap(source),
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

    def test_default_matches_explicit_fail_fast(self):
        default = make_processor().execute(QUERY)
        explicit = make_processor(
            config=ResilienceConfig(max_attempts=1, on_exhausted="fail")
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
        config = ResilienceConfig(max_attempts=3)
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.items == all_values()  # nothing lost
        assert not result.is_partial
        assert result.degradation.is_degraded
        retries = result.degradation.retries
        assert [(r.partition, r.attempt) for r in retries] == [(1, 1), (1, 2)]
        assert result.warnings[0] == (
            "retried partition 1 (attempt 1): injected transient fault on "
            "partition 1 (attempt 1 of 2)"
        )

    def test_retry_exhausted_fails_by_default(self):
        plan = FaultPlan().fail_partition(1, times=10)
        config = ResilienceConfig(max_attempts=3)
        with pytest.raises(PartitionExecutionError) as excinfo:
            make_processor(plan=plan, config=config).execute(QUERY)
        assert excinfo.value.attempts == 3

    def test_retry_exhausted_can_degrade_to_skip(self):
        plan = FaultPlan().fail_partition(1, times=10)
        config = ResilienceConfig(max_attempts=3, on_exhausted="skip")
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.items == [v for v in all_values() if not 100 <= v < 200]
        assert result.is_partial
        (skip,) = result.degradation.skipped_partitions
        assert skip.partition == 1
        assert skip.attempts == 3
        assert skip.collections == ("/events",)

    def test_permanent_fault_not_retried(self):
        plan = FaultPlan().fail_partition(1, permanent=True)
        config = ResilienceConfig(max_attempts=5, on_exhausted="skip")
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.degradation.retries == []  # no pointless retries
        (skip,) = result.degradation.skipped_partitions
        assert skip.attempts == 1

    #: partition 1's number date is the query's own type error
    DATES = {"/events": [['{"d": "2003-12-25T00:00:00"}'], ['{"d": 20031225}']]}
    DATE_QUERY = 'for $r in collection("/events") return string(dateTime($r("d")))'

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_the_querys_own_error_runs_once(self, backend):
        """A type error comes back on every attempt: the partition runs
        once however many attempts it may have, and is failed."""
        config = ResilienceConfig(max_attempts=3)
        with JsonProcessor(
            source=InMemorySource(self.DATES), resilience=config, backend=backend
        ) as processor:
            with pytest.raises(PartitionExecutionError) as excinfo:
                processor.execute(self.DATE_QUERY)
        error = excinfo.value
        assert (error.partition, error.attempts) == (1, 1)
        assert "after" not in str(error)
        assert isinstance(error.__cause__, ItemTypeError)
        assert error.degradation.retries == []

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_the_querys_own_error_is_skipped_after_one_attempt(self, backend):
        config = ResilienceConfig(max_attempts=3, on_exhausted="skip")
        with JsonProcessor(
            source=InMemorySource(self.DATES), resilience=config, backend=backend
        ) as processor:
            result = processor.execute(self.DATE_QUERY)
        assert result.items == ["2003-12-25T00:00:00"]
        assert result.degradation.retries == []
        (skip,) = result.degradation.skipped_partitions
        assert (skip.partition, skip.attempts) == (1, 1)

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_a_transient_fault_still_retries_to_success(self, backend):
        plan = FaultPlan().fail_partition(2, times=2)
        config = ResilienceConfig(max_attempts=3)
        with make_processor(plan=plan, config=config, backend=backend) as p:
            result = p.execute(QUERY)
        assert result.items == all_values()
        assert [(r.partition, r.attempt) for r in result.degradation.retries] == [
            (2, 1),
            (2, 2),
        ]


class TestSkipPartition:
    def test_skips_on_first_failure(self):
        plan = FaultPlan().fail_partition(3, times=1)
        config = ResilienceConfig(on_exhausted="skip")
        result = make_processor(plan=plan, config=config).execute(QUERY)
        assert result.items == [v for v in all_values() if v < 300]
        assert result.degradation.retries == []
        (skip,) = result.degradation.skipped_partitions
        assert skip.partition == 3 and skip.attempts == 1

    def test_aggregate_over_skipped_partition_is_partial(self):
        plan = FaultPlan().fail_partition(0, times=1)
        config = ResilienceConfig(on_exhausted="skip")
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
        config = ResilienceConfig(on_exhausted="skip")
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
        config = ResilienceConfig(max_attempts=2)
        query = (
            'for $r in collection("/events") '
            'group by $k := $r("v") mod 2 '
            "return count($r)"
        )
        clean = make_processor().execute(query)
        faulty = make_processor(plan=plan, config=config).execute(query)
        assert sorted(faulty.items) == sorted(clean.items)
        assert faulty.degradation.retry_count == 1


class TestDeterminism:
    def run_once(self):
        plan = FaultPlan(seed=11).fail_partition(0, times=2)
        plan.corrupt_records(2, fraction=0.3)
        config = ResilienceConfig(max_attempts=3, on_exhausted="skip")
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
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResilienceConfig(on_exhausted="maybe")
