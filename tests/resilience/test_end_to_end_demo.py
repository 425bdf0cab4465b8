"""The acceptance demo: a degraded query survives and reports exactly.

A 4-partition collection where one partition fails transiently twice
and ~1% of another partition's records are injected-corrupt runs to
completion under ``max_attempts=3`` + ``skip_record``, returns the correct
surviving items, and its degradation report lists exactly the injected
faults — byte-identical across two runs with the same seed.
"""

import json

from repro import (
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    ResilienceConfig,
)

SEED = 7
PARTITIONS = 4
RECORDS = 200
QUERY = 'for $r in collection("/events") return $r("v")'


def make_plan():
    plan = FaultPlan(seed=SEED)
    plan.fail_partition(2, times=2)
    plan.corrupt_records(1, fraction=0.01)
    return plan


def run_demo():
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
    source = InMemorySource(collections, on_malformed="skip_record")
    processor = JsonProcessor(
        source=make_plan().wrap(source),
        resilience=ResilienceConfig(max_attempts=3),
    )
    result = processor.execute(QUERY)
    return result, json.dumps(result.degradation.to_dict(), sort_keys=True)


def expected_corrupt_indices():
    plan = make_plan()
    return [
        i
        for i in range(RECORDS)
        if plan.should_corrupt("/events", 1, i)
    ]


def test_demo_runs_to_completion_with_exact_degradation():
    corrupted = expected_corrupt_indices()
    assert corrupted, "seed must corrupt at least one record"
    result, _ = run_demo()

    expected_items = [
        p * 1000 + i
        for p in range(PARTITIONS)
        for i in range(RECORDS)
        if not (p == 1 and i in corrupted)
    ]
    assert result.items == expected_items
    assert result.strategy == "pipelined"

    report = result.degradation
    # Exactly the injected transient faults, retried away.
    assert [(r.partition, r.attempt) for r in report.retries] == [(2, 1), (2, 2)]
    # Exactly the injected corrupt records, skipped.
    assert [rec.offset for rec in report.skipped_records] == corrupted
    assert all(
        rec.source == "/events[partition 1]" for rec in report.skipped_records
    )
    # Nothing else degraded.
    assert report.skipped_partitions == []
    assert report.skipped_files == []
    assert result.is_partial  # records were dropped


def test_demo_is_byte_identical_across_runs():
    _, report_a = run_demo()
    _, report_b = run_demo()
    assert report_a == report_b
