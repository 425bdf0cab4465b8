"""Group-by on absent and null grouping keys, pinned across engines.

A record whose grouping key navigates to the empty sequence forms its
own group (the ``()`` canonical key), records with a ``null`` key group
together, and value-equal int/float keys share a group — identically in
the sequential path, the hash-exchange parallel paths, and with
two-step aggregation on or off.
"""

from __future__ import annotations

import pytest

from repro.algebra.rules import RewriteConfig
from repro.processor import JsonProcessor

RECORDS = [
    '{"results": [{"g": "a", "v": 1}, {"g": "a", "v": 2}]}',
    '{"results": [{"g": null, "v": 3}, {"v": 4}]}',
    '{"results": [{"g": null, "v": 5}, {"v": 6}, {"g": 1, "v": 7}]}',
    '{"results": [{"g": 1.0, "v": 8}]}',
]

QUERY = (
    'for $m in collection("/c")("results")() '
    'group by $g := $m("g") '
    "return count($m)"
)

# Groups: "a" -> {1,2}; null -> {3,5}; missing -> {4,6}; 1 == 1.0 -> {7,8}.
EXPECTED_COUNTS = sorted([2, 2, 2, 2])

SUM_QUERY = (
    'for $m in collection("/c")("results")() '
    'group by $g := $m("g") '
    'return sum($m("v"))'
)

EXPECTED_SUMS = sorted([3, 8, 10, 15])


def _partitions():
    # Two partitions so the hash exchange actually redistributes
    # same-key records across partition boundaries.
    return [[f"{RECORDS[0]}\n{RECORDS[1]}"], [f"{RECORDS[2]}\n{RECORDS[3]}"]]


@pytest.mark.parametrize("backend", ["sequential", "process"])
@pytest.mark.parametrize("two_step", [True, False], ids=["2step", "1step"])
@pytest.mark.parametrize(
    "query, expected",
    [(QUERY, EXPECTED_COUNTS), (SUM_QUERY, EXPECTED_SUMS)],
    ids=["count", "sum"],
)
def test_absent_and_null_keys_group_consistently(
    backend, two_step, query, expected
):
    rewrite = RewriteConfig(two_step_aggregation=two_step)
    with JsonProcessor.in_memory(
        collections={"/c": _partitions()},
        rewrite=rewrite,
        backend=backend,
        max_workers=2,
    ) as processor:
        result = processor.evaluate(query)
    assert sorted(result) == expected


@pytest.mark.parametrize("backend", ["sequential", "process"])
def test_missing_key_group_distinct_from_null_group(backend):
    """count($m("g")) separates them: the null group counts its null
    values, the missing group counts nothing."""
    query = (
        'for $m in collection("/c")("results")() '
        'group by $g := $m("g") '
        'return count($m("g"))'
    )
    with JsonProcessor.in_memory(
        collections={"/c": _partitions()},
        backend=backend,
        max_workers=2,
    ) as processor:
        result = processor.evaluate(query)
    # "a" group: 2 values; null group: 2 nulls (counted); missing
    # group: 0; numeric group: 2.
    assert sorted(result) == [0, 2, 2, 2]


def test_groups_match_between_all_rules_and_no_rules():
    with JsonProcessor.in_memory(
        collections={"/c": _partitions()}
    ) as processor:
        with_rules = processor.evaluate(QUERY)
    with JsonProcessor.in_memory(
        collections={"/c": _partitions()}, rewrite=RewriteConfig.none()
    ) as processor:
        without_rules = processor.evaluate(QUERY)
    assert sorted(with_rules) == sorted(without_rules) == EXPECTED_COUNTS
