"""Tests for the cost-based join planning phase.

The one decision — the hash join's build side — is exercised through a
real ``JsonProcessor`` over sampled in-memory data, asserting both the
plan annotation (via ``explain``) and that results stay canonically
equal with the cost phase off; a join chain keeps the query's order.  Also covers ``REPRO_COST`` resolution, determinism, and
the inert cases (no stats, unknown collection, cost disabled).
"""

import json

import pytest

from repro import JsonProcessor
from repro.data.catalog import InMemorySource
from repro.stats.cost import COST_ENV_VAR, resolve_cost_enabled


def rows_source(collections, stats_sample=None, partitions=1):
    data = {}
    for name, rows in collections.items():
        parts = [[] for _ in range(partitions)]
        for index, row in enumerate(rows):
            parts[index % partitions].append(row)
        data[name] = [[json.dumps(part)] for part in parts]
    return InMemorySource(data, stats_sample=stats_sample)


def canonical(items):
    return sorted(repr(item) for item in items)


def processor(collections, cost=True, partitions=1, stats_sample=10_000):
    return JsonProcessor(
        source=rows_source(
            collections, stats_sample=stats_sample, partitions=partitions
        ),
        cost=cost,
    )


class TestResolveCostEnabled:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(COST_ENV_VAR, "0")
        assert resolve_cost_enabled(True) is True
        monkeypatch.delenv(COST_ENV_VAR)
        assert resolve_cost_enabled(False) is False

    def test_unset_means_on(self, monkeypatch):
        monkeypatch.delenv(COST_ENV_VAR, raising=False)
        assert resolve_cost_enabled() is True

    @pytest.mark.parametrize("value", ["", "0", "off", "FALSE", " no "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv(COST_ENV_VAR, value)
        assert resolve_cost_enabled() is False

    @pytest.mark.parametrize("value", ["1", "on", "true"])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv(COST_ENV_VAR, value)
        assert resolve_cost_enabled() is True


TINY = [{"k": i, "label": f"t{i}"} for i in range(5)]
BIG = [{"k": i % 5, "v": i} for i in range(120)]

TINY_BIG_JOIN = (
    'for $t in collection("/tiny")() '
    'for $b in collection("/big")() '
    'where $t("k") eq $b("k") '
    'return {"label": $t("label"), "v": $b("v")}'
)

SMALL = [{"k": i % 40, "s": f"s{i}"} for i in range(600)]
LARGE = [{"k": i % 40, "v": i} for i in range(1400)]

SMALL_LARGE_JOIN = (
    'for $a in collection("/small")() '
    'for $b in collection("/large")() '
    'where $a("k") eq $b("k") '
    'return $b("v")'
)


class TestBuildSide:
    def test_tiny_side_is_hash_exchanged_and_built_on(self):
        # 5 rows against 120: both sides still hash-partition, and the
        # tiny left side builds the table.
        explain = processor({"/tiny": TINY, "/big": BIG}).explain(
            TINY_BIG_JOIN, show_trace=True
        )
        assert 'JOIN( $t("k") eq $b("k") ) [build=left]' in explain
        assert "exchange=" not in explain
        assert "CostBuildSide" in explain

    def test_smaller_left_side_becomes_build(self):
        # 600 vs 1400: the left side is cheaper to build a hash table
        # from than the (default) right.
        explain = processor({"/small": SMALL, "/large": LARGE}).explain(
            SMALL_LARGE_JOIN, show_trace=True
        )
        assert "build=left" in explain
        assert "CostBuildSide" in explain

    def test_smaller_right_side_keeps_default(self):
        swapped = (
            'for $a in collection("/large")() '
            'for $b in collection("/small")() '
            'where $a("k") eq $b("k") '
            'return $a("v")'
        )
        explain = processor({"/small": SMALL, "/large": LARGE}).explain(
            swapped
        )
        # Build on the right is the default: no annotation to print.
        assert "build=" not in explain

    def test_results_match_cost_off(self):
        with_cost = processor({"/small": SMALL, "/large": LARGE})
        without = processor({"/small": SMALL, "/large": LARGE}, cost=False)
        assert canonical(with_cost.evaluate(SMALL_LARGE_JOIN)) == canonical(
            without.evaluate(SMALL_LARGE_JOIN)
        )

    def test_tiny_side_results_match_cost_off(self):
        with_cost = processor({"/tiny": TINY, "/big": BIG}, partitions=3)
        without = processor({"/tiny": TINY, "/big": BIG}, cost=False, partitions=3)
        assert canonical(with_cost.evaluate(TINY_BIG_JOIN)) == canonical(
            without.evaluate(TINY_BIG_JOIN)
        )
        assert "build=" not in without.explain(TINY_BIG_JOIN)


# One station carries more than half the probe-side rows.
STATIONS = [{"station": f"s{i % 30}", "name": f"n{i}"} for i in range(599)] + [
    {"station": "HOT", "name": "hub"}
]
READINGS = [{"station": "HOT", "value": i} for i in range(1200)] + [
    {"station": f"s{i % 30}", "value": i} for i in range(800)
]

SKEW_JOIN = (
    'for $s in collection("/stations")() '
    'for $r in collection("/readings")() '
    'where $s("station") eq $r("station") '
    'return $r("value")'
)


class TestSkew:
    """A hot join key hashes to one bucket like every other key."""

    def test_results_match_cost_off(self):
        data = {"/stations": STATIONS, "/readings": READINGS}
        with_cost = processor(data, partitions=2)
        without = processor(data, cost=False, partitions=2)
        assert canonical(with_cost.evaluate(SKEW_JOIN)) == canonical(
            without.evaluate(SKEW_JOIN)
        )


THREE_WAY = (
    'for $b in collection("/big3")() '
    'for $m in collection("/med3")() '
    'for $t in collection("/tiny3")() '
    'where $b("k") eq $m("k") and $m("g") eq $t("g") '
    'return {"v": $b("v"), "label": $t("label")}'
)

THREE_WAY_DATA = {
    "/big3": [{"k": i % 30, "v": i} for i in range(900)],
    "/med3": [{"k": i % 30, "g": i % 3} for i in range(90)],
    "/tiny3": [{"g": i, "label": f"g{i}"} for i in range(3)],
}


class TestJoinOrder:
    """A join chain runs in the order of the query's ``for`` clauses,
    largest input first here: the cost phase re-associates nothing."""

    def test_three_way_chain_keeps_the_query_order(self):
        on_plan = processor(THREE_WAY_DATA).compile(THREE_WAY).plan.explain()
        off_plan = (
            processor(THREE_WAY_DATA, cost=False).compile(THREE_WAY).plan.explain()
        )
        assert on_plan == off_plan
        assert on_plan.index("/big3") < on_plan.index("/med3") < on_plan.index("/tiny3")

    def test_results_match_cost_off(self):
        with_cost = processor(THREE_WAY_DATA)
        without = processor(THREE_WAY_DATA, cost=False)
        assert canonical(with_cost.evaluate(THREE_WAY)) == canonical(
            without.evaluate(THREE_WAY)
        )


class TestDeterminismAndInertCases:
    def test_compile_twice_identical(self):
        proc = processor({"/tiny": TINY, "/big": BIG})
        assert proc.explain(TINY_BIG_JOIN, show_trace=True) == proc.explain(
            TINY_BIG_JOIN, show_trace=True
        )

    def test_no_stats_leaves_plan_alone(self):
        proc = processor({"/tiny": TINY, "/big": BIG}, stats_sample=0)
        assert "build=" not in proc.explain(TINY_BIG_JOIN)

    def test_cost_off_via_env(self, monkeypatch):
        monkeypatch.setenv(COST_ENV_VAR, "")
        proc = processor({"/tiny": TINY, "/big": BIG}, cost=None)
        assert proc.cost is False
        assert "build=" not in proc.explain(TINY_BIG_JOIN)

    def test_unknown_collection_compiles(self):
        proc = processor({"/tiny": TINY})
        compiled = proc.compile(
            'for $a in collection("/ghost")() return $a("k")'
        )
        assert compiled.stats_fingerprint is not None

    def test_fingerprint_recorded_on_compiled_query(self):
        proc = processor({"/tiny": TINY, "/big": BIG})
        compiled = proc.compile(TINY_BIG_JOIN)
        assert (
            compiled.stats_fingerprint
            == proc.source.stats_snapshot().fingerprint()
        )
        off = processor({"/tiny": TINY, "/big": BIG}, cost=False)
        assert off.compile(TINY_BIG_JOIN).stats_fingerprint is None
