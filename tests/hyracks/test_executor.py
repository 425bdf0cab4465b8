"""Unit tests for the partitioned executor's strategies."""

import json

import pytest

from repro import JsonProcessor
from repro.errors import MemoryBudgetExceededError
from repro.algebra.rules import RewriteConfig
from repro.compiler.pipeline import compile_query
from repro.data.catalog import InMemorySource
from repro.hyracks.cluster import ClusterSpec
from repro.hyracks.executor import PartitionedExecutor

PARTITION_A = """
{"root": [
  {"metadata": {"count": 3}, "results": [
    {"date": "d1", "dataType": "TMIN", "station": "S1", "value": 1},
    {"date": "d1", "dataType": "TMAX", "station": "S1", "value": 9},
    {"date": "d2", "dataType": "TMIN", "station": "S1", "value": 2}
  ]}
]}
"""
PARTITION_B = """
{"root": [
  {"metadata": {"count": 3}, "results": [
    {"date": "d1", "dataType": "TMIN", "station": "S2", "value": 3},
    {"date": "d1", "dataType": "TMAX", "station": "S2", "value": 13},
    {"date": "d2", "dataType": "TMAX", "station": "S1", "value": 22}
  ]}
]}
"""

SELECT_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'where $r("dataType") eq "TMIN" return $r("value")'
)
GROUP_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") return count($r("station"))'
)
JOIN_QUERY = (
    "avg( "
    'for $a in collection("/s")("root")()("results")() '
    'for $b in collection("/s")("root")()("results")() '
    'where $a("station") eq $b("station") and $a("date") eq $b("date") '
    'and $a("dataType") eq "TMIN" and $b("dataType") eq "TMAX" '
    'return $b("value") - $a("value") )'
)


@pytest.fixture
def source():
    return InMemorySource(collections={"/s": [[PARTITION_A], [PARTITION_B]]})


def run(source, query, config=None, **kwargs):
    config = config or RewriteConfig.all()
    executor = PartitionedExecutor(
        source,
        two_step_aggregation=config.two_step_aggregation,
        **kwargs,
    )
    return executor.run(compile_query(query, config).plan)


class TestStrategySelection:
    def test_pipelined_for_selection(self, source):
        result = run(source, SELECT_QUERY)
        assert result.strategy == "pipelined"
        assert sorted(result.items) == [1, 2, 3]
        assert len(result.partition_seconds) == 2

    def test_grouped_two_step(self, source):
        result = run(source, GROUP_QUERY)
        assert result.strategy == "grouped-two-step"
        assert sorted(result.items) == [2, 4]  # d1: 4 readings, d2: 2

    def test_grouped_raw_when_two_step_off(self, source):
        config = RewriteConfig(True, True, True, two_step_aggregation=False)
        result = run(source, GROUP_QUERY, config)
        assert result.strategy == "grouped-raw"
        assert sorted(result.items) == sorted(
            run(source, GROUP_QUERY).items
        )

    def test_hash_join_strategy(self, source):
        result = run(source, JOIN_QUERY)
        assert result.strategy == "hash-join"
        # S1/d1: 9-1=8; S2/d1: 13-3=10; S1/d2: 22-2=20 -> avg 38/3.
        assert result.items == [pytest.approx(38 / 3)]

    def test_join_without_two_step(self, source):
        config = RewriteConfig(True, True, True, two_step_aggregation=False)
        result = run(source, JOIN_QUERY, config)
        assert result.items == [pytest.approx(38 / 3)]

    def test_global_for_naive_plans(self, source):
        result = run(source, SELECT_QUERY, RewriteConfig.none())
        assert result.strategy == "global"
        assert sorted(result.items) == [1, 2, 3]

    def test_constant_query_runs_globally(self, source):
        result = run(source, "1 + 1")
        assert result.strategy == "global"
        assert result.items == [2]

    def test_mismatched_partition_counts_fall_back_to_global(self):
        from repro.data.catalog import InMemorySource

        other = '{"root": [{"results": [{"date": "d1", "dataType": "TMAX", "station": "S1", "value": 7}]}]}'
        source = InMemorySource(
            collections={
                "/s": [[PARTITION_A], [PARTITION_B]],  # 2 partitions
                "/t": [[other]],  # 1 partition
            }
        )
        query = (
            "avg( "
            'for $a in collection("/s")("root")()("results")() '
            'for $b in collection("/t")("root")()("results")() '
            'where $a("station") eq $b("station") and $a("date") eq $b("date") '
            'and $a("dataType") eq "TMIN" and $b("dataType") eq "TMAX" '
            'return $b("value") - $a("value") )'
        )
        result = run(source, query)
        assert result.strategy == "global"
        assert result.items == [pytest.approx(6.0)]  # 7 - 1 on S1/d1


# -- a collection read inside an expression ----------------------------------------

#: 2 partitions x 5 rows: partition p holds v = 5p .. 5p + 4
TEN_ROWS = {
    "/c": [
        ["\n".join(json.dumps({"v": 5 * p + i}) for i in range(5))]
        for p in range(2)
    ]
}
FOR_R = 'for $r in collection("/c") '
COUNT_C = 'count(collection("/c"))'


class TestCollectionReadInAnExpression:
    """A ``collection()`` read in an expression or a nested plan reads the
    whole collection, wherever its operator runs: a partition-local
    instance would see its own share only."""

    @pytest.mark.parametrize(
        "query,items,strategy",
        [
            (FOR_R + f'where $r("v") le 2 return {COUNT_C}', [10] * 3, "global"),
            (
                FOR_R + f'where $r("v") lt {COUNT_C} - 8 return $r("v")',
                [0, 1],
                "global",
            ),
            (
                FOR_R + f"let $n := {COUNT_C} "
                'group by $k := $r("v") mod 2 return ($k, count($r), sum($n))',
                [0, 5, 50, 1, 5, 50],
                "global",
            ),
            (f"sum({FOR_R}return {COUNT_C})", [100], "global"),
            (
                # the read sits above the join, at the coordinator
                FOR_R + 'for $s in collection("/c") '
                f'where $r("v") eq $s("v") return {COUNT_C}',
                [10] * 10,
                "hash-join",
            ),
        ],
        ids=["select", "where", "group-by", "aggregate", "above-join"],
    )
    @pytest.mark.parametrize(
        "config", [RewriteConfig(), RewriteConfig.none()], ids=["all", "none"]
    )
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_every_cell_reads_the_whole_collection(
        self, backend, config, query, items, strategy
    ):
        executor = PartitionedExecutor(
            InMemorySource(collections=TEN_ROWS),
            two_step_aggregation=config.two_step_aggregation,
            backend=backend,
            max_workers=2,
        )
        try:
            result = executor.run(compile_query(query, config).plan)
        finally:
            executor.close()
        assert result.items == items
        assert result.strategy == (
            strategy if config == RewriteConfig() else "global"
        )


class TestCrossPartitionJoin:
    def test_join_matches_across_partitions(self, source):
        # S1/d2 TMIN lives in partition A, its TMAX in partition B; a
        # partition-local join would miss the pair.
        result = run(source, JOIN_QUERY)
        assert result.items == [pytest.approx(38 / 3)]
        assert result.stats.exchange_tuples > 0


class TestMeasurements:
    def test_wall_and_partition_seconds(self, source):
        result = run(source, SELECT_QUERY)
        assert result.wall_seconds > 0
        assert all(s >= 0 for s in result.partition_seconds)

    def test_simulated_seconds_scales_with_cluster(self, source):
        result = run(source, SELECT_QUERY)
        one = result.simulated_seconds(ClusterSpec(nodes=1, partitions_per_node=1))
        two = result.simulated_seconds(ClusterSpec(nodes=2, partitions_per_node=1))
        assert two <= one

    def test_memory_budget_enforced(self, source):
        with pytest.raises(MemoryBudgetExceededError):
            run(
                source,
                SELECT_QUERY,
                RewriteConfig.none(),  # naive: materializes everything
                memory_budget_bytes=100,
            )

    def test_exchange_accounting_grouped(self, source):
        two_step = run(source, GROUP_QUERY)
        config = RewriteConfig(True, True, True, two_step_aggregation=False)
        raw = run(source, GROUP_QUERY, config)
        assert raw.stats.exchange_bytes > two_step.stats.exchange_bytes


# -- what crosses an exchange, in numbers ------------------------------------------

READINGS = [{"station": "HOT", "value": i} for i in range(1200)] + [
    {"station": f"s{i % 30}", "value": i} for i in range(800)
]
BY_STATION = (
    'for $r in collection("/readings")() '
    'group by $s := $r("station") return count($r)'
)


class TestExchangeAccounting:
    """The exchange counters are sized a frame at a time after the scan;
    the numbers are the ones the per-tuple loops counted at the commit
    before that (GROUP-BY exchanges, two-step and raw shipping; a join's
    hash exchange is pinned in ``test_backends.TestKeyedOnceSizedOnce``)."""

    @pytest.mark.parametrize(
        "two_step,tuples,n_bytes,frames",
        [(True, 33, 4224, 1), (False, 2000, 903460, 28)],
        ids=["group", "group-raw"],
    )
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_counts_are_the_per_tuple_loops(
        self, backend, two_step, tuples, n_bytes, frames
    ):
        partitions = 3
        texts = {
            "/readings": [
                [json.dumps(READINGS[start::partitions])]
                for start in range(partitions)
            ]
        }
        config = RewriteConfig(True, True, True, two_step_aggregation=two_step)
        with JsonProcessor(
            source=InMemorySource(texts, stats_sample=10_000),
            rewrite=config, backend=backend, max_workers=2,
        ) as processor:
            profiled = processor.execute(BY_STATION, profile="counter")
            plain = processor.execute(BY_STATION)
        for result in (profiled, plain):
            assert result.stats.exchange_tuples == tuples
            assert result.stats.exchange_bytes == n_bytes
        emitted = [
            node.counters["frames_emitted"]
            for node in profiled.profile.find("GROUP-BY")
            if "frames_emitted" in node.counters
        ]
        assert emitted == [frames]
