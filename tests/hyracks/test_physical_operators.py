"""Unit tests for physical operator execution."""

import pytest

from repro.errors import ItemTypeError, PlanError, ReproError
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import (
    AndExpr,
    ComparisonExpr,
    IterateExpr,
    Literal,
    TRUE_LITERAL,
    VariableRef,
    value_by_key,
)
from repro.algebra.operators import (
    Aggregate,
    AggregateSpec,
    Assign,
    DataScan,
    DistributeResult,
    EmptyTupleSource,
    GroupBy,
    Join,
    NestedTupleSource,
    Select,
    Subplan,
    Unnest,
)
from repro.algebra.plan import LogicalPlan
from repro.data.catalog import InMemorySource
from repro.hyracks.executor import ExecutionStats
from repro.hyracks.memory import MemoryTracker
from repro.jsonlib.items import canonical_key, sizeof_item
from repro.hyracks.operators import (
    execute,
    run_operator,
    run_plan,
    split_join_condition,
)


class StreamSource:
    """A source with ``scan_collection`` only: *good* rows, then *last*
    (if any), then *fail* (if any); counts its pulls and closes."""

    def __init__(self, good, last=None, fail=None):
        self.good, self.last, self.fail = good, last, fail
        self.pulled = self.closed = 0

    def scan_collection(self, name, path, partition=None, report=None):
        try:
            for i in range(self.good):
                self.pulled += 1
                yield {"n": i}
            if self.last is not None:
                yield self.last
            if self.fail is not None:
                raise self.fail
        finally:
            self.closed += 1


def ctx_with(texts=None, **kwargs):
    source = None
    if texts is not None:
        source = InMemorySource(collections={"/c": [texts]})
    return EvaluationContext(source=source, **kwargs)


class TestBasicOperators:
    def test_empty_tuple_source(self):
        assert list(execute(EmptyTupleSource(), ctx_with())) == [{}]

    def test_assign(self):
        op = Assign(EmptyTupleSource(), "x", Literal.of(5))
        assert list(execute(op, ctx_with())) == [{"x": [5]}]

    def test_assign_does_not_mutate_input(self):
        source = [{"a": [1]}]
        op = Assign(EmptyTupleSource(), "b", Literal.of(2))
        list(run_operator(op, source, ctx_with()))
        assert source == [{"a": [1]}]

    def test_unnest_fans_out(self):
        op = Unnest(
            Assign(EmptyTupleSource(), "s", Literal([1, 2, 3])),
            "x",
            IterateExpr(VariableRef("s")),
        )
        values = [t["x"] for t in execute(op, ctx_with())]
        assert values == [[1], [2], [3]]

    def test_unnest_empty_sequence_drops_tuple(self):
        op = Unnest(
            Assign(EmptyTupleSource(), "s", Literal([])),
            "x",
            IterateExpr(VariableRef("s")),
        )
        assert list(execute(op, ctx_with())) == []

    def test_select(self):
        source = [{"v": [1]}, {"v": [0]}, {"v": [2]}]
        op = Select(EmptyTupleSource(), VariableRef("v"))
        out = list(run_operator(op, source, ctx_with()))
        assert [t["v"] for t in out] == [[1], [2]]

    def test_aggregate_single_tuple(self):
        source = [{"v": [1]}, {"v": [2]}]
        op = Aggregate(
            EmptyTupleSource(), [AggregateSpec("n", "count", VariableRef("v"))]
        )
        assert list(run_operator(op, source, ctx_with())) == [{"n": [2]}]

    def test_aggregate_on_empty_stream(self):
        op = Aggregate(
            EmptyTupleSource(), [AggregateSpec("n", "count", VariableRef("v"))]
        )
        assert list(run_operator(op, iter([]), ctx_with())) == [{"n": [0]}]

    def test_nested_tuple_source_outside_nested_plan(self):
        with pytest.raises(PlanError):
            list(execute(NestedTupleSource(), ctx_with()))


class TestDataScan:
    def test_scan_projects(self):
        from repro.jsonlib.path import parse_path

        texts = ['{"a": [1, 2]}', '{"a": [3]}']
        scan = DataScan("/c", "x", parse_path('("a")()'))
        out = list(execute(scan, ctx_with(texts)))
        assert [t["x"] for t in out] == [[1], [2], [3]]

    def test_scan_updates_stats(self):
        from repro.jsonlib.path import parse_path

        stats = ExecutionStats()
        ctx = EvaluationContext(
            source=InMemorySource(collections={"/c": [['{"a": [1, 2]}']]}),
            stats=stats,
        )
        scan = DataScan("/c", "x", parse_path('("a")()'))
        list(execute(scan, ctx))
        assert stats.items_scanned == 2
        assert stats.scanned_item_bytes > 0

    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("good", [0, 3, 256, 300, 512])
    def test_rows_before_a_scan_error_come_out_before_it(self, good, track):
        source = StreamSource(good, fail=ReproError("scan broke"))
        stats = ExecutionStats() if track else None
        stream = execute(DataScan("/c", "x", ()), EvaluationContext(source=source, stats=stats))
        taken = []
        with pytest.raises(ReproError, match="scan broke"):
            for tup in stream:
                taken.append(tup["x"][0])
        assert taken == [{"n": i} for i in range(good)]
        assert source.closed == 1
        if track:
            assert stats.items_scanned == good
            assert stats.scanned_item_bytes == good * sizeof_item({"n": 0})

    @pytest.mark.parametrize("pull", [1, 255, 256, 257, 600])
    def test_closing_the_scan_closes_the_stream_under_it(self, pull):
        source = StreamSource(1000)
        stats = ExecutionStats()
        stream = execute(DataScan("/c", "x", ()), EvaluationContext(source=source, stats=stats))
        for _ in range(pull):
            next(stream)
        assert source.closed == 0
        stream.close()
        assert source.closed == 1
        assert stats.items_scanned == pull
        # the scan ran ahead of its consumer by less than one frame
        assert pull <= source.pulled < pull + 256

    def test_a_value_that_is_no_item_is_still_rejected(self):
        source = StreamSource(300, last=object())
        ctx = EvaluationContext(source=source, stats=ExecutionStats())
        with pytest.raises(ItemTypeError):
            list(execute(DataScan("/c", "x", ()), ctx))
        assert source.closed == 1


class TestSubplanAndGroupBy:
    def test_subplan_binds_aggregate(self):
        nested = Aggregate(
            Unnest(NestedTupleSource(), "j", IterateExpr(VariableRef("s"))),
            [AggregateSpec("c", "count", VariableRef("j"))],
        )
        op = Subplan(EmptyTupleSource(), nested)
        source = [{"s": [[1], [2], [3]]}, {"s": []}]
        out = list(run_operator(op, source, ctx_with()))
        assert [t["c"] for t in out] == [[3], [0]]

    def test_group_by_incremental(self):
        nested = Aggregate(
            NestedTupleSource(), [AggregateSpec("n", "count", VariableRef("v"))]
        )
        op = GroupBy(EmptyTupleSource(), [("k", VariableRef("k"))], nested)
        source = [
            {"k": ["a"], "v": [1]},
            {"k": ["b"], "v": [2]},
            {"k": ["a"], "v": [3]},
        ]
        out = sorted(
            run_operator(op, source, ctx_with()), key=lambda t: t["k"][0]
        )
        assert out == [{"k": ["a"], "n": [2]}, {"k": ["b"], "n": [1]}]

    def test_group_by_general_nested_plan(self):
        # A GROUP-BY's nested plan is always AGGREGATE directly over
        # NESTED-TUPLE-SOURCE; any other shape is refused when the plan
        # is built, so no runtime path materializes group member lists.
        nested = Aggregate(
            Unnest(NestedTupleSource(), "j", IterateExpr(VariableRef("v"))),
            [AggregateSpec("n", "count", VariableRef("j"))],
        )
        with pytest.raises(PlanError, match="NESTED-TUPLE-SOURCE"):
            GroupBy(EmptyTupleSource(), [("k", VariableRef("k"))], nested)
        flat = Aggregate(
            NestedTupleSource(), [AggregateSpec("n", "count", VariableRef("k"))]
        )
        with pytest.raises(PlanError, match="NESTED-TUPLE-SOURCE"):
            GroupBy(EmptyTupleSource(), [("k", VariableRef("k"))], nested.input_op)
        group = GroupBy(EmptyTupleSource(), [("k", VariableRef("k"))], flat)
        with pytest.raises(PlanError, match="NESTED-TUPLE-SOURCE"):
            group.with_nested_root(nested)

    def test_group_key_distinguishes_types(self):
        nested = Aggregate(
            NestedTupleSource(), [AggregateSpec("n", "count", VariableRef("k"))]
        )
        op = GroupBy(EmptyTupleSource(), [("k", VariableRef("k"))], nested)
        source = [{"k": [1]}, {"k": ["1"]}, {"k": [True]}]
        assert len(list(run_operator(op, source, ctx_with()))) == 3


class TestJoin:
    def join_plan(self, condition):
        left = Unnest(
            Assign(EmptyTupleSource(), "ls", Literal([{"k": 1, "a": 10}, {"k": 2, "a": 20}])),
            "l",
            IterateExpr(VariableRef("ls")),
        )
        right = Unnest(
            Assign(EmptyTupleSource(), "rs", Literal([{"k": 1, "b": 100}, {"k": 3, "b": 300}])),
            "r",
            IterateExpr(VariableRef("rs")),
        )
        return Join(left, right, condition)

    def test_hash_join_on_equality(self):
        condition = ComparisonExpr(
            "eq",
            value_by_key(VariableRef("l"), "k"),
            value_by_key(VariableRef("r"), "k"),
        )
        out = list(execute(self.join_plan(condition), ctx_with()))
        assert len(out) == 1
        assert out[0]["l"] == [{"k": 1, "a": 10}]
        assert out[0]["r"] == [{"k": 1, "b": 100}]

    def test_cross_product(self):
        out = list(execute(self.join_plan(TRUE_LITERAL), ctx_with()))
        assert len(out) == 4

    def test_join_with_residual(self):
        condition = AndExpr(
            [
                ComparisonExpr(
                    "eq",
                    value_by_key(VariableRef("l"), "k"),
                    value_by_key(VariableRef("r"), "k"),
                ),
                ComparisonExpr(
                    "lt",
                    value_by_key(VariableRef("l"), "a"),
                    value_by_key(VariableRef("r"), "b"),
                ),
            ]
        )
        out = list(execute(self.join_plan(condition), ctx_with()))
        assert len(out) == 1

    def test_join_charges_memory(self):
        tracker = MemoryTracker()
        ctx = EvaluationContext(memory=tracker)
        list(execute(self.join_plan(TRUE_LITERAL), ctx))
        assert tracker.peak > 0
        assert tracker.used == 0  # released after the probe

    def test_split_join_condition(self):
        condition = AndExpr(
            [
                ComparisonExpr(
                    "eq",
                    value_by_key(VariableRef("r"), "k"),  # flipped sides
                    value_by_key(VariableRef("l"), "k"),
                ),
                ComparisonExpr("eq", VariableRef("l"), VariableRef("l")),
            ]
        )
        join = self.join_plan(condition)
        left_keys, right_keys, residual = split_join_condition(join)
        assert len(left_keys) == len(right_keys) == 1
        assert left_keys[0].free_variables() == {"l"}
        assert right_keys[0].free_variables() == {"r"}
        assert len(residual) == 1


class TestRunPlan:
    def test_run_plan_concatenates_results(self):
        op = Unnest(
            Assign(EmptyTupleSource(), "s", Literal([1, 2])),
            "x",
            IterateExpr(VariableRef("s")),
        )
        plan = LogicalPlan(DistributeResult(op, [VariableRef("x")]))
        assert run_plan(plan, ctx_with()) == [1, 2]

    def test_run_plan_requires_distribute_root(self):
        with pytest.raises(PlanError):
            run_plan(LogicalPlan(EmptyTupleSource()), ctx_with())


class TestCanonicalKeys:
    def test_atomics(self):
        assert canonical_key([1]) != canonical_key(["1"])
        assert canonical_key([True]) != canonical_key([1])
        assert canonical_key([1.0]) == canonical_key([1.0])

    def test_containers_by_content(self):
        assert canonical_key([{"a": 1}]) == canonical_key([{"a": 1}])
        assert canonical_key([[1, 2]]) != canonical_key([[2, 1]])

    def test_sequences(self):
        assert canonical_key([1, 2]) != canonical_key([1])
