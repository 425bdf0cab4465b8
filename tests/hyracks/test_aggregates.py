"""Unit tests for the aggregate accumulators, driven the one way the
runtime drives them: :class:`GroupStates` over a list of states."""

import itertools
import json
import math

import pytest

from repro import InMemorySource, JsonProcessor
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import VariableRef
from repro.algebra.operators import AggregateSpec
from repro.algebra.rules import RewriteConfig
from repro.errors import ItemDepthError, ItemTypeError, ReproError
from repro.hyracks.aggregates import (
    CountAccumulator,
    GroupStates,
    SumAccumulator,
)
from repro.hyracks.memory import MemoryTracker
from repro.jsonlib.items import MAX_KEY_DEPTH
from repro.jsoniq.functions import BUILTIN_FUNCTIONS

CTX = EvaluationContext()


def spec(function, variable="out"):
    return AggregateSpec(variable, function, VariableRef("x"))


def tuples(values):
    return [{"x": [value]} for value in values]


def partials(function, stream, ctx=CTX):
    """*function* over *stream*, folded as a partition folds it: the
    partials of the one group of no keys."""
    aggregates = GroupStates([spec(function)], ctx)
    table = aggregates.fold_table(stream, ctx)
    assert list(table) == [()]
    key_values, folded = table[()]
    assert key_values == ()
    return folded


def value(function, folded, ctx=CTX):
    """The final value of the partials *folded*."""
    return GroupStates([spec(function)], ctx).bindings(folded, (), ())["out"]


def aggregate(function, values, ctx=CTX):
    return value(function, partials(function, tuples(values), ctx), ctx)


class TestAccumulators:
    def test_count(self):
        assert aggregate("count", [1, 2, 3]) == [3]

    def test_count_counts_items_not_tuples(self):
        folded = partials("count", [{"x": [1, 2]}, {"x": []}])
        assert value("count", folded) == [2]

    def test_sum(self):
        assert aggregate("sum", [1, 2, 3.5]) == [6.5]

    def test_sum_empty_is_zero(self):
        assert aggregate("sum", []) == [0]

    def test_avg(self):
        assert aggregate("avg", [2, 4, 6]) == [4]

    def test_avg_empty_is_empty(self):
        assert aggregate("avg", []) == []

    def test_min_max(self):
        assert aggregate("min", [3, 1, 2]) == [1]
        assert aggregate("max", [3, 1, 2]) == [3]

    def test_sequence(self):
        assert aggregate("sequence", ["a", "b"]) == ["a", "b"]

    def test_sequence_charges_and_releases_memory(self):
        tracker = MemoryTracker()
        ctx = EvaluationContext(memory=tracker)
        aggregates = GroupStates([spec("sequence")], ctx)
        states = aggregates.new()
        for tup in tuples(["payload"] * 10):
            aggregates.add(states, tup, ctx)
        assert tracker.used > 0
        aggregates.take(states, ctx)
        assert tracker.used == 0
        assert tracker.peak > 0
        assert states == [["payload"] * 10]


class TestPartialCombine:
    """Two-step aggregation: split the stream, fold partials, combine."""

    @pytest.mark.parametrize(
        "function,values",
        [
            ("count", [1, 2, 3, 4, 5]),
            ("sum", [1.5, 2, 3, -4]),
            ("avg", [2, 4, 6, 8, 10]),
            ("min", [5, 3, 8, 1]),
            ("max", [5, 3, 8, 1]),
            ("sequence", ["a", "b", "c", "d"]),
        ],
    )
    def test_split_equals_whole(self, function, values):
        expected = aggregate(function, values)
        aggregates = GroupStates([spec(function)], CTX)
        combined = aggregates.take(aggregates.new(), CTX)
        aggregates.merge(combined, partials(function, tuples(values[:2])))
        aggregates.merge(combined, partials(function, tuples(values[2:])))
        assert value(function, combined) == expected

    def test_minmax_absorb_empty_partial(self):
        folded = partials("min", tuples([7]))
        GroupStates([spec("min")], CTX).merge(folded, partials("min", []))
        assert value("min", folded) == [7]

    def test_group_states_keep_spec_order(self):
        aggregates = GroupStates([spec("count", "n"), spec("sum", "s")], CTX)
        assert aggregates.classes == [CountAccumulator, SumAccumulator]
        _, folded = aggregates.fold_table(tuples([2, 3]), CTX)[()]
        bindings = aggregates.bindings(folded, (), ())
        assert list(bindings.items()) == [("n", [2]), ("s", [5])]


class TestTypeChecks:
    """The accumulators check values like the scalar builtins do, so a
    query answers the same whether or not the rewrite rules pushed its
    aggregate into an accumulator (``RewriteConfig.all()`` vs
    ``.none()``), on every backend."""

    @pytest.mark.parametrize("function", ["sum", "avg", "min", "max"])
    @pytest.mark.parametrize(
        "value,type_name", [("x", "string"), (True, "boolean"), (None, "null")]
    )
    def test_accumulator_rejects_like_the_builtin(self, function, value, type_name):
        message = rf"{function}\(\) expects a number, got {type_name}"
        with pytest.raises(ItemTypeError, match=message):
            BUILTIN_FUNCTIONS[(function, 1)]([[1, value]])
        aggregates = GroupStates([spec(function)], CTX)
        states = aggregates.new()
        aggregates.add(states, {"x": [1]}, CTX)
        with pytest.raises(ItemTypeError, match=message):
            aggregates.add(states, {"x": [value]}, CTX)

    QUERIES = {
        "grouped": 'for $r in collection("/c") group by $k := $r("b") '
        'return {function}($r("{key}"))',
        "ungrouped": '{function}(for $r in collection("/c") return $r("{key}"))',
    }

    @staticmethod
    def execute(query, config, backend):
        rows = [{"a": "x", "n": 4, "b": 1}, {"a": "y", "n": 1.5, "b": 1}]
        text = "\n".join(json.dumps(row) for row in rows)
        source = InMemorySource(collections={"/c": [[text], [text]]})
        with JsonProcessor(source=source, rewrite=config, backend=backend) as processor:
            return processor.execute(query).items

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("rewrites", ["all", "none"])
    @pytest.mark.parametrize("shape", ["grouped", "ungrouped"])
    @pytest.mark.parametrize("function", ["sum", "avg", "min", "max"])
    def test_query_over_strings_raises_item_type_error(
        self, function, shape, rewrites, backend
    ):
        query = self.QUERIES[shape].replace("{function}", function).replace("{key}", "a")
        config = getattr(RewriteConfig, rewrites)()
        with pytest.raises(ReproError) as excinfo:
            self.execute(query, config, backend)
        # Raised at the coordinator it is the error itself; raised in a
        # partition it arrives as the PartitionExecutionError's cause.
        error = excinfo.value
        if not isinstance(error, ItemTypeError):
            error = error.__cause__
        assert isinstance(error, ItemTypeError)
        assert str(error) == f"{function}() expects a number, got string"

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("shape", ["grouped", "ungrouped"])
    @pytest.mark.parametrize(
        "function,expected", [("sum", 11), ("avg", 2.75), ("min", 1.5), ("max", 4)]
    )
    def test_numbers_answer_the_same_under_both_configs(
        self, function, expected, shape, backend
    ):
        query = self.QUERIES[shape].replace("{function}", function).replace("{key}", "n")
        for config in (RewriteConfig.all(), RewriteConfig.none()):
            assert self.execute(query, config, backend) == [expected]


class TestNaNAbsorbs:
    """``min``/``max`` over a NaN answer NaN (F&O 3.1), whatever the
    order of the records, their partitioning, or the rewrites."""

    ROWS = ['{"v": 1}', '{"v": 1e400}', '{"v": 3}']  # 1e400 - 1e400 is NaN

    @pytest.mark.parametrize("function", ["min", "max"])
    def test_builtin_and_accumulator(self, function):
        pick = BUILTIN_FUNCTIONS[(function, 1)]
        nan = float("nan")
        for values in itertools.permutations([1, nan, 3]):
            (answer,) = pick([list(values)])
            assert math.isnan(answer)
            (answer,) = aggregate(function, values)
            assert math.isnan(answer)
        aggregates = GroupStates([spec(function)], CTX)
        for left, right in ([nan], [2]), ([2], [nan]):
            merged = list(left)
            aggregates.merge(merged, right)
            assert math.isnan(merged[0])

    @pytest.mark.parametrize("rewrites", ["all", "none"])
    @pytest.mark.parametrize("function", ["min", "max"])
    def test_query_answers_nan_in_every_order(self, function, rewrites):
        query = (
            f'{function}(for $r in collection("/c") '
            'return $r("v") - $r("v"))'
        )
        config = getattr(RewriteConfig, rewrites)()
        for rows in itertools.permutations(self.ROWS):
            for cut in (None, 1, 2):
                parts = [rows] if cut is None else [rows[:cut], rows[cut:]]
                source = InMemorySource(
                    collections={"/c": [["\n".join(part)] for part in parts]}
                )
                with JsonProcessor(source=source, rewrite=config) as processor:
                    items = processor.execute(query).items
                assert len(items) == 1 and math.isnan(items[0]), (rows, cut, items)


class TestDeepGroupingKey:
    """A grouping key nested past ``MAX_KEY_DEPTH`` is a typed error,
    worded the same on every backend, not a bare ``RecursionError``."""

    QUERY = (
        'for $r in collection("/c")() group by $k := $r("k") '
        "return count($r)"
    )

    @staticmethod
    def execute(depth, backend):
        key = "[" * depth + "1" + "]" * depth
        text = "[%s]" % ", ".join(['{"k": %s}' % key] * 3)
        source = InMemorySource(collections={"/c": [[text]]})
        with JsonProcessor(source=source, backend=backend) as processor:
            return processor.execute(TestDeepGroupingKey.QUERY).items

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_deep_key_raises_item_depth_error(self, backend):
        with pytest.raises(ReproError) as excinfo:
            self.execute(600, backend)
        error = excinfo.value
        if not isinstance(error, ItemDepthError):
            error = error.__cause__
        assert isinstance(error, ItemDepthError)
        assert str(error) == (
            f"a key nested deeper than {MAX_KEY_DEPTH} levels"
        )

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_key_within_the_bound_groups(self, backend):
        assert self.execute(300, backend) == [3]
