"""Unit tests for aggregate accumulators and their partial/combine split."""

import json

import pytest

from repro import InMemorySource, JsonProcessor
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import VariableRef
from repro.algebra.operators import AggregateSpec
from repro.algebra.rules import RewriteConfig
from repro.errors import ItemDepthError, ItemTypeError, ReproError
from repro.hyracks.aggregates import make_accumulators
from repro.hyracks.memory import MemoryTracker
from repro.jsonlib.items import MAX_KEY_DEPTH
from repro.jsoniq.functions import BUILTIN_FUNCTIONS

CTX = EvaluationContext()


def spec(function):
    return AggregateSpec("out", function, VariableRef("x"))


def make_accumulator(aggregate_spec, ctx=CTX):
    (accumulator,) = make_accumulators([aggregate_spec], ctx)
    return accumulator


def feed(accumulator, values, ctx=CTX):
    for value in values:
        accumulator.add({"x": [value]}, ctx)


class TestAccumulators:
    def test_count(self):
        acc = make_accumulator(spec("count"))
        feed(acc, [1, 2, 3])
        assert acc.finish(CTX) == [3]

    def test_count_counts_items_not_tuples(self):
        acc = make_accumulator(spec("count"))
        acc.add({"x": [1, 2]}, CTX)
        acc.add({"x": []}, CTX)
        assert acc.finish(CTX) == [2]

    def test_sum(self):
        acc = make_accumulator(spec("sum"))
        feed(acc, [1, 2, 3.5])
        assert acc.finish(CTX) == [6.5]

    def test_sum_empty_is_zero(self):
        acc = make_accumulator(spec("sum"))
        assert acc.finish(CTX) == [0]

    def test_avg(self):
        acc = make_accumulator(spec("avg"))
        feed(acc, [2, 4, 6])
        assert acc.finish(CTX) == [4]

    def test_avg_empty_is_empty(self):
        acc = make_accumulator(spec("avg"))
        assert acc.finish(CTX) == []

    def test_min_max(self):
        low = make_accumulator(spec("min"))
        high = make_accumulator(spec("max"))
        feed(low, [3, 1, 2])
        feed(high, [3, 1, 2])
        assert low.finish(CTX) == [1]
        assert high.finish(CTX) == [3]

    def test_sequence(self):
        acc = make_accumulator(spec("sequence"))
        feed(acc, ["a", "b"])
        assert acc.finish(CTX) == ["a", "b"]

    def test_sequence_charges_and_releases_memory(self):
        tracker = MemoryTracker()
        ctx = EvaluationContext(memory=tracker)
        acc = make_accumulator(spec("sequence"))
        feed(acc, ["payload"] * 10, ctx)
        assert tracker.used > 0
        acc.finish(ctx)
        assert tracker.used == 0
        assert tracker.peak > 0


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
        whole = make_accumulator(spec(function))
        feed(whole, values)
        expected = whole.finish(CTX)

        left = make_accumulator(spec(function))
        right = make_accumulator(spec(function))
        feed(left, values[:2])
        feed(right, values[2:])
        combined = make_accumulator(spec(function))
        combined.absorb(left.partial())
        combined.absorb(right.partial())
        assert combined.finish(CTX) == expected

    def test_minmax_absorb_empty_partial(self):
        acc = make_accumulator(spec("min"))
        empty = make_accumulator(spec("min"))
        feed(acc, [7])
        acc.absorb(empty.partial())
        assert acc.finish(CTX) == [7]

    def test_make_accumulators_order(self):
        accs = make_accumulators([spec("count"), spec("sum")], CTX)
        assert [a.spec.function for a in accs] == ["count", "sum"]


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
        acc = make_accumulator(spec(function))
        acc.add({"x": [1]}, CTX)
        with pytest.raises(ItemTypeError, match=message):
            acc.add({"x": [value]}, CTX)

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
