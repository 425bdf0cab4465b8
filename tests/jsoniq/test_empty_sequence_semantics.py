"""Empty-sequence semantics: comparisons and functions over ``()``.

XQuery 3.1 §3.7.2 (general comparisons): a general comparison where one
operand is the empty sequence is **false** — there is no pair of items
to satisfy the comparison — so a predicate on a missing object key must
silently select nothing, never raise or coerce to null.  The same rule
makes an equi-join drop tuples whose key is missing: ``() eq ()`` is
false, so two records both lacking the join key must NOT match.

XPath F&O: string functions with ``xs:string?`` parameters treat an
empty-sequence argument as the zero-length string (5.4.7/5.4.8
upper/lower-case, 5.5.1 contains, 5.5.2 starts-with, 5.4.3 substring);
``fn:number(())`` is NaN (4.5.1), which this NaN-free engine maps to
the empty sequence.
"""

import pytest

from repro import JsonProcessor
from repro.jsoniq.functions import BUILTIN_FUNCTIONS


def call(name, *args):
    return BUILTIN_FUNCTIONS[(name, len(args))](list(args))


RECORDS = (
    '{"station": "S1", "value": 4}\n'
    '{"station": "S2"}\n'  # no value key
    '{"station": "S3", "value": null}\n'
    '{"value": 9}'  # no station key
)


@pytest.fixture
def processor():
    return JsonProcessor.in_memory(collections={"/m": [[RECORDS]]})


def q(processor, body):
    return processor.evaluate(f'for $m in collection("/m") {body}')


class TestGeneralComparisonWithEmpty:
    def test_predicate_on_missing_key_is_false(self, processor):
        # $m("value") is () for S2; the comparison must be false, not an
        # error and not a null coercion.
        got = q(processor, 'where $m("value") eq 4 return $m("station")')
        assert got == ["S1"]

    def test_ordering_comparison_with_missing_key(self, processor):
        # S2 (no value) is filtered out; the matching record without a
        # station returns (), which contributes nothing.
        got = q(processor, 'where $m("value") gt 3 return $m("station")')
        assert got == ["S1"]

    def test_ne_against_missing_key_is_also_false(self, processor):
        # () ne anything is false too — no pair of items exists.  null
        # ne 4 is true (null is an item, incomparable to a number).
        got = q(processor, 'where $m("value") ne 4 return $m("station")')
        assert got == ["S3"]

    def test_literal_empty_comparisons(self):
        processor = JsonProcessor()
        assert processor.evaluate("if (() eq ()) then 1 else 2") == [2]
        assert processor.evaluate("if (1 eq ()) then 1 else 2") == [2]
        assert processor.evaluate("if (() ne 1) then 1 else 2") == [2]

    def test_null_is_not_empty(self, processor):
        # null is an item: null eq null is true, unlike () eq ().
        got = q(processor, 'where $m("value") eq null return $m("station")')
        assert got == ["S3"]


class TestNullAgainstNull:
    """Two nulls are equal and unordered: ``eq`` / ``le`` / ``ge`` hold,
    ``ne`` / ``lt`` / ``gt`` do not, and nothing raises (ordering them
    used to escape as a bare ``TypeError``, past the process pool too)."""

    HOLDS = {"eq": True, "le": True, "ge": True, "ne": False, "lt": False, "gt": False}

    NULLS = '{"station": "S3", "value": null}\n{"station": "S2"}'

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("op", sorted(HOLDS))
    def test_constant_and_two_operand_forms(self, op, backend):
        expected = ["S3"] if self.HOLDS[op] else []
        with JsonProcessor.in_memory(
            collections={"/m": [[self.NULLS]]}, backend=backend
        ) as processor:
            for other in ("null", '$m("value")'):
                got = q(processor, f'where $m("value") {op} {other} return $m("station")')
                assert got == expected, (op, other)

    def test_null_against_a_value_has_no_order_either(self):
        processor = JsonProcessor.in_memory(collections={"/m": [[self.NULLS]]})
        for op in sorted(self.HOLDS):
            got = q(processor, f'where $m("value") {op} "x" return $m("station")')
            assert got == (["S3"] if op == "ne" else [])


class TestJoinOnMissingKeys:
    def test_missing_join_keys_do_not_match_each_other(self):
        left = '{"k": 1, "tag": "a"}\n{"tag": "b"}'
        right = '{"k": 1, "tag": "x"}\n{"tag": "y"}'
        processor = JsonProcessor.in_memory(
            collections={"/l": [[left]], "/r": [[right]]}
        )
        got = processor.evaluate(
            'for $l in collection("/l") for $r in collection("/r") '
            'where $l("k") eq $r("k") '
            'return [$l("tag"), $r("tag")]'
        )
        assert got == [["a", "x"]]

    def test_missing_join_keys_hash_exchange_path(self):
        # Same semantics through the partitioned two-phase hash join
        # (ExchangeWork buckets + per-bucket join) on the process backend.
        left = ['{"k": 1, "tag": "a"}\n{"tag": "b"}', '{"tag": "c"}']
        right = ['{"k": 1, "tag": "x"}', '{"tag": "y"}\n{"k": 2, "tag": "z"}']
        with JsonProcessor.in_memory(
            collections={"/l": [[t] for t in left], "/r": [[t] for t in right]},
            backend="process",
            max_workers=2,
        ) as processor:
            got = processor.evaluate(
                'for $l in collection("/l") for $r in collection("/r") '
                'where $l("k") eq $r("k") '
                'return [$l("tag"), $r("tag")]'
            )
        assert got == [["a", "x"]]


class TestEmptyArgumentFunctions:
    def test_number_of_empty_is_empty(self):
        # F&O 4.5.1: number(()) is NaN; the NaN-free variant returns ().
        assert call("number", []) == []
        # JSONiq: number(null) is NaN too — same mapping.
        assert call("number", [None]) == []

    def test_string_functions_treat_empty_as_zero_length(self):
        assert call("upper-case", []) == [""]
        assert call("lower-case", []) == [""]
        assert call("substring", [], [1]) == [""]
        assert call("contains", [], ["x"]) == [False]
        assert call("contains", ["x"], []) == [True]
        assert call("starts-with", [], ["x"]) == [False]
        assert call("starts-with", ["x"], []) == [True]

    def test_number_over_missing_key_in_query(self, processor):
        # number(()) and number(null) are both (); gt is then false.
        got = q(
            processor,
            'where number($m("value")) gt 3 return $m("station")',
        )
        assert got == ["S1"]
