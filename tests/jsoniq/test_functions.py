"""Unit tests for the builtin function library."""

import datetime

import pytest

from repro.errors import ItemTypeError
from repro.jsoniq.functions import BUILTIN_FUNCTIONS, parse_datetime


def call(name, *args):
    return BUILTIN_FUNCTIONS[(name, len(args))](list(args))


class TestAggregates:
    def test_count(self):
        assert call("count", [1, 2, 3]) == [3]
        assert call("count", []) == [0]

    def test_sum(self):
        assert call("sum", [1, 2, 3.5]) == [6.5]
        assert call("sum", []) == [0]

    def test_avg(self):
        assert call("avg", [2, 4]) == [3]
        assert call("avg", []) == []

    def test_min_max(self):
        assert call("min", [3, 1, 2]) == [1]
        assert call("max", [3, 1, 2]) == [3]
        assert call("min", []) == []

    def test_aggregate_type_errors(self):
        with pytest.raises(ItemTypeError):
            call("sum", ["x"])


class TestDateTime:
    def test_compact_format(self):
        assert parse_datetime("20131225T00:00") == datetime.datetime(2013, 12, 25)

    def test_compact_with_seconds(self):
        assert parse_datetime("20131225T10:30:15") == datetime.datetime(
            2013, 12, 25, 10, 30, 15
        )

    def test_iso_format(self):
        assert parse_datetime("2013-12-25T01:02:03") == datetime.datetime(
            2013, 12, 25, 1, 2, 3
        )

    def test_invalid(self):
        with pytest.raises(ItemTypeError):
            parse_datetime("not a date")

    def test_memo_is_bounded(self, monkeypatch):
        from repro.jsoniq import functions

        monkeypatch.setattr(functions, "_PARSED_DATETIMES", {})
        monkeypatch.setattr(functions, "_PARSED_DATETIMES_MAX", 4)
        for day in range(1, 29):
            text = f"200312{day:02d}T00:00"
            assert parse_datetime(text) == datetime.datetime(2003, 12, day)
            assert text in functions._PARSED_DATETIMES
            assert len(functions._PARSED_DATETIMES) <= 4

    def test_malformed_text_raises_every_time(self, monkeypatch):
        from repro.jsoniq import functions

        monkeypatch.setattr(functions, "_PARSED_DATETIMES", {})
        for text in ("not a date", "2003-13-45T00:00:00"):
            for _ in range(2):
                with pytest.raises(ItemTypeError):
                    parse_datetime(text)
        assert functions._PARSED_DATETIMES == {}

    def test_warm_memo_returns_the_cold_values(self, monkeypatch):
        from repro.jsoniq import functions

        monkeypatch.setattr(functions, "_PARSED_DATETIMES", {})
        texts = ("20031225T10:30", "2003-12-25T10:30:00", "20031225T10:30:00")
        cold = [parse_datetime(text) for text in texts]
        assert set(functions._PARSED_DATETIMES) == set(texts)
        warm = [parse_datetime(text) for text in texts]
        assert cold == warm == [datetime.datetime(2003, 12, 25, 10, 30)] * 3
        assert [type(value) for value in warm] == [datetime.datetime] * 3

    def test_datetime_function(self):
        assert call("dateTime", ["20031225T00:00"]) == [
            datetime.datetime(2003, 12, 25)
        ]

    def test_datetime_empty_propagates(self):
        assert call("dateTime", []) == []

    def test_datetime_passthrough(self):
        dt = datetime.datetime(2000, 1, 1)
        assert call("dateTime", [dt]) == [dt]

    def test_components(self):
        dt = datetime.datetime(2013, 12, 25, 10, 30)
        assert call("year-from-dateTime", [dt]) == [2013]
        assert call("month-from-dateTime", [dt]) == [12]
        assert call("day-from-dateTime", [dt]) == [25]
        assert call("hours-from-dateTime", [dt]) == [10]
        assert call("minutes-from-dateTime", [dt]) == [30]

        assert call("seconds-from-dateTime", [dt.replace(second=59)]) == [59]
        assert call("seconds-from-dateTime", [parse_datetime("20131225T10:30:07")]) == [7]

    def test_component_type_error(self):
        with pytest.raises(ItemTypeError):
            call("year-from-dateTime", ["2013"])

    @pytest.mark.parametrize(
        "part", ["year", "month", "day", "hours", "minutes", "seconds"]
    )
    def test_an_accessor_names_itself_as_registered(self, part):
        name = f"{part}-from-dateTime"
        with pytest.raises(ItemTypeError) as error:
            call(name, [5])
        assert str(error.value) == f"{name}() expects a dateTime, got number"
        with pytest.raises(ItemTypeError) as error:
            call(name, [5, 6])
        assert str(error.value) == f"{name}() expects a singleton, got 2 items"


class TestAtomization:
    def test_data_identity_on_atomics(self):
        assert call("data", ["x", 1, True, None]) == ["x", 1, True, None]

    def test_data_rejects_containers(self):
        with pytest.raises(ItemTypeError):
            call("data", [{"a": 1}])


class TestConversions:
    def test_string(self):
        assert call("string", [5]) == ["5"]
        assert call("string", [True]) == ["true"]
        assert call("string", [None]) == ["null"]
        assert call("string", []) == [""]

    def test_number(self):
        assert call("number", ["42"]) == [42]
        assert call("number", ["2.5"]) == [2.5]
        assert call("number", [True]) == [1]

    def test_number_invalid(self):
        with pytest.raises(ItemTypeError):
            call("number", ["abc"])

    def test_number_accepts_json_numeric_grammar(self):
        assert call("number", ["-17"]) == [-17]
        assert call("number", ["0"]) == [0]
        assert call("number", ["-0.5"]) == [-0.5]
        assert call("number", ["6.02e23"]) == [6.02e23]
        assert call("number", ["1E-3"]) == [0.001]
        # Exponent form is a float even when integral.
        assert call("number", ["1e2"]) == [100.0]
        assert isinstance(call("number", ["1e2"])[0], float)
        assert isinstance(call("number", ["42"])[0], int)

    @pytest.mark.parametrize(
        "text",
        [
            "inf",
            "-inf",
            "Infinity",
            "nan",
            "NaN",
            "1_000",
            "  12  ",
            "12\n",
            "+1",
            ".5",
            "1.",
            "01",
            "0x1f",
            "1e",
            "",
        ],
    )
    def test_number_rejects_non_json_spellings(self, text):
        # Python's float() is far more liberal than the JSON numeric
        # grammar; fn:number must not inherit that liberality.
        with pytest.raises(ItemTypeError):
            call("number", [text])

    def test_boolean_and_not(self):
        assert call("boolean", [1]) == [True]
        assert call("not", []) == [True]
        assert call("not", [True]) == [False]


class TestNumeric:
    def test_abs(self):
        assert call("abs", [-3]) == [3]

    def test_floor_ceiling(self):
        assert call("floor", [2.7]) == [2]
        assert call("ceiling", [2.1]) == [3]

    def test_round_half_up(self):
        assert call("round", [2.5]) == [3]
        assert call("round", [-2.5]) == [-2]

    def test_empty_propagates(self):
        assert call("abs", []) == []


class TestStrings:
    def test_concat(self):
        assert call("concat", ["a"], ["b"], [1]) == ["ab1"]

    def test_concat_skips_empty(self):
        assert call("concat", ["a"], [], ["c"]) == ["ac"]

    def test_string_join(self):
        assert call("string-join", ["a", "b"], [","]) == ["a,b"]

    def test_substring(self):
        assert call("substring", ["hello"], [2]) == ["ello"]
        assert call("substring", ["hello"], [2], [3]) == ["ell"]

    def test_substring_xquery_spec_examples(self):
        # The worked examples from the XQuery F&O spec for fn:substring.
        assert call("substring", ["motor car"], [6]) == [" car"]
        assert call("substring", ["metadata"], [4], [3]) == ["ada"]
        assert call("substring", ["12345"], [1.5], [2.6]) == ["234"]
        assert call("substring", ["12345"], [0], [3]) == ["12"]
        assert call("substring", ["12345"], [5], [-3]) == [""]
        assert call("substring", ["12345"], [-3], [5]) == ["1"]

    def test_substring_rounds_not_truncates(self):
        # round(1.5) = 2, round(2.6) = 3 — truncation would give "123".
        assert call("substring", ["abcde"], [2.5]) == ["cde"]
        assert call("substring", ["abcde"], [1.4]) == ["abcde"]

    def test_substring_infinite_and_nan_args(self):
        inf = float("inf")
        nan = float("nan")
        assert call("substring", ["12345"], [-42], [inf]) == ["12345"]
        assert call("substring", ["12345"], [-inf], [inf]) == [""]
        assert call("substring", ["12345"], [inf]) == [""]
        assert call("substring", ["12345"], [nan]) == [""]
        assert call("substring", ["12345"], [1], [nan]) == [""]

    def test_string_length(self):
        assert call("string-length", ["abc"]) == [3]
        assert call("string-length", []) == [0]

    def test_contains_and_starts_with(self):
        assert call("contains", ["hello"], ["ell"]) == [True]
        assert call("starts-with", ["hello"], ["he"]) == [True]
        assert call("starts-with", ["hello"], ["lo"]) == [False]

    def test_case_functions(self):
        assert call("upper-case", ["aBc"]) == ["ABC"]
        assert call("lower-case", ["aBc"]) == ["abc"]


class TestSequences:
    def test_empty_exists(self):
        assert call("empty", []) == [True]
        assert call("exists", [1]) == [True]

    def test_head_tail(self):
        assert call("head", [1, 2, 3]) == [1]
        assert call("head", []) == []
        assert call("tail", [1, 2, 3]) == [2, 3]

    def test_reverse(self):
        assert call("reverse", [1, 2, 3]) == [3, 2, 1]

    def test_distinct_values(self):
        assert call("distinct-values", [1, 2, 1, 3, 2]) == [1, 2, 3]

    def test_distinct_values_keeps_bool_and_int_apart(self):
        assert call("distinct-values", [1, True]) == [1, True]

    def test_distinct_values_unifies_int_and_float(self):
        # XQuery numeric equality: 1 eq 1.0, so they are one value.
        assert call("distinct-values", [1, 1.0, True, "1", 2]) == [1, True, "1", 2]

    def test_distinct_values_unifies_zero_spellings(self):
        assert call("distinct-values", [0, False, -0.0, 0.0]) == [0, False]

    def test_distinct_values_dedups_nan(self):
        import math

        nan = float("nan")
        result = call("distinct-values", [nan, 1, nan])
        assert len(result) == 2
        assert math.isnan(result[0])
        assert result[1] == 1


class TestJsonFunctions:
    def test_keys(self):
        assert call("keys", [{"a": 1, "b": 2}]) == ["a", "b"]

    def test_members(self):
        assert call("members", [[1, 2], [3]]) == [1, 2, 3]

    def test_size(self):
        assert call("size", [[1, 2, 3]]) == [3]
        assert call("size", []) == []

    def test_size_type_error(self):
        with pytest.raises(ItemTypeError):
            call("size", [{"a": 1}])

    def test_flatten(self):
        assert call("flatten", [[1, [2, [3]]], 4]) == [1, 2, 3, 4]

    def test_null(self):
        assert call("null") == [None]
