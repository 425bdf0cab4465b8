"""Unit tests for whole-text decoding (``parse`` / ``parse_many``) and
for the one streaming reader, ``scan_file``, at chunk boundaries."""

import json

import pytest

from repro.errors import JsonSyntaxError
from repro.jsonlib import ondemand, textscan
from repro.jsonlib.parser import parse, parse_many
from repro.jsonlib.path import Path


#: Malformed texts; ``tests/data/test_source_contract.py`` also holds
#: both query plans to one answer over each.
INVALID_INPUTS = [
    "{]",
    "[}",
    "[1 2]",
    '{"a" 1}',
    '{"a": 1,}',
    "[1,]",
    "{1: 2}",
    "nul1",
    "+1",
    '"a\tb"',  # raw control character inside a string
    "[1]]",
]


def scan_chunked(tmp_path, text, chunk_size):
    """Every top-level value of *text*, read back by ``scan_file`` at
    *chunk_size* characters per read; both scanners must agree."""
    file = tmp_path / "doc.json"
    file.write_text(text, encoding="utf-8")
    text_items, ondemand_items = (
        list(scanner.scan_file(str(file), Path(), chunk_size=chunk_size))
        for scanner in (textscan, ondemand)
    )
    assert text_items == ondemand_items
    return text_items


class TestScalars:
    def test_integer(self):
        assert parse("42") == 42

    def test_negative_integer(self):
        assert parse("-7") == -7

    def test_zero(self):
        assert parse("0") == 0

    def test_float(self):
        assert parse("3.25") == 3.25

    def test_exponent(self):
        assert parse("1e3") == 1000.0

    def test_negative_exponent(self):
        assert parse("25E-2") == 0.25

    def test_int_stays_int(self):
        assert isinstance(parse("5"), int)

    def test_float_stays_float(self):
        assert isinstance(parse("5.0"), float)

    def test_true(self):
        assert parse("true") is True

    def test_false(self):
        assert parse("false") is False

    def test_null(self):
        assert parse("null") is None

    def test_simple_string(self):
        assert parse('"hello"') == "hello"

    def test_empty_string(self):
        assert parse('""') == ""

    def test_escapes(self):
        assert parse(r'"a\"b\\c\/d\b\f\n\r\t"') == 'a"b\\c/d\b\f\n\r\t'

    def test_unicode_escape(self):
        assert parse(r'"café"') == "café"

    def test_surrogate_pair(self):
        assert parse(r'"😀"') == "\U0001f600"

    def test_whitespace_around_value(self):
        assert parse("  \n\t 1 \r\n") == 1


class TestContainers:
    def test_empty_object(self):
        assert parse("{}") == {}

    def test_empty_array(self):
        assert parse("[]") == []

    def test_nested(self):
        assert parse('[{"a": [1, {"b": []}]}]') == [{"a": [1, {"b": []}]}]

    def test_object_preserves_all_pairs(self):
        assert parse('{"x": 1, "y": 2, "z": 3}') == {"x": 1, "y": 2, "z": 3}

    def test_array_order(self):
        assert parse("[3, 1, 2]") == [3, 1, 2]

    def test_deeply_nested_array(self):
        depth = 500
        text = "[" * depth + "]" * depth
        value = parse(text)
        for _ in range(depth - 1):
            assert isinstance(value, list) and len(value) == 1
            value = value[0]
        assert value == []

    def test_max_depth_guard(self):
        # Nesting past what the interpreter recurses is a syntax error at
        # the record, the same limit every scan mode applies.
        with pytest.raises(JsonSyntaxError, match="maximum nesting depth"):
            parse("[" * 5000 + "]" * 5000)


class TestIncrementalFeeding:
    """A value cut at a read boundary is re-read whole, never half-built."""

    def test_char_by_char_equals_single_feed(self, tmp_path):
        text = '{"n": [-0.5, 1e-2, 123], "s": "q\\"t", "b": false, "e": []}'
        assert scan_chunked(tmp_path, text, 1) == [json.loads(text)]

    def test_number_split_at_exponent(self, tmp_path):
        assert scan_chunked(tmp_path, "[1.5e3]", 5) == [[1500.0]]
        assert scan_chunked(tmp_path, "1.5e3 2", 4) == [1500.0, 2]

    def test_literal_split(self, tmp_path):
        assert scan_chunked(tmp_path, "[false]", 4) == [[False]]

    def test_string_split_inside_escape(self, tmp_path):
        assert scan_chunked(tmp_path, '["ab\\n cd"]', 5) == [["ab\n cd"]]

    def test_lone_minus_then_digits(self, tmp_path):
        assert scan_chunked(tmp_path, "[-12]", 2) == [[-12]]
        assert scan_chunked(tmp_path, "-12", 1) == [-12]


class TestMultipleTopLevelValues:
    def test_parse_many(self):
        assert parse_many('1 "two" [3] {"four": 4}') == [1, "two", [3], {"four": 4}]

    def test_multiple_values_rejected_when_strict(self):
        with pytest.raises(JsonSyntaxError, match="multiple top-level") as excinfo:
            parse('{"a": 1}\n[2]')
        assert excinfo.value.offset == 9

    def test_empty_input_rejected(self):
        for text in ("", "  \n", "\ufeff"):
            with pytest.raises(JsonSyntaxError, match="empty input") as excinfo:
                parse(text)
            assert excinfo.value.offset == len(text)

    def test_parse_rejects_trailing_value(self):
        with pytest.raises(JsonSyntaxError):
            parse("1 2")


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[",
            '{"a"',
            '{"a":',
            '{"a": 1',
            "[1,",
            '"abc',
            "tru",
            "-",
            "12.",
        ],
    )
    def test_incomplete_inputs(self, text):
        with pytest.raises(JsonSyntaxError):
            parse(text)
        with pytest.raises(JsonSyntaxError):
            parse_many(text)

    @pytest.mark.parametrize("text", INVALID_INPUTS)
    def test_invalid_inputs(self, text):
        with pytest.raises(JsonSyntaxError):
            parse(text)

    def test_leading_zero_number_splits_into_two_values(self):
        # parse_many reads "01" as the two values 0 and 1 (like
        # concatenated-JSON readers); parse rejects the second one.
        assert parse_many("01") == [0, 1]
        with pytest.raises(JsonSyntaxError):
            parse("01")

    def test_error_offset_spans_chunks(self, tmp_path):
        # Offsets are absolute in the file, however many reads came first.
        file = tmp_path / "doc.json"
        file.write_text("[0]\n" * 5 + "[1, 2, x]", encoding="utf-8")
        for scanner in (textscan, ondemand):
            with pytest.raises(JsonSyntaxError) as excinfo:
                list(scanner.scan_file(str(file), Path(), chunk_size=4))
            assert excinfo.value.offset == 27

    def test_stdlib_rejects_what_we_reject(self):
        # Sanity: our invalid inputs are also invalid for the stdlib.
        for text in ["{]", "[1,]", "+1", "01"]:
            with pytest.raises(json.JSONDecodeError):
                json.loads(text)


class TestStdlibAgreement:
    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{}",
            '{"a": 1, "b": [true, false, null], "c": {"d": "e"}}',
            "[1.5, -2e10, 0.001, 1e-20]",
            '"\\u0041\\u00df\\u6c34\\ud83c\\udf09"',
            '[{"deep": [[[["x"]]]]}]',
        ],
    )
    def test_agrees_with_json_module(self, text):
        assert parse(text) == json.loads(text)
