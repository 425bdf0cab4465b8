"""Duplicate object keys: every scanner must agree with the parser.

RFC 8259 leaves duplicate-key behaviour to implementations; this one
follows the common last-occurrence-wins convention, as the standard
library's decoder does (a dict assignment per occurrence, so the last
write survives).  The projecting scanner must emit the *same winner* as
decoding the whole document with the stdlib and navigating, or DATASCAN
projection silently changes query results on such documents.
"""

import pytest

from repro.correctness.oracle import reference_documents
from repro.jsonlib.parser import parse
from repro.jsonlib.path import navigate, parse_path
from repro.jsonlib.textscan import ScanCounters, scan_file, scan_text

DUP = '{"a": 1, "b": {"x": 10}, "a": 2, "c": null, "a": 3}'
NESTED_DUP = '{"r": {"v": "first", "v": "second"}, "r": {"v": "third", "v": "last"}}'
DUP_ARRAY = '{"results": [1], "results": [2, 3]}'


def reference(text, path_text):
    path = parse_path(path_text)
    out = []
    for value in reference_documents(text):
        out.extend(navigate(value, path))
    return out


class TestParserReference:
    def test_last_occurrence_wins(self):
        assert parse(DUP) == {"a": 3, "b": {"x": 10}, "c": None}

    def test_keys_deduplicated_first_insertion_order(self):
        assert list(parse(DUP).keys()) == ["a", "b", "c"]


class TestRawTextScanner:
    @pytest.mark.parametrize(
        "text,path_text",
        [
            (DUP, '("a")'),
            (DUP, "()"),
            (NESTED_DUP, '("r")("v")'),
            (DUP_ARRAY, '("results")()'),
        ],
    )
    def test_matches_parse_then_navigate(self, text, path_text):
        assert list(scan_text(text, parse_path(path_text))) == reference(
            text, path_text
        )

    def test_duplicate_key_yields_last_value_once(self):
        assert list(scan_text(DUP, parse_path('("a")'))) == [3]

    def test_keys_or_members_deduplicates(self):
        assert list(scan_text(DUP, parse_path("()"))) == ["a", "b", "c"]

    def test_counters_count_discarded_occurrences_as_skipped(self):
        counters = ScanCounters()
        assert list(scan_text(DUP, parse_path('("a")'), counters=counters)) == [3]
        # One value materialized; two discarded "a" occurrences plus the
        # non-matching "b" and "c" values were skipped.
        assert counters.matched == 1
        assert counters.skipped == 4


class TestChunkBoundaries:
    """A duplicate key split across sliding-buffer refills must not
    change the winner: the grow-and-retry path re-scans whole top-level
    values, so every chunk size agrees with the whole-text scan."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7, 64])
    def test_scan_file_any_chunk_size(self, tmp_path, chunk_size):
        target = tmp_path / "dup.json"
        target.write_text(DUP + "\n" + NESTED_DUP, encoding="utf-8")
        expected = reference(DUP, '("a")') + reference(NESTED_DUP, '("a")')
        got = list(scan_file(str(target), parse_path('("a")'), chunk_size=chunk_size))
        assert got == expected == [3]
