"""Unit and property tests for the raw-text projecting scanner."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correctness.oracle import reference_documents
from repro.errors import JsonSyntaxError
from repro.jsonlib.path import (
    KeysOrMembers,
    Path,
    ValueByIndex,
    ValueByKey,
    navigate,
    parse_path,
)
from repro.jsonlib.textscan import ScanCounters, scan_file, scan_text


def reference(text, path):
    out = []
    for value in reference_documents(text):
        out.extend(navigate(value, path))
    return out


class TestScanText:
    def test_whole_value(self):
        assert list(scan_text('{"a": 1}', Path())) == [{"a": 1}]

    def test_value_by_key(self):
        assert list(scan_text('{"a": 1, "b": 2}', parse_path('("b")'))) == [2]

    def test_skips_non_matching_values(self):
        text = '{"skip": {"deep": [1, [2, {"x": 3}]]}, "take": true}'
        assert list(scan_text(text, parse_path('("take")'))) == [True]

    def test_members(self):
        assert list(scan_text("[1, 2, 3]", parse_path("()"))) == [1, 2, 3]

    def test_object_keys(self):
        assert list(scan_text('{"a": 1, "b": 2}', parse_path("()"))) == ["a", "b"]

    def test_index(self):
        assert list(scan_text("[10, 20, 30]", parse_path("(2)"))) == [20]

    def test_index_out_of_range(self):
        assert list(scan_text("[10]", parse_path("(9)"))) == []

    def test_nested_path(self):
        text = '{"root": [{"results": [{"v": 1}, {"v": 2}]}]}'
        path = parse_path('("root")()("results")()("v")')
        assert list(scan_text(text, path)) == [1, 2]

    def test_multiple_top_level_values(self):
        assert list(scan_text('{"v": 1} {"v": 2}', parse_path('("v")'))) == [1, 2]

    def test_wrong_type_skipped(self):
        text = '[5, {"a": 1}, "s", [2], {"a": 3}]'
        assert list(scan_text(text, parse_path('()("a")'))) == [1, 3]

    def test_duplicate_keys_last_occurrence_wins(self):
        # Must agree with parse-then-navigate, where the dict keeps the
        # last occurrence of a repeated key.
        assert list(scan_text('{"a": 1, "a": 2}', parse_path('("a")'))) == [2]

    def test_escaped_strings_in_skipped_values(self):
        text = r'{"skip": "quote \" brace } bracket ]", "take": 1}'
        assert list(scan_text(text, parse_path('("take")'))) == [1]

    def test_escaped_backslash_before_quote(self):
        text = r'{"skip": "ends with backslash \\", "take": 1}'
        assert list(scan_text(text, parse_path('("take")'))) == [1]

    def test_builds_exact_values(self):
        text = '{"take": {"n": -1.5e2, "b": false, "s": "x", "nul": null}}'
        (value,) = scan_text(text, parse_path('("take")'))
        assert value == {"n": -150.0, "b": False, "s": "x", "nul": None}

    def test_whitespace_everywhere(self):
        text = ' { "a" :\n [ 1 ,\t2 ] } '
        assert list(scan_text(text, parse_path('("a")()'))) == [1, 2]


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["{", "[1,", '{"a" 1}', '{"a": }', '"unterminated', "@"],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(JsonSyntaxError):
            list(scan_text(text, parse_path('("a")')))

    def test_skipped_regions_are_not_validated(self):
        # Like other structural skippers, the scanner only tracks nesting
        # and strings inside regions the path never touches — "[1 2]" is
        # skipped without noticing the missing comma.
        assert list(scan_text('{"skip": [1 2], "a": 3}', parse_path('("a")'))) == [3]

    def test_malformed_matched_value(self):
        with pytest.raises(JsonSyntaxError):
            list(scan_text('{"a": [1,]}', parse_path('("a")')))


class TestScanFile:
    def test_reads_from_disk(self, tmp_path):
        target = tmp_path / "data.json"
        target.write_text('{"v": [1, 2]}', encoding="utf-8")
        assert list(scan_file(str(target), parse_path('("v")()'))) == [1, 2]


class TestChunkedScanFile:
    """scan_file streams in chunks; behaviour must match scan_text."""

    TEXT = "\n".join(
        json.dumps(
            {"v": {"k": [i, i + 0.5, f's"{i}', True, None]}, "pad": "y" * 23}
        )
        for i in range(40)
    ) + '\n[1, 2, 3]\n12345\n"tail"\n'

    def write(self, tmp_path):
        target = tmp_path / "data.json"
        target.write_text(self.TEXT, encoding="utf-8")
        return str(target)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64, 1000, 1 << 20])
    @pytest.mark.parametrize("path_text", ['("v")("k")()', "()", '("v")("k")(2)'])
    def test_equivalent_to_scan_text_at_any_chunk_size(
        self, tmp_path, chunk_size, path_text
    ):
        name = self.write(tmp_path)
        path = parse_path(path_text)
        expected = list(scan_text(self.TEXT, path))
        assert list(scan_file(name, path, chunk_size=chunk_size)) == expected

    def test_token_split_across_chunk_boundary(self, tmp_path):
        # A number whose digits straddle the read boundary must not be
        # truncated into a shorter valid prefix.
        target = tmp_path / "data.json"
        target.write_text("1234567 8901", encoding="utf-8")
        path = parse_path("")
        assert list(scan_file(str(target), path, chunk_size=4)) == [
            1234567,
            8901,
        ]

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 4])
    def test_fraction_or_exponent_starts_at_chunk_boundary(
        self, tmp_path, chunk_size
    ):
        # "1" is a valid number and "." / "e+" is not the buffer edge's
        # problem until the next chunk shows it continues the number.
        target = tmp_path / "data.json"
        text = "0.5 1e3 12E+2 7.25e-1 3"
        target.write_text(text, encoding="utf-8")
        path = parse_path("")
        expected = [0.5, 1000.0, 1200.0, 0.725, 3]
        assert list(scan_text(text, path)) == expected
        scanned = list(scan_file(str(target), path, chunk_size=chunk_size))
        assert repr(scanned) == repr(expected)

    def test_skip_record_offsets_are_absolute(self, tmp_path):
        bad = self.TEXT[:150] + '{"broken": \n' + self.TEXT[150:]
        target = tmp_path / "data.json"
        target.write_text(bad, encoding="utf-8")
        path = parse_path('("v")("k")()')
        expected_events: list = []
        expected = list(
            scan_text(
                bad,
                path,
                on_malformed="skip_record",
                recorder=lambda o, m: expected_events.append((o, m)),
            )
        )
        for chunk_size in (5, 37, 1 << 20):
            events: list = []
            items = list(
                scan_file(
                    str(target),
                    path,
                    on_malformed="skip_record",
                    recorder=lambda o, m: events.append((o, m)),
                    chunk_size=chunk_size,
                )
            )
            assert items == expected
            assert events == expected_events

    def test_fail_mode_error_offset_is_absolute(self, tmp_path):
        # A stray top-level '}' right after the first record.
        bad = self.TEXT.replace("\n", "\n} ", 1)
        target = tmp_path / "data.json"
        target.write_text(bad, encoding="utf-8")
        path = parse_path('("v")("k")()')
        with pytest.raises(JsonSyntaxError) as reference:
            list(scan_text(bad, path))
        with pytest.raises(JsonSyntaxError) as chunked:
            list(scan_file(str(target), path, chunk_size=7))
        assert chunked.value.offset == reference.value.offset
        assert str(chunked.value) == str(reference.value)

    def test_rejects_nonpositive_chunk_size(self, tmp_path):
        name = self.write(tmp_path)
        with pytest.raises(ValueError, match="chunk_size"):
            list(scan_file(name, parse_path(""), chunk_size=0))

    def test_multibyte_char_straddles_chunk_boundary(self, tmp_path):
        # "é" is 2 bytes, "日" 3, "𝄞" 4 (a surrogate pair in UTF-16);
        # byte-sized chunks force every one of them across a read
        # boundary.  The text-mode reader must never hand back half a
        # code point.
        value = {"take": "héllo 日本 𝄞 clef", "skip": "é𝄞" * 7}
        text = json.dumps(value, ensure_ascii=False)
        target = tmp_path / "data.json"
        target.write_text(text, encoding="utf-8")
        path = parse_path('("take")')
        for chunk_size in (1, 2, 3, 5):
            assert list(scan_file(str(target), path, chunk_size=chunk_size)) == [
                value["take"]
            ]

    def test_escaped_quote_straddles_chunk_boundary(self, tmp_path):
        # The two characters of '\"' (and of '\\\\') must not be split by
        # rescanning: the backslash state has to survive the boundary.
        text = r'{"skip": "a\"b\\", "take": "x\"y"}'
        target = tmp_path / "data.json"
        target.write_text(text, encoding="utf-8")
        path = parse_path('("take")')
        expected = list(scan_text(text, path))
        assert expected == ['x"y']
        for chunk_size in range(1, 8):
            assert (
                list(scan_file(str(target), path, chunk_size=chunk_size))
                == expected
            )

    def test_memory_stays_buffer_bounded(self, tmp_path):
        # The consumed prefix must be compacted away: scanning with a
        # tiny chunk must never hold the whole file in the buffer.
        import tracemalloc

        big = "\n".join(
            json.dumps({"v": i, "pad": "z" * 64}) for i in range(2000)
        )
        target = tmp_path / "big.json"
        target.write_text(big, encoding="utf-8")
        path = parse_path('("v")')
        tracemalloc.start()
        count = sum(1 for _ in scan_file(str(target), path, chunk_size=512))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 2000
        # Whole file is ~160 KiB; the sliding buffer should stay well
        # under half of it even with allocator overhead.
        assert peak < len(big) // 2


class TestByteOrderMark:
    """RFC 8259 §8.1: a leading BOM may be present and must be ignored."""

    def test_scan_text_skips_leading_bom(self):
        assert list(scan_text('﻿{"a": 1}', parse_path('("a")'))) == [1]

    def test_scan_file_skips_leading_bom(self, tmp_path):
        target = tmp_path / "data.json"
        target.write_bytes(b'\xef\xbb\xbf{"a": [1, 2]}')
        path = parse_path('("a")()')
        for chunk_size in (1, 2, 7, 1 << 20):
            assert list(scan_file(str(target), path, chunk_size=chunk_size)) == [
                1,
                2,
            ]

    def test_interior_bom_is_not_stripped(self):
        # Only a *leading* BOM is special; U+FEFF inside a string is data.
        assert list(scan_text('{"a": "﻿x"}', parse_path('("a")'))) == [
            "﻿x"
        ]


class TestScanCounters:
    def test_counts_matches_and_skips(self):
        text = '{"skip": {"deep": [1, 2]}, "take": 5, "also": 6}'
        counters = ScanCounters()
        assert list(scan_text(text, parse_path('("take")'), counters=counters)) == [5]
        assert counters.matched == 1
        assert counters.skipped == 2  # "skip" subtree + "also"

    def test_keys_or_members_counts_each_match(self):
        counters = ScanCounters()
        assert list(scan_text("[1, 2, 3]", parse_path("()"), counters=counters)) == [
            1,
            2,
            3,
        ]
        assert counters.matched == 3
        assert counters.skipped == 0

    def test_index_skip_counts_remaining_members_once(self):
        counters = ScanCounters()
        assert list(scan_text("[10, 20, 30]", parse_path("(2)"), counters=counters)) == [
            20
        ]
        assert counters.matched == 1
        # One leading member skipped element-wise, the tail in bulk.
        assert counters.skipped == 2

    def test_chunked_retry_does_not_double_count(self, tmp_path):
        # With a tiny chunk_size the scanner repeatedly hits the end of
        # the buffer mid-value, grows it, and rescans the same value.
        # Counters must reflect the logical scan, not the retries.
        text = '{"skip": [1, 2, 3], "take": {"x": "yyyyyyyy"}} {"take": 1}'
        target = tmp_path / "data.json"
        target.write_text(text, encoding="utf-8")
        path = parse_path('("take")')
        reference_counters = ScanCounters()
        expected = list(scan_text(text, path, counters=reference_counters))
        for chunk_size in (1, 3, 1 << 20):
            counters = ScanCounters()
            items = list(
                scan_file(str(target), path, counters=counters, chunk_size=chunk_size)
            )
            assert items == expected
            assert counters.matched == reference_counters.matched
            assert counters.skipped == reference_counters.skipped


# -- property: equivalence with the navigate reference -----------------------

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)

path_steps = st.one_of(
    st.builds(ValueByKey, st.sampled_from(["a", "b", "results", ""])),
    st.builds(ValueByIndex, st.integers(min_value=1, max_value=3)),
    st.just(KeysOrMembers()),
)
paths = st.builds(Path, st.lists(path_steps, max_size=4))


@given(json_values, paths)
@settings(max_examples=150)
def test_property_matches_navigate(value, path):
    text = json.dumps(value)
    assert list(scan_text(text, path)) == reference(text, path)


@given(st.lists(json_values, min_size=1, max_size=3), paths)
@settings(max_examples=60)
def test_property_multi_value_stream(values, path):
    text = " ".join(json.dumps(v) for v in values)
    assert list(scan_text(text, path)) == reference(text, path)
