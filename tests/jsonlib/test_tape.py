"""Unit, equivalence and counter-parity tests for the on-demand scanner.

The on-demand scanner's contract is *byte-identity* with the raw-text
skipper (:mod:`repro.jsonlib.textscan`): same items, same counters,
same errors (message and offset), same recorder events — on well-formed
input, hostile Unicode, duplicate keys, BOM-prefixed texts, and records
split across ``scan_file``'s sliding chunk buffer.  (``tape`` is the
module's historical name; it walks the text and builds no index.)
"""

import json

import pytest

from repro.correctness.oracle import reference_documents
from repro.errors import JsonSyntaxError
from repro.jsonlib import tape, textscan
from repro.jsonlib.path import Path, navigate, parse_path
from repro.jsonlib.textscan import ScanCounters


def reference(text, path):
    out = []
    for value in reference_documents(text):
        out.extend(navigate(value, path))
    return out


def both_scans(text, path, **kwargs):
    """(tape items, skipper items) with their counters for one text."""
    tape_counters, text_counters = ScanCounters(), ScanCounters()
    tape_items = list(
        tape.scan_text(text, path, counters=tape_counters, **kwargs)
    )
    text_items = list(
        textscan.scan_text(text, path, counters=text_counters, **kwargs)
    )
    return (tape_items, tape_counters), (text_items, text_counters)


def assert_parity(text, path_text):
    """Tape == skipper == parse-then-navigate, items and counters."""
    path = parse_path(path_text)
    (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
    assert tape_items == text_items == reference(text, path)
    assert tape_c.matched == text_c.matched
    assert tape_c.skipped == text_c.skipped
    assert tape_c.tape_records > 0
    assert (text_c.tape_records, text_c.tape_tokens) == (0, 0)


class DecoderSpy:
    """Stands in for the module's decoder; logs each (start, end) decoded."""

    def __init__(self, inner):
        self.inner = inner
        self.spans = []

    def scan_once(self, text, pos):
        value, end = self.inner.scan_once(text, pos)
        self.spans.append((pos, end))
        return value, end


@pytest.fixture
def spy(monkeypatch):
    spy = DecoderSpy(tape._DECODER)
    monkeypatch.setattr(tape, "_DECODER", spy)
    return spy


def scan_counted(text, path_text):
    counters = ScanCounters()
    items = list(tape.scan_text(text, parse_path(path_text), counters=counters))
    return items, counters


class TestNavigator:
    def test_decodes_only_at_matched_positions(self, spy):
        text = (
            '{"skip": {"a": {"k": 0}}, "a": {"j": [9], "k": {"deep": [4, 5]}},'
            ' "b": [6, {"k": 7}]}'
        )
        items, counters = scan_counted(text, '("a")("k")')
        assert items == [{"deep": [4, 5]}]
        # One call, at the matched value, running exactly to its end.
        start = text.index('{"deep"')
        assert spy.spans == [(start, start + len('{"deep": [4, 5]}'))]
        assert counters.tape_records == 1

    def test_bulk_array_is_one_decode_call_per_array(self, spy):
        text = (
            '{"root": [{"m": {"count": 3}, "results": [{"v": 1}, 2, [3]]},'
            ' {"m": {"count": 1}, "results": [4]}]}'
        )
        items, counters = scan_counted(text, '("root")()("results")()')
        assert items == [{"v": 1}, 2, [3], 4]
        assert [text[a:b] for a, b in spy.spans] == [
            '[{"v": 1}, 2, [3]]', "[4]",
        ]
        assert counters.matched == 4
        # Steps: 5 keys read, 2 members of "root" visited, 2 decode calls.
        assert (counters.tape_records, counters.tape_tokens) == (1, 9)

    def test_empty_path_is_one_decode_call(self, spy):
        text = '{"deep": {"deeper": [1]}}'
        items, counters = scan_counted(text, "")
        assert items == [{"deep": {"deeper": [1]}}]
        assert spy.spans == [(0, len(text))]
        assert (counters.tape_records, counters.tape_tokens) == (1, 1)

    def test_never_decodes_inside_a_skipped_subtree(self, spy):
        # "[1 2]" and "{oops}" would fail any decoder: the fast path
        # completing (tape_records == 1) shows the leniency is its own,
        # by hopping with the skipper's _skip_value, not the fallback's.
        text = '{"skip": [1 2], "also": {oops}, "a": 3, "tail": [[NaN]]}'
        path = parse_path('("a")')
        (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
        assert tape_items == text_items == [3]
        assert spy.spans == [(text.index("3"), text.index("3") + 1)]
        assert tape_c.tape_records == 1
        assert (tape_c.matched, tape_c.skipped) == (1, 3)
        assert (text_c.matched, text_c.skipped) == (1, 3)

    def test_step_count_of_a_per_member_key_walk(self):
        text = '[{"a": 1, "b": 2}, {"b": 3}, 4, {"a": 5}]'
        items, counters = scan_counted(text, '()("a")')
        assert items == [1, 5]
        # 4 members visited, 4 keys read, 2 decode calls.
        assert counters.tape_tokens == 10

    @pytest.mark.parametrize(
        "text, path_text",
        [
            pytest.param('{"a": 1 x }', '("a")', id="stray-character"),
            pytest.param('{"a": "unclosed}', '("a")', id="unbalanced-quote"),
            pytest.param('{"a": [1, 2]', '("a")', id="unterminated-container"),
            pytest.param('{"a": 1]', '("a")', id="mismatched-bracket"),
            pytest.param('{"b": 0, "a": [1, 2, @]}', '("a")()', id="bulk-decode"),
            pytest.param('[{"a": 1}, {"a": 2}, {"a" 3}]', '()("a")', id="late-key"),
            pytest.param('{"a": [1, NaN]}', '("a")', id="constant"),
        ],
    )
    def test_fallback_equals_skipper_alone(self, text, path_text):
        """A record that trips the fast path is the skipper's, whole:
        the caller's out/counters end up exactly as if the fast path had
        never run, partial matches before the error included."""
        path = parse_path(path_text)
        outcomes = []
        for project in (tape.project_record, textscan._default_projector):
            out = ["earlier record"]
            counters = ScanCounters()
            counters.matched, counters.skipped = 5, 7
            with pytest.raises(JsonSyntaxError) as info:
                project(text, 0, path, out, counters)
            outcomes.append(
                (str(info.value), info.value.offset, out, counters.as_dict())
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3]["tape_records"] == 0
        assert outcomes[0][3]["tape_tokens"] == 0


class TestEquivalence:
    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"root": [{"results": [{"v": 1}, {"v": 2}]}]}',
             '("root")()("results")()'),
            ('{"root": [{"results": [{"v": 1}]}]} '
             '{"root": [{"results": [{"v": 2}, {"v": 3}]}]}',
             '("root")()("results")()("v")'),
            ('[5, {"a": 1}, "s", [2], {"a": 3}]', '()("a")'),
            ("[10, 20, 30]", "(2)"),
            ("[10]", "(9)"),
            ('{"a": 1, "b": 2}', "()"),
            ('{"skip": {"deep": [1, [2, {"x": 3}]]}, "take": true}',
             '("take")'),
            ('{"take": {"n": -1.5e2, "b": false, "s": "x", "nul": null}}',
             '("take")'),
            (' { "a" :\n [ 1 ,\t2 ] } ', '("a")()'),
            ("17", "()"),
        ],
    )
    def test_items_and_counters_match_skipper(self, text, path_text):
        assert_parity(text, path_text)

    def test_empty_containers(self):
        assert_parity('{"a": {}, "b": []}', '("b")()')
        assert_parity("[]", "()")
        assert_parity("{}", "()")


class TestDuplicateKeys:
    """Last occurrence wins, exactly like dict semantics — and the
    discarded earlier match must recount as skipped, like the skipper."""

    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"a": 1, "a": 2}', '("a")'),
            ('{"a": {"k": 1}, "b": 9, "a": {"k": 2}}', '("a")("k")'),
            ('{"a": [1, 2], "a": [3]}', '("a")()'),
            ('{"a": 1, "b": 2, "a": 3}', "()"),  # keys dedup like dict.keys()
            ('{"a": {"x": 1, "x": 2}}', '("a")("x")'),
        ],
    )
    def test_last_wins_with_identical_counters(self, text, path_text):
        assert_parity(text, path_text)

    def test_lazy_navigator_buffers_only_final_occurrence(self):
        path = parse_path('("a")')
        items = list(tape.scan_text('{"a": 1, "a": 2, "a": 3}', path))
        assert items == [3]


class TestHostileUnicode:
    ASTRAL = '{"t": "\U0001f600 é́ ‮ reversed", "p": 1}'
    ESCAPES = (
        r'{"skip": "q \" brace } bracket ] \\ 😀",'
        r' "take": "é"}'
    )

    def test_astral_and_combining_characters(self):
        assert_parity(self.ASTRAL, '("t")')

    def test_escaped_quotes_braces_and_surrogate_pairs(self):
        assert_parity(self.ESCAPES, '("take")')

    def test_bom_prefixed_text(self):
        text = '{"v": [1, 2]}'
        path = parse_path('("v")()')
        assert list(tape.scan_text("\ufeff" + text, path)) == [1, 2]
        (tape_items, tape_c), (text_items, text_c) = both_scans(
            "\ufeff" + text, path
        )
        assert tape_items == text_items == [1, 2]
        assert (tape_c.matched, tape_c.skipped) == (
            text_c.matched, text_c.skipped,
        )

    def test_bom_file(self, tmp_path):
        target = tmp_path / "bom.json"
        target.write_bytes(
            b"\xef\xbb\xbf" + '{"v": ["é", 2]}'.encode("utf-8")
        )
        path = parse_path('("v")()')
        assert list(tape.scan_file(str(target), path)) == ["é", 2]

    def test_unicode_in_skipped_subtrees(self):
        text = '{"skip": {"deep": ["\U0001f600", "‮"]}, "take": 1}'
        assert_parity(text, '("take")')


class TestChunkBoundaries:
    """scan_file slides a bounded buffer; records split across chunk
    boundaries (mid-string, mid-escape, mid-number) must behave exactly
    like scan_text — and exactly like the skipper at the same chunk size."""

    TEXT = "\n".join(
        json.dumps(
            {"v": {"k": [i, i + 0.5, f's"{i}', True, None]}, "pad": "y" * 23}
        )
        for i in range(7)
    )
    PATH = parse_path('("v")("k")()')

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 29, 64, 1 << 16])
    def test_chunked_equals_text_and_skipper(self, chunk_size, tmp_path):
        target = tmp_path / "data.json"
        target.write_text(self.TEXT, encoding="utf-8")
        tape_c, text_c = ScanCounters(), ScanCounters()
        tape_items = list(
            tape.scan_file(
                str(target), self.PATH, chunk_size=chunk_size,
                counters=tape_c,
            )
        )
        text_items = list(
            textscan.scan_file(
                str(target), self.PATH, chunk_size=chunk_size,
                counters=text_c,
            )
        )
        assert tape_items == text_items
        assert tape_items == list(tape.scan_text(self.TEXT, self.PATH))
        assert (tape_c.matched, tape_c.skipped) == (
            text_c.matched, text_c.skipped,
        )

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_skip_record_events_identical_across_scanners(
        self, chunk_size, tmp_path
    ):
        lines = self.TEXT.split("\n")
        lines.insert(3, '{"v": {"k": [1, ]}}')  # malformed mid-file
        text = "\n".join(lines)
        target = tmp_path / "dirty.json"
        target.write_text(text, encoding="utf-8")
        results = {}
        for name, scanner in (("tape", tape), ("text", textscan)):
            events = []
            counters = ScanCounters()
            items = list(
                scanner.scan_file(
                    str(target), self.PATH, on_malformed="skip_record",
                    recorder=lambda o, m: events.append((o, m)),
                    chunk_size=chunk_size, counters=counters,
                )
            )
            results[name] = (items, events, counters.matched,
                             counters.skipped)
        assert results["tape"] == results["text"]
        assert len(results["tape"][1]) == 1  # exactly the injected record


class TestFallbackIdentity:
    """Malformed records must raise exactly what the skipper raises —
    message, offset, and the partial counters left behind."""

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[1,",
            '{"a" 1}',
            '{"a": }',
            '"unterminated',
            "@",
            '{"a": [1,]}',
            '{"a": 01}',
            '{"v": 1} {"v": ]}',  # second record malformed: partial counts
        ],
    )
    def test_same_error_and_partial_counters(self, text):
        path = parse_path('("a")')
        outcomes = {}
        for name, scanner in (("tape", tape), ("text", textscan)):
            counters = ScanCounters()
            try:
                items = list(
                    scanner.scan_text(text, path, counters=counters)
                )
                outcome = ("ok", items)
            except JsonSyntaxError as error:
                outcome = (
                    "err", str(error), getattr(error, "offset", None)
                )
            outcomes[name] = (
                outcome, counters.matched, counters.skipped,
            )
        assert outcomes["tape"] == outcomes["text"]

    @pytest.mark.parametrize(
        "text, path_text",
        [
            # The C decoder must not quietly accept the stdlib's
            # NaN/Infinity extensions (json.dumps emits NaN for
            # float('nan') by default, so these occur in practice):
            ('{"a": [1, NaN]}', '("a")'),  # inside a matched value
            ('{"a": [[1, -Infinity]]}', '("a")()'),  # trailing () bulk decode
            ('{"a": Infinity}', '("a")'),  # the matched value itself
            ("[NaN]", "()"),
        ],
    )
    def test_nonstandard_constants_rejected_like_skipper(
        self, text, path_text
    ):
        path = parse_path(path_text)
        outcomes = {}
        for name, scanner in (("tape", tape), ("text", textscan)):
            counters = ScanCounters()
            try:
                items = list(
                    scanner.scan_text(text, path, counters=counters)
                )
                outcome = ("ok", items)
            except JsonSyntaxError as error:
                outcome = (
                    "err", str(error), getattr(error, "offset", None)
                )
            outcomes[name] = (
                outcome, counters.matched, counters.skipped,
            )
        assert outcomes["tape"] == outcomes["text"]
        assert outcomes["tape"][0][0] == "err"

    def test_skipped_regions_stay_lenient(self):
        # The skipper never validates skipped regions; the navigator
        # jumps them with the same bracket hop, so "[1 2]" inside a
        # never-walked subtree passes both (the full parser rejects it,
        # so no parse-then-navigate reference here).
        text = '{"skip": [1 2], "a": 3}'
        path = parse_path('("a")')
        (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
        assert tape_items == text_items == [3]
        assert (tape_c.matched, tape_c.skipped) == (
            text_c.matched, text_c.skipped,
        )


class TestSameShapedRows:
    """A ``()("key")`` tail over same-shaped rows is taken one anchored
    match per member; nothing observable tells the two routes apart."""

    ROW = '{"date": "d%d", "dataType": "TMIN", "station": "S", "value": %d.5}'
    PATH = '("root")()("results")()("date")'

    @pytest.fixture(autouse=True)
    def empty_memo_and_hint(self, monkeypatch):
        textscan._member_pattern.cache_clear()
        textscan._SHAPE_HINT.clear()
        monkeypatch.setattr(
            textscan, "_compile_credit", textscan._COMPILE_ROWS
        )

    @staticmethod
    def document(row=ROW, rows=5):
        arrays = (
            ", ".join(row % (n, n) for n in range(first, first + rows))
            for first in (0, rows)
        )
        return '{"root": [%s]}' % ", ".join(
            '{"metadata": {"count": %d}, "results": [%s]}' % (rows, array)
            for array in arrays
        )

    def test_one_match_and_one_decode_per_row(self, spy, monkeypatch):
        text = self.document()
        walked = []
        walk_object = textscan._walk_object

        def spying_walk(text, pos, *rest):
            walked.append(pos)
            return walk_object(text, pos, *rest)

        monkeypatch.setattr(textscan, "_walk_object", spying_walk)
        items, counters = scan_counted(text, self.PATH)
        assert items == ["d%d" % n for n in range(10)]
        # Two rows to learn the shape; the second array starts on the hint.
        rows_walked = [p for p in walked if text.startswith('{"date"', p)]
        assert rows_walked == [text.index('{"date": "d0"'),
                               text.index('{"date": "d1"')]
        assert [text[a:b] for a, b in spy.spans] == [
            '"d%d"' % n for n in range(10)
        ]
        assert counters.tape_records == 1

    def test_counters_do_not_depend_on_the_route(self):
        matched = scan_counted(self.document(), self.PATH)
        assert textscan._member_pattern.cache_info().misses == 1
        # One escaped key keeps every row on the key walk.
        walked = scan_counted(
            self.document(self.ROW.replace("station", "st\\u0061tion")),
            self.PATH,
        )
        assert textscan._member_pattern.cache_info().misses == 1
        assert matched[0] == walked[0]
        assert matched[1].as_dict() == walked[1].as_dict()
        # Per row 1 matched and 3 skipped (plus the 2 "metadata"), and
        # 4 keys read plus 1 decode call; 10 + 2 members visited and
        # 2 x 2 + 1 keys read above the rows.
        assert (matched[1].matched, matched[1].skipped) == (10, 32)
        assert matched[1].tape_tokens == 10 * 5 + 12 + 5

    def test_repeated_target_key_is_walked_and_last_wins(self):
        rows = ['{"date": %d, "v": 0}' % n for n in range(6)]
        rows[4] = '{"date": 4, "v": 0, "date": 44}'
        text = "[%s]" % ", ".join(rows)
        path = parse_path('()("date")')
        (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
        assert tape_items == text_items == [0, 1, 2, 3, 44, 5]
        # The discarded first occurrence is recounted as one skipped.
        assert (tape_c.matched, tape_c.skipped) == (6, 7)
        assert (text_c.matched, text_c.skipped) == (6, 7)
        assert tape_c.tape_records == 1

    def test_a_stale_hint_changes_nothing_observable(self, monkeypatch):
        monkeypatch.setattr(textscan, "_COMPILE_ROWS", 0)  # each scan learns
        text = "[%s]" % ", ".join(
            '{"v": %d, "date": %d, "w": null}' % (n, n) for n in range(6)
        )
        fresh = scan_counted(text, '()("date")')
        scan_counted(self.document(), self.PATH)
        assert textscan._SHAPE_HINT["date"] != ("v", "date", "w")
        hinted = scan_counted(text, '()("date")')
        assert hinted[0] == fresh[0] == list(range(6))
        assert hinted[1].as_dict() == fresh[1].as_dict()

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(
                lambda n: '{"k%d": 1, "date": 2, "j%d": 3}' % (n, n),
                id="all-different-keys",
            ),
            pytest.param(
                lambda n: '{"a": 1, "date": 2}' if n % 2
                else '{"date": 2, "a": 1}',
                id="alternating-key-orders",
            ),
            pytest.param(
                lambda n: '{"a": 1, "date": 2, "b": [%d]}' % n,
                id="nested-value",
            ),
        ],
    )
    def test_irregular_rows_pay_three_looks_and_no_compile(
        self, row, monkeypatch
    ):
        looks = []
        flat_shape = textscan._flat_shape

        def spying_shape(*args):
            looks.append(args)
            return flat_shape(*args)

        monkeypatch.setattr(textscan, "_flat_shape", spying_shape)
        text = "[%s]" % ", ".join(row(n) for n in range(200))
        items, counters = scan_counted(text, '()("date")')
        assert items == [2] * 200
        assert counters.tape_records == 1
        assert len(looks) == textscan._ROW_MISSES
        assert textscan._member_pattern.cache_info().misses == 0
        assert textscan._SHAPE_HINT == {}

    def test_rows_wider_than_the_bound_are_never_compiled(self):
        wide = "{%s}" % ", ".join(
            '"k%d": %d' % (n, n) for n in range(1000)
        )
        text = "[%s]" % ", ".join([wide] * 4)
        assert scan_counted(text, '()("k7")')[0] == [7] * 4
        assert textscan._member_pattern.cache_info().misses == 0
        assert textscan._SHAPE_HINT == {}
        # The bound itself is still learned.
        edge = "{%s}" % ", ".join(
            '"k%d": %d' % (n, n) for n in range(textscan._ROW_KEYS)
        )
        text = "[%s]" % ", ".join([edge] * 4)
        assert scan_counted(text, '()("k7")')[0] == [7] * 4
        assert textscan._member_pattern.cache_info().misses == 1

    @pytest.mark.parametrize("rows", [2, 4, 32])
    def test_rotating_shapes_compile_only_what_the_walk_has_earned(self, rows):
        # Every array brings a shape no cache has seen.  The first
        # compile is free, each later one needs `_COMPILE_ROWS` walked
        # rows since the one before, whatever the rows per shape.
        arrays = 400
        text = "[%s]" % ", ".join(
            "[%s]" % ", ".join(['{"date": 1, "s%d": 2}' % n] * rows)
            for n in range(arrays)
        )
        items, counters = scan_counted(text, '()()("date")')
        assert items == [1] * (arrays * rows)
        compiles = textscan._member_pattern.cache_info().misses
        assert 2 <= compiles <= 1 + arrays * rows // textscan._COMPILE_ROWS

    def test_shape_hint_is_bounded(self, monkeypatch):
        monkeypatch.setattr(textscan, "_SHAPE_HINT_SIZE", 4)
        monkeypatch.setattr(textscan, "_COMPILE_ROWS", 0)
        for n in range(10):
            text = '[{"t%d": 1}, {"t%d": 2}, {"t%d": 3}]' % (n, n, n)
            assert scan_counted(text, '()("t%d")' % n)[0] == [1, 2, 3]
            assert textscan._SHAPE_HINT["t%d" % n] == ("t%d" % n,)
            assert len(textscan._SHAPE_HINT) <= 4
