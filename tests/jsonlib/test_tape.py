"""Unit, equivalence and counter-parity tests for the on-demand scanner.

The on-demand scanner's contract is *byte-identity* with the raw-text
skipper (:mod:`repro.jsonlib.textscan`): same items, same counters,
same errors (message and offset), same recorder events — on well-formed
input, hostile Unicode, duplicate keys, BOM-prefixed texts, and records
split across ``scan_file``'s sliding chunk buffer.  (The file keeps
the module's old name, ``tape``.)
"""

import json
import sys
from types import SimpleNamespace

import pytest

from repro.correctness.oracle import reference_documents
from repro.errors import JsonSyntaxError
from repro.jsonlib import ondemand, textscan
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
        ondemand.scan_text(text, path, counters=tape_counters, **kwargs)
    )
    text_items = list(
        textscan.scan_text(text, path, counters=text_counters, **kwargs)
    )
    return (tape_items, tape_counters), (text_items, text_counters)


def assert_parity(text, path_text, counted=True, expected=None):
    """Tape == skipper == *expected* (by default parse-then-navigate),
    in items and, when *counted*, in counters; returns the tape's."""
    path = parse_path(path_text)
    if expected is None:
        expected = reference(text, path)
    if not counted:
        assert (
            list(ondemand.scan_text(text, path))
            == list(textscan.scan_text(text, path))
            == expected
        )
        return None
    (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
    assert tape_items == text_items == expected
    assert tape_c.matched == text_c.matched
    assert tape_c.skipped == text_c.skipped
    assert tape_c.tape_records > 0
    assert (text_c.tape_records, text_c.tape_tokens) == (0, 0)
    return tape_c


def outcome(scanner, text, path, counted=True, on_malformed="fail"):
    """Everything a caller sees of one scan: items or error, the
    navigation counters and the skip events."""
    counters = ScanCounters() if counted else None
    events, items = [], []
    try:
        for item in scanner.scan_text(
            text, path, on_malformed=on_malformed, counters=counters,
            recorder=lambda offset, message: events.append((offset, message)),
        ):
            items.append(item)
    except JsonSyntaxError as error:
        items = (type(error).__name__, str(error), error.offset)
    if counters is None:
        return repr(items), events
    return repr(items), events, counters.matched, counters.skipped


class DecoderSpy:
    """Stands in for a module decoder; logs each (start, end) decoded."""

    def __init__(self, inner, spans):
        self.inner = inner
        self.spans = spans

    def scan_once(self, text, pos):
        value, end = self.inner.scan_once(text, pos)
        self.spans.append((pos, end))
        return value, end


@pytest.fixture
def spy(monkeypatch):
    """Both navigator decoders, logging into one list of spans."""
    spans = []
    for name in ("_DECODER", "_COUNTING_DECODER"):
        inner = getattr(textscan, name)
        monkeypatch.setattr(textscan, name, DecoderSpy(inner, spans))
    return SimpleNamespace(spans=spans)


def scan_counted(text, path_text):
    counters = ScanCounters()
    items = list(ondemand.scan_text(text, parse_path(path_text), counters=counters))
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

    def test_one_decode_call_per_member_of_the_first_array(self, spy):
        text = (
            '{"root": [{"m": {"count": 3}, "results": [{"v": 1}, 2, [3]]},'
            ' {"m": {"count": 1}, "results": [4]}]}'
        )
        members = ['{"m": {"count": 3}, "results": [{"v": 1}, 2, [3]]}',
                   '{"m": {"count": 1}, "results": [4]}']
        for counted in (False, True):
            spy.spans.clear()
            counters = ScanCounters() if counted else None
            items = list(
                ondemand.scan_text(
                    text, parse_path('("root")()("results")()'),
                    counters=counters,
                )
            )
            assert items == [{"v": 1}, 2, [3], 4]
            # Each member of "root" whole, never the root array itself.
            assert [text[a:b] for a, b in spy.spans] == members
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
        for project in (ondemand.project_record, textscan._default_projector):
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
        items = list(ondemand.scan_text('{"a": 1, "a": 2, "a": 3}', path))
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
        assert list(ondemand.scan_text("\ufeff" + text, path)) == [1, 2]
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
        assert list(ondemand.scan_file(str(target), path)) == ["é", 2]

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
            ondemand.scan_file(
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
        assert tape_items == list(ondemand.scan_text(self.TEXT, self.PATH))
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
        for name, scanner in (("tape", ondemand), ("text", textscan)):
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
        for name, scanner in (("tape", ondemand), ("text", textscan)):
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
        for name, scanner in (("tape", ondemand), ("text", textscan)):
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


class Refuses:
    """A decoder that refuses everything: every member walked key by key."""

    @staticmethod
    def scan_once(text, pos):
        raise StopIteration(pos)


class TestSameShapedRows:
    """Rows of the paper's layout under a ``()("key")`` tail: each member
    of the first ``()`` is decoded whole and navigated; nothing
    observable tells that route from the key walk."""

    ROW = '{"date": "d%d", "dataType": "TMIN", "station": "S", "value": %d.5}'
    PATH = '("root")()("results")()("date")'

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
        rows = [self.ROW % (n, n) for n in range(6)]
        text = "[%s]" % ", ".join(rows)
        walked = []
        walk_object = textscan._walk_object

        def spying_walk(text, pos, *rest):
            walked.append(pos)
            return walk_object(text, pos, *rest)

        monkeypatch.setattr(textscan, "_walk_object", spying_walk)
        items, counters = scan_counted(text, '()("date")')
        assert items == ["d%d" % n for n in range(6)]
        # The bare array's rows are the records: one call each, whole,
        # and no key walk over any of them.
        assert [text[a:b] for a, b in spy.spans] == rows
        assert walked == []
        assert counters.tape_records == 1

    def test_counters_do_not_depend_on_the_route(self, monkeypatch):
        decoded = scan_counted(self.document(), self.PATH)
        escaped = scan_counted(
            self.document(self.ROW.replace("station", "st\\u0061tion")),
            self.PATH,
        )
        monkeypatch.setattr(textscan, "_COUNTING_DECODER", Refuses)
        walked = scan_counted(self.document(), self.PATH)
        assert decoded[0] == escaped[0] == walked[0]
        assert decoded[1].as_dict() == escaped[1].as_dict()
        assert decoded[1].as_dict() == walked[1].as_dict()
        # Per row 1 matched and 3 skipped (plus the 2 "metadata"), and
        # 4 keys read plus 1 decode call; 10 + 2 members visited and
        # 2 x 2 + 1 keys read above the rows.
        assert (decoded[1].matched, decoded[1].skipped) == (10, 32)
        assert decoded[1].tape_tokens == 10 * 5 + 12 + 5

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


SENSOR_PATHS = [
    '("root")()("results")()',
    '("root")()("results")()("date")',
    '("root")()("metadata")("count")',
]

MEMBER = '{"metadata": {"count": %s}, "results": [%s]}'
ROW = '{"date": "d%d", "v": %s}'


def sensor_record(count="2", rows=(ROW % (1, "1"), ROW % (2, "2.5"))):
    return '{"root": [%s, %s]}' % (
        MEMBER % (count, ", ".join(rows)), MEMBER % ("1", ROW % (3, "3")),
    )


def among_others(record):
    """*record* between two regular ones."""
    return "\n".join([sensor_record(), record, sensor_record()])


#: A record repeating each key of the paper's layout once.
DUPLICATED = {
    "root": '{"root": [%s], "root": [%s]}' % (
        MEMBER % ("9", ROW % (9, "9")), MEMBER % ("2", ROW % (1, "1")),
    ),
    "results": '{"root": [%s]}' % MEMBER.replace(
        '"results"', '"results": [%s], "results"'
    ) % ("2", ROW % (9, "9"), ROW % (1, "1")),
    "metadata": '{"root": [%s]}' % (
        MEMBER[:-1] + ', "metadata": {"count": 7}}'
    ) % ("2", ROW % (1, "1")),
    "date": sensor_record(rows=['{"date": "d1", "v": 1, "date": "d9"}']),
}


class TestPerRecordRoute:
    """Each member of the path's first ``()`` is decoded with one C call
    and the rest of the path is navigated over it; nothing observable
    tells this route from the key walk."""

    @pytest.mark.parametrize("counted", [True, False], ids=["counted", "plain"])
    @pytest.mark.parametrize("path_text", SENSOR_PATHS)
    @pytest.mark.parametrize("key", sorted(DUPLICATED))
    def test_a_repeated_key(self, key, path_text, counted):
        counters = assert_parity(
            among_others(DUPLICATED[key]), path_text, counted
        )
        if counted:
            # No record was handed to the skipper.
            assert counters.tape_records == 3

    @pytest.mark.parametrize("path_text", SENSOR_PATHS)
    @pytest.mark.parametrize(
        "record",
        [
            pytest.param(sensor_record(count="NaN"), id="NaN-skipped"),
            pytest.param(
                sensor_record(rows=[ROW % (1, "[-Infinity]")]),
                id="-Infinity-skipped",
            ),
            pytest.param(
                sensor_record(rows=[ROW % (1, "9" * 5000)]),
                id="long-integer",
            ),
            pytest.param(
                sensor_record(rows=[ROW % (1, "-Infinity")]),
                id="-Infinity-walked",
            ),
            pytest.param(
                sensor_record(count='1 "x": 2'), id="lenient-missing-comma"
            ),
        ],
    )
    @pytest.mark.parametrize("on_malformed", ["fail", "skip_record"])
    def test_a_record_the_decoder_refuses(
        self, record, path_text, on_malformed
    ):
        text = among_others(record)
        path = parse_path(path_text)
        for counted in (True, False):
            seen = outcome(ondemand, text, path, counted, on_malformed)
            assert seen == outcome(
                textscan, text, path, counted, on_malformed
            )

    @pytest.mark.parametrize(
        "path_text, expected",
        [
            ('("root")()("results")()("date")', ["d1", "d2", "d3"]),
            ('("root")()("results")()', [
                {"date": "d1", "v": 1}, {"date": "d2", "v": 2.5},
                {"date": "d3", "v": 3},
            ]),
        ],
    )
    def test_a_lenient_skipped_region_keeps_the_skippers_items(
        self, path_text, expected
    ):
        # "metadata" misses a comma: the decoder refuses the member, the
        # key walk hops the region as the skipper does.
        record = sensor_record(count='1 "x": 2')
        counters = assert_parity(record, path_text, expected=expected)
        assert counters.tape_records == 1

    @pytest.mark.parametrize("frames", [0, 600])
    @pytest.mark.parametrize(
        "path_text, matched",
        [(SENSOR_PATHS[0], True), (SENSOR_PATHS[1], False)],
    )
    def test_nesting_past_the_recursion_limit(
        self, path_text, matched, frames
    ):
        depth = sys.getrecursionlimit() + 50
        deep = "[" * depth + "]" * depth
        # A row's "v": matched whole by ("results")(), hopped by ("date").
        record = sensor_record(rows=[ROW % (1, deep)])
        text = among_others(record)
        path = parse_path(path_text)

        def beneath(frames, scanner):
            if frames:
                return beneath(frames - 1, scanner)
            return outcome(scanner, text, path)

        seen = beneath(frames, ondemand)
        assert seen == beneath(frames, textscan)
        if matched:
            offset = text.index(record)
            assert seen[0] == repr((
                "JsonSyntaxError",
                f"maximum nesting depth exceeded (at offset {offset})",
                offset,
            ))
        else:
            assert seen[0] == repr(["d1", "d2", "d3", "d1", "d3"] + [
                "d1", "d2", "d3"
            ])

    @pytest.mark.parametrize(
        "text, path_text",
        [
            pytest.param(
                among_others(DUPLICATED["date"]), SENSOR_PATHS[1],
                id="repeated-date",
            ),
            pytest.param(
                among_others(DUPLICATED["results"]), SENSOR_PATHS[0],
                id="repeated-results",
            ),
            pytest.param(sensor_record(), SENSOR_PATHS[2], id="all-skip"),
            ('[{"a": [1, {"b": 2}], "c": 3}, [4, [5]], {}, []]', "()(2)"),
            ('[[{"a": 1}, {"b": 2}], [], 7]', "()()()"),
            ('[[{"a": 1}, {"b": 2}], [], 7]', '()(1)("a")'),
            ('[{"a": {"b": 1, "c": 2}}, {"a": []}]', '()("a")()'),
            ('{"r": [[], [[]], {}, {"k": {}}]}', '("r")()()'),
            ('{"r": [[], [[]], {}, {"k": {}}]}', '("r")()("k")()'),
        ],
    )
    def test_decoded_members_count_like_the_key_walk(
        self, text, path_text, monkeypatch
    ):
        path = parse_path(path_text)
        decoded = ScanCounters()
        items = list(ondemand.scan_text(text, path, counters=decoded))

        # Every member refused is every member walked key by key.
        monkeypatch.setattr(textscan, "_COUNTING_DECODER", Refuses)
        walked = ScanCounters()
        assert list(ondemand.scan_text(text, path, counters=walked)) == items
        assert decoded.as_dict() == walked.as_dict()
