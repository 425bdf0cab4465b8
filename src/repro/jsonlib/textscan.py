"""Raw-text path projection: skip what the path doesn't need, fast.

Parsing a whole record and then navigating it builds every value the
path throws away.  This module, in the spirit of structural-index JSON
scanners (Mison — cited as related work in the paper), builds only what
the path matches: values that the path does not need are **skipped at
string-search speed** — one regex hop per structural character, with
string literals jumped over by quote search — and only the matched
slices are decoded.

This is the scanner behind DATASCAN's projection argument on file
sources.  Its contract is equivalence with decoding the whole text by
the standard library and navigating it (for a one-value text)::

    list(scan_text(text, path)) == navigate(json.loads(text), path)

checked property-based in the test suite.  Over the empty path it is
also the whole-text decoder: :func:`repro.jsonlib.parser.parse_many`
and the un-rewritten plan's ``read_collection`` read every top-level
value through it.  The path walkers take the value decoder as a
parameter: with this module's pure-Python builder they are
``scan_mode="text"``, the canonical definition of errors, offsets and
partial counts; with the C scanner (``_DECODER``) they are the
on-demand navigator (:mod:`repro.jsonlib.ondemand`), which walks the
path's head key by key up to its first keys-or-members array, decodes
each member of that array with one C call, navigates the rest of the
path over the built member in Python, and hands every irregular record
back to the former.  :func:`scan_file` feeds the
skipper through a sliding buffer, so memory is bounded by the read
chunk size plus the largest single top-level value (plus, on the
on-demand route, one decoded member of it) — never by file (or
collection) size.
"""

from __future__ import annotations

import json
import re
from typing import Iterator

from repro.errors import JsonSyntaxError
from repro.jsonlib.items import Item
from repro.jsonlib.path import Path, ValueByIndex, ValueByKey, navigate_into

_WS = r"[ \t\n\r]*"
_WS_RE = re.compile(_WS)
#: Unicode byte-order mark; legal as the very first character of a JSON
#: text (RFC 8259 permits parsers to ignore it), never anywhere else.
_BOM = "\ufeff"
# Structural characters that change nesting depth, plus string openers.
_STRUCT_RE = re.compile(r'["{}\[\]]')
# Plain runs unrolled around the escapes: the language of
# `(?:plain|escape)*`, matched about three times faster.
_PLAIN_RUN = r'[^"\\\x00-\x1f]*'
_STRING_BODY = (
    rf'{_PLAIN_RUN}(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{{4}}){_PLAIN_RUN})*'
)
_STRING_RE = re.compile(f'"{_STRING_BODY}"')
# A walked object's hop from one member to its value in one anchored
# match: whitespace, the key literal (group 1 is its body), the colon,
# and the whitespace before the value.
_KEY_HOP_RE = re.compile(rf'{_WS}"({_STRING_BODY})"{_WS}:{_WS}')
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE = re.compile(_NUMBER)
_LITERAL = "true|false|null"
_LITERAL_RE = re.compile(_LITERAL)
_LITERAL_VALUES = {"true": True, "false": False, "null": None}
# Text that could be the *beginning* of a number's fraction or exponent,
# cut off at a chunk boundary: ".", "e", "E", "e+", "e-" at the very end
# of the buffer (the number before it may then continue).
_PARTIAL_NUMBER_TAIL_RE = re.compile(r"\.|[eE][+-]?")
_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}


#: Every counter a scan can accumulate, in a stable serialization order.
_COUNTER_FIELDS = (
    "matched",
    "skipped",
    "tape_records",
    "tape_tokens",
    "cache_hits",
    "cache_misses",
    "cache_corrupt",
)


class ScanCounters:
    """Scan-effectiveness counters for one projected scan.

    Navigation accounting (every scan mode): ``matched`` counts items
    the projection materialized; ``skipped`` counts the values it
    jumped over (a bulk container skip counts once).  On-demand
    accounting (:mod:`repro.jsonlib.ondemand`; zero in the other modes):
    ``tape_records`` counts the records projected on the on-demand
    path, ``tape_tokens`` the key walk's steps on them (one per key
    read, member visited and decode call; a member decoded whole counts
    the steps its key walk would have taken, see
    :func:`repro.jsonlib.path.navigate_into`).
    Segment-cache accounting
    (:mod:`repro.cache`): ``cache_hits`` / ``cache_misses`` count
    per-file cache probes; a hit replays the stored scan's
    matched/skipped so projection accounting stays byte-identical with
    the cache off.  ``cache_corrupt`` counts probes that found a
    segment file but rejected it (bad magic, truncation, checksum
    mismatch) — each such probe also counts as a miss, because the
    scan fell back to a cold read.  Attached to a scan through the data source's
    ``attach_scan_counters`` hook and surfaced in query profiles as
    ``projection_hits`` / ``projection_skips`` (plus the on-demand and
    cache counters when nonzero).
    """

    __slots__ = _COUNTER_FIELDS

    def __init__(self):
        # Spelled out, not looped: the walkers stage one per matched key.
        self.matched = self.skipped = 0
        self.tape_records = self.tape_tokens = 0
        self.cache_hits = self.cache_misses = self.cache_corrupt = 0

    def merge(self, other: "ScanCounters") -> None:
        """Accumulate every counter of *other* into this one."""
        for field in _COUNTER_FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def as_dict(self) -> dict:
        """Plain-dict snapshot (stored inside cache segments)."""
        return {field: getattr(self, field) for field in _COUNTER_FIELDS}

    def absorb(self, data: dict) -> None:
        """Replay a stored scan's projection accounting (cache hits).

        Only ``matched``/``skipped`` are replayed: a warm partition did
        that navigation work once, at store time, and replaying it
        keeps ``projection_hits``/``projection_skips`` byte-identical
        across cache on/off.  The on-demand counters are *not*
        replayed — no text was walked on the warm path.
        """
        self.matched += data.get("matched", 0)
        self.skipped += data.get("skipped", 0)


def _decode_string(raw: str, offset: int) -> str:
    """Decode the body of a matched JSON string literal (without quotes)."""
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        esc = raw[i + 1]
        if esc == "u":
            code = int(raw[i + 2 : i + 6], 16)
            i += 6
            # Combine surrogate pairs when both halves are present.
            if 0xD800 <= code <= 0xDBFF and raw.startswith("\\u", i):
                low = int(raw[i + 2 : i + 6], 16)
                if 0xDC00 <= low <= 0xDFFF:
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    i += 6
            out.append(chr(code))
        else:
            mapped = _ESCAPES.get(esc)
            if mapped is None:
                raise JsonSyntaxError(f"invalid escape \\{esc}", offset + i)
            out.append(mapped)
            i += 2
    return "".join(out)


def _convert_number(text: str, offset: int) -> int | float:
    """Convert matched number text (found at *offset*) to int or float."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    try:
        return int(text)
    except ValueError:
        # CPython refuses to convert integer literals longer than
        # sys.get_int_max_str_digits(); to a scanner that is one more
        # malformed record, not an engine failure.
        raise JsonSyntaxError(
            f"integer literal of {len(text)} characters is too long", offset
        ) from None


def _skip_ws(text: str, pos: int) -> int:
    return _WS_RE.match(text, pos).end()


def _skip_string(text: str, pos: int) -> int:
    """Skip the string literal opening at *pos*; returns the end offset."""
    i = pos + 1
    n = len(text)
    while True:
        quote = text.find('"', i)
        if quote < 0:
            raise JsonSyntaxError("unterminated string", pos)
        # A quote escaped by an odd number of backslashes is not the end.
        backslashes = 0
        j = quote - 1
        while j >= 0 and text[j] == "\\":
            backslashes += 1
            j -= 1
        if backslashes % 2 == 0:
            return quote + 1
        i = quote + 1


def _skip_value(text: str, pos: int) -> int:
    """Skip the JSON value at *pos* without tokenizing its interior."""
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise JsonSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == '"':
        return _skip_string(text, pos)
    if ch in "{[":
        depth = 0
        i = pos
        while True:
            match = _STRUCT_RE.search(text, i)
            if match is None:
                raise JsonSyntaxError("unterminated container", pos)
            found = match.group()
            if found == '"':
                i = _skip_string(text, match.start())
                continue
            depth += 1 if found in "{[" else -1
            i = match.end()
            if depth == 0:
                return i
    match = _NUMBER_RE.match(text, pos)
    if match is not None and match.end() > pos:
        return match.end()
    match = _LITERAL_RE.match(text, pos)
    if match is not None:
        return match.end()
    raise JsonSyntaxError(f"unexpected character {ch!r}", pos)


def _build_value(text: str, pos: int) -> tuple[Item, int]:
    """Materialize the value at *pos*; returns (item, end offset).

    A direct recursive parser over the in-memory text, and the
    canonical definition of what a malformed value raises.
    """
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise JsonSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == '"':
        match = _STRING_RE.match(text, pos)
        if match is None:
            raise JsonSyntaxError("invalid string literal", pos)
        return _decode_string(match.group()[1:-1], pos + 1), match.end()
    if ch == "{":
        obj: dict = {}
        pos = _skip_ws(text, pos + 1)
        if pos < len(text) and text[pos] == "}":
            return obj, pos + 1
        while True:
            pos = _skip_ws(text, pos)
            key, pos = _read_key(text, pos)
            pos = _expect(text, pos, ":")
            obj[key], pos = _build_value(text, pos)
            pos = _skip_ws(text, pos)
            if pos >= len(text):
                raise JsonSyntaxError("unterminated object", pos)
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == "}":
                return obj, pos + 1
            raise JsonSyntaxError(
                f"expected ',' or '}}', found {text[pos]!r}", pos
            )
    if ch == "[":
        array: list = []
        pos = _skip_ws(text, pos + 1)
        if pos < len(text) and text[pos] == "]":
            return array, pos + 1
        while True:
            member, pos = _build_value(text, pos)
            array.append(member)
            pos = _skip_ws(text, pos)
            if pos >= len(text):
                raise JsonSyntaxError("unterminated array", pos)
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == "]":
                return array, pos + 1
            raise JsonSyntaxError(
                f"expected ',' or ']', found {text[pos]!r}", pos
            )
    match = _NUMBER_RE.match(text, pos)
    if match is not None and match.end() > pos:
        return _convert_number(match.group(), pos), match.end()
    match = _LITERAL_RE.match(text, pos)
    if match is not None:
        return _LITERAL_VALUES[match.group()], match.end()
    raise JsonSyntaxError(f"unexpected character {ch!r}", pos)


def _read_key(text: str, pos: int) -> tuple[str, int]:
    """Read the object key at *pos* (must be a string literal)."""
    if pos >= len(text) or text[pos] != '"':
        raise JsonSyntaxError("expected object key", pos)
    match = _STRING_RE.match(text, pos)
    if match is None:
        raise JsonSyntaxError("invalid object key", pos)
    return _decode_string(match.group()[1:-1], pos + 1), match.end()


def _expect(text: str, pos: int, ch: str) -> int:
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ch:
        raise JsonSyntaxError(f"expected {ch!r}", pos)
    return pos + 1


def _project(
    text: str,
    pos: int,
    path: Path,
    step_index: int,
    out: list,
    counters: ScanCounters | None = None,
    decode=_build_value,
) -> int:
    """Project steps from *step_index* over the value at *pos*.

    *pos* is the value's first character: every caller has skipped the
    whitespace before it.  Matched items append to *out*; returns the
    value's end offset.  When *counters* is given, materialized items
    bump ``matched`` and skipped-over values bump ``skipped``.

    *decode* materializes a matched value, ``(text, pos) -> (item,
    end)``.  With the default this is the raw-text skipper: the
    authority on malformed input, whose counts are exact up to the
    character that raised.  Any other decoder makes it the on-demand
    navigator (:mod:`repro.jsonlib.ondemand`), which stages each record
    and re-projects it with the default when anything goes wrong; that
    licence lets the walkers decode each member of a keys-or-members
    array whole and navigate the rest of the path over it in Python
    (:func:`_walk_array`), and has them count their steps into
    ``tape_tokens`` (one per key read, member visited and decode call).
    """
    if step_index == len(path):
        item, end = decode(text, pos)
        out.append(item)
        if counters is not None:
            counters.matched += 1
            if decode is not _build_value:
                counters.tape_tokens += 1
        return end

    if pos >= len(text):
        raise JsonSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    step = path[step_index]

    if isinstance(step, ValueByKey):
        if ch != "{":
            return _skip(text, pos, counters)
        return _walk_object(
            text, pos, path, step_index, out, step.key, counters, decode
        )
    if isinstance(step, ValueByIndex):
        if ch != "[":
            return _skip(text, pos, counters)
        return _walk_array(
            text, pos, path, step_index, out, step.index, counters, decode
        )
    # KeysOrMembers
    if ch == "[":
        return _walk_array(
            text, pos, path, step_index, out, None, counters, decode
        )
    if ch == "{":
        return _walk_object(
            text, pos, path, step_index, out, None, counters, decode
        )
    return _skip(text, pos, counters)


def _skip(text: str, pos: int, counters: ScanCounters | None) -> int:
    """Skip the value at *pos*, counting it when *counters* is given."""
    end = _skip_value(text, pos)
    if counters is not None:
        counters.skipped += 1
    return end


def _walk_object(
    text: str,
    pos: int,
    path: Path,
    step_index: int,
    out: list,
    target_key: str | None,
    counters: ScanCounters | None,
    decode,
) -> int:
    """Walk an object; ``target_key`` None means keys-or-members."""
    at_end = step_index + 1 == len(path)
    pos = _skip_ws(text, pos + 1)  # past '{'
    if text.startswith("}", pos):
        return pos + 1
    # Duplicate keys: the parser keeps the *last* occurrence of a
    # repeated key, so buffer each matching occurrence's projection
    # (items + counters) and emit only the final one at the closing
    # brace.  Keys-or-members likewise deduplicates, because the built
    # dict's keys() would.
    matched: list | None = None
    matched_counters: ScanCounters | None = None
    seen_keys: set[str] = set()
    count_steps = counters is not None and decode is not _build_value
    keys_read = 0
    hop_match = _KEY_HOP_RE.match
    while True:
        hop = hop_match(text, pos)
        if hop is not None:
            key = hop.group(1)
            if "\\" in key:
                key = _decode_string(key, hop.start(1))
            pos = hop.end()
        else:
            # Not a well-formed `key :` hop; the piecewise readers name
            # the defect and its offset.
            key, pos = _read_key(text, _skip_ws(text, pos))
            pos = _skip_ws(text, _expect(text, pos, ":"))
        keys_read += 1
        if target_key is None:
            # Keys-or-members over an object yields its keys.
            if at_end and key not in seen_keys:
                seen_keys.add(key)
                out.append(key)
                if counters is not None:
                    counters.matched += 1
            pos = _skip(text, pos, counters)
        elif key == target_key:
            occurrence: list = []
            occurrence_counters = None if counters is None else ScanCounters()
            pos = _project(
                text, pos, path, step_index + 1, occurrence,
                occurrence_counters, decode,
            )
            if matched is not None and counters is not None:
                # The earlier occurrence is discarded unseen: recount
                # the whole value as one skipped.
                counters.skipped += 1
            matched, matched_counters = occurrence, occurrence_counters
        else:
            pos = _skip(text, pos, counters)
        pos = _skip_ws(text, pos)
        ch = text[pos : pos + 1]
        if ch == ",":
            pos += 1
            continue
        if ch == "}":
            if matched is not None:
                out.extend(matched)
                if counters is not None:
                    counters.matched += matched_counters.matched
                    counters.skipped += matched_counters.skipped
                    counters.tape_tokens += matched_counters.tape_tokens
            if count_steps:
                counters.tape_tokens += keys_read
            return pos + 1
        if not ch:
            raise JsonSyntaxError("unterminated object", pos)
        raise JsonSyntaxError(f"expected ',' or '}}', found {ch!r}", pos)


def _skip_to_container_end(text: str, pos: int, start: int) -> int:
    """From depth 1 inside a container, skip just past its closer.

    Jumps at string-search speed: one structural hop per bracket, quote
    search over string literals — no per-member tokenization, the same
    leniency :func:`_skip_value` already applies to skipped containers.
    """
    depth = 1
    i = pos
    while True:
        match = _STRUCT_RE.search(text, i)
        if match is None:
            raise JsonSyntaxError("unterminated container", start)
        found = match.group()
        if found == '"':
            i = _skip_string(text, match.start())
            continue
        depth += 1 if found in "{[" else -1
        i = match.end()
        if depth == 0:
            return i


def _reject_constant(token: str):
    """Refuse ``NaN``/``Infinity``, which :func:`_build_value` rejects
    (``json.dumps`` emits them, so they do occur)."""
    raise ValueError(f"invalid literal {token}")


def _unique_pairs(pairs: list) -> dict:
    """An object's dict, refusing a repeated key (which it would hide)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated object key")
    return obj


#: The navigator's decoder: ``scan_once(text, pos)`` returns ``(value,
#: end offset)`` with :func:`_build_value`'s value semantics (int unless
#: ``./e/E``, the last duplicate key wins, surrogate pairs combine and
#: lone ones are kept).  A counted scan decodes members with the second,
#: because a built dict hides the repeated keys the key walk counts.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_COUNTING_DECODER = json.JSONDecoder(
    parse_constant=_reject_constant, object_pairs_hook=_unique_pairs
)


def _walk_array(
    text: str,
    pos: int,
    path: Path,
    step_index: int,
    out: list,
    target_index: int | None,
    counters: ScanCounters | None,
    decode,
) -> int:
    """Walk an array; ``target_index`` None means keys-or-members.

    The navigator decodes each member of a keys-or-members array whole,
    with one call, and navigates the rest of the path over it in Python
    (:func:`~repro.jsonlib.path.navigate_into`, which counts the steps
    of the key walk it replaces).  A member the decoder refuses (a
    repeated key while counting, a non-standard constant, an integer
    too long to convert, nesting too deep, a region only the skipper's
    leniency accepts) is walked key by key instead, as the path's head
    is.  The array's own steps are one per member visited, or one decode
    call for a trailing ``()``.
    """
    start = pos
    navigating = decode is not _build_value
    whole = navigating and target_index is None
    trailing = step_index + 1 == len(path)
    take = decode
    if whole and counters is not None and not trailing:
        take = _COUNTING_DECODER.scan_once
    pos = _skip_ws(text, pos + 1)  # past '['
    position = 0
    if text.startswith("]", pos):
        end = pos + 1
    else:
        while True:
            position += 1
            if whole:
                try:
                    item, pos = take(text, pos)
                except (ValueError, StopIteration, RecursionError):
                    pos = _project(
                        text, pos, path, step_index + 1, out, counters, decode
                    )
                else:
                    if not trailing:
                        navigate_into(
                            item, path.steps, step_index + 1, out, counters
                        )
                    else:
                        out.append(item)
                        if counters is not None:
                            counters.matched += 1
            elif target_index is None or position == target_index:
                pos = _project(
                    text, pos, path, step_index + 1, out, counters, decode
                )
                if target_index is not None:
                    # Positions only grow, so no later member can match:
                    # skip the rest of the array in one bulk hop.
                    end = _skip_to_container_end(text, pos, start)
                    if (
                        counters is not None
                        and text[_skip_ws(text, pos)] != "]"
                    ):
                        counters.skipped += 1
                    break
            else:
                pos = _skip(text, pos, counters)
            pos = _skip_ws(text, pos)
            ch = text[pos : pos + 1]
            if ch == ",":
                pos = _skip_ws(text, pos + 1)
                continue
            if ch == "]":
                end = pos + 1
                break
            if not ch:
                raise JsonSyntaxError("unterminated array", pos)
            raise JsonSyntaxError(f"expected ',' or ']', found {ch!r}", pos)
    if counters is not None and navigating:
        counters.tape_tokens += 1 if whole and trailing else position
    return end


def _resync(text: str, pos: int, error: JsonSyntaxError) -> int:
    """Position to resume scanning from after a malformed top-level value.

    Resyncs at the next newline past the error (the line-delimited
    convention most concatenated-JSON files follow); a multi-line broken
    record may cascade into several skips, but the position strictly
    advances so the scan always terminates.
    """
    start = error.offset if error.offset is not None else pos
    start = max(start, pos)
    newline = text.find("\n", start)
    if newline < 0:
        return len(text)
    return newline + 1


def _default_projector(
    text: str,
    pos: int,
    path: Path,
    out: list,
    counters: ScanCounters | None,
) -> int:
    """Per-record projector of the raw-text skipper.

    ``scan_text``/``scan_file`` delegate each top-level value to a
    projector with this signature; :mod:`repro.jsonlib.ondemand` plugs its
    on-demand projector into the same sliding-buffer machinery.
    """
    return _project(text, pos, path, 0, out, counters)


def _run_projector(
    projector, text: str, pos: int, path: Path, out: list, counters
) -> int:
    """Run *projector* on the record at *pos*; the per-record guard.

    A record nested deeper than the interpreter recurses (the value
    builder, or the C decoder behind the on-demand projector) is one
    more malformed record, reported at the record's offset so every
    scan mode and ``on_malformed`` policy treats it alike.
    """
    try:
        return projector(text, pos, path, out, counters)
    except RecursionError:
        raise JsonSyntaxError("maximum nesting depth exceeded", pos) from None


def scan_text(
    text: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    counters: ScanCounters | None = None,
    projector=_default_projector,
) -> Iterator[Item]:
    """Project *path* over every top-level value of *text*.

    Yields matched items lazily per top-level value; within one
    top-level value matches are collected eagerly (the value has to be
    walked to its end anyway to find the next one).

    A leading byte-order mark is ignored, matching RFC 8259's allowance
    for BOM-prefixed JSON texts.

    With ``on_malformed="skip_record"`` a malformed top-level value is
    skipped (resyncing at the next newline) instead of raising; each
    skip is reported to ``recorder(offset, message)`` when given.  When
    *counters* is given it accumulates projection hit/skip counts.
    """
    pos = 1 if text.startswith(_BOM) else 0
    pos = _skip_ws(text, pos)
    n = len(text)
    while pos < n:
        out: list = []
        try:
            pos = _run_projector(projector, text, pos, path, out, counters)
        except JsonSyntaxError as error:
            if on_malformed != "skip_record":
                raise
            if recorder is not None:
                recorder(pos, str(error))
            pos = _skip_ws(text, _resync(text, pos, error))
            continue
        yield from out
        pos = _skip_ws(text, pos)


_DEFAULT_CHUNK_SIZE = 1 << 20  # characters per read


def _rebase(error: JsonSyntaxError, base: int) -> JsonSyntaxError:
    """Shift *error*'s buffer-relative offset to an absolute file offset."""
    if base == 0 or error.offset is None:
        return error
    message = error._init_args[0]
    return type(error)(message, base + error.offset)


def scan_file(
    file_path: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    chunk_size: int = _DEFAULT_CHUNK_SIZE,
    counters: ScanCounters | None = None,
    projector=_default_projector,
) -> Iterator[Item]:
    """Project *path* over a JSON file, reading it in chunks.

    The file streams through a sliding buffer: at least one chunk is
    read ahead, whole top-level values are scanned out of the buffer,
    and the consumed prefix is dropped as the scan advances — memory is
    bounded by ``chunk_size`` plus the largest single top-level value,
    never by file size.  A value that extends past the buffered text is
    detected (the skipper either raises mid-token or stops exactly at
    the buffer edge), the buffer grows by a doubling read, and the value
    is re-scanned — amortized linear in file size.

    A leading byte-order mark is stripped by the ``utf-8-sig`` codec
    (RFC 8259 allows BOM-prefixed JSON texts); absolute offsets count
    from the first post-BOM character, matching :func:`scan_text` on
    the decoded text.

    Offsets reported to ``recorder`` and carried by raised
    :class:`~repro.errors.JsonSyntaxError`\\ s are absolute file
    offsets, identical to what a whole-file :func:`scan_text` reports.
    When *counters* is given it accumulates projection hit/skip counts;
    a value re-scanned after a buffer grow is counted once.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size!r}")
    with open(file_path, "r", encoding="utf-8-sig") as handle:
        buffer = handle.read(chunk_size)
        eof = buffer == ""
        base = 0  # absolute offset of buffer[0]
        pos = 0
        read_size = chunk_size

        def grow() -> bool:
            """Read more text into the buffer; True when anything arrived."""
            nonlocal buffer, eof, read_size
            chunk = handle.read(read_size)
            if chunk == "":
                eof = True
                return False
            buffer += chunk
            # Double so a value spanning many chunks costs O(n) total
            # re-scans, not O(n^2).
            read_size *= 2
            return True

        while True:
            pos = _skip_ws(buffer, pos)
            if pos >= len(buffer):
                if eof or not grow():
                    return
                continue
            out: list = []
            # Counters accumulate per attempt and merge only once the
            # value is accepted, so a grow-and-retry re-scan of the same
            # value cannot double-count hits or skips.
            attempt = None if counters is None else ScanCounters()
            try:
                end = _run_projector(
                    projector, buffer, pos, path, out, attempt
                )
            except JsonSyntaxError as error:
                # Not EOF yet: the error may just be a truncated token
                # (a string or container cut mid-chunk) — grow and retry.
                if not eof and grow():
                    continue
                if on_malformed != "skip_record":
                    raise _rebase(error, base) from None
                if recorder is not None:
                    recorder(base + pos, str(_rebase(error, base)))
                pos = _skip_ws(buffer, _resync(buffer, pos, error))
                continue
            if not eof and (
                end >= len(buffer)
                or _PARTIAL_NUMBER_TAIL_RE.fullmatch(buffer, end)
            ):
                # The value ran to the buffer edge, or to what may be
                # the start of a fraction or exponent there ("1" + "."
                # or "e+"); it may continue in the next chunk (a number
                # split anywhere), so re-scan with more text before
                # trusting it.
                if grow():
                    continue
            if counters is not None:
                counters.merge(attempt)
            yield from out
            pos = end
            if pos > chunk_size:
                # Drop the consumed prefix; keep offsets absolute.
                base += pos
                buffer = buffer[pos:]
                pos = 0
                read_size = chunk_size
