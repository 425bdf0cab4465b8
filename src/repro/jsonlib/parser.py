"""An incremental, event-based JSON parser written from scratch.

The parser is the foundation of the paper's "query raw JSON on the fly"
claim: data is consumed in chunks (``feed``) and surfaced as a stream of
:class:`~repro.jsonlib.events.Event` objects, so downstream operators can
start working before the file has been fully read and without the text
ever being materialized as one big item.

The implementation is a single-pass state machine over a string buffer.
Tokens that may be cut off at a chunk boundary (strings, numbers,
``true``/``false``/``null`` literals) are retained in the buffer until the
next ``feed`` or until :meth:`StreamingJsonParser.finish` declares the
input complete.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import JsonIncompleteError, JsonSyntaxError
from repro.jsonlib.events import (
    END_ARRAY,
    END_OBJECT,
    START_ARRAY,
    START_OBJECT,
    Event,
    atomic_event,
    key_event,
)

# A complete JSON string literal, including the closing quote.
_STRING_RE = re.compile(
    r'"(?:[^"\\\x00-\x1f]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*"'
)
# A JSON number.  A match that runs to the end of the buffer may continue
# in the next chunk and is therefore provisional.
_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_WHITESPACE_RE = re.compile(r"[ \t\n\r]*")
# Text that could be the *beginning* of a number's fraction or exponent,
# cut off at a chunk boundary (the matched number before it is then
# provisional): ".", "e", "E", "e+", "e-" at the very end of the buffer.
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

_LITERALS = ("true", "false", "null")
_LITERAL_VALUES = {"true": True, "false": False, "null": None}

# Parser states.  The state says which token class is legal next; the
# container stack (True = object, False = array) supplies the rest.
_S_VALUE = 0  # expecting a value (top level, after ':' or after ',')
_S_VALUE_OR_CLOSE = 1  # right after '[': a value or ']'
_S_KEY_OR_CLOSE = 2  # right after '{': a key or '}'
_S_KEY = 3  # inside an object after ',': a key
_S_COLON = 4  # after a key: ':'
_S_COMMA_OR_CLOSE = 5  # after a value inside a container
_S_DONE_VALUE = 6  # a top-level value just finished

# Sentinel returned by scanners when the token is cut off at buffer end.
_NEED_MORE = -1


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


class StreamingJsonParser:
    """Incremental JSON parser producing an event stream.

    Parameters
    ----------
    allow_multiple_values:
        When True (the default), the input may contain any number of
        whitespace-separated top-level JSON values (the shape of a file of
        concatenated documents).  When False, a second top-level value is
        a syntax error.
    max_depth:
        Guard against pathologically nested inputs.

    Usage::

        parser = StreamingJsonParser()
        for chunk in chunks:
            for event in parser.feed(chunk):
                ...
        for event in parser.finish():
            ...
    """

    def __init__(self, allow_multiple_values: bool = True, max_depth: int = 2000):
        self._buffer = ""
        self._pos = 0
        self._consumed = 0  # chars consumed from previously-dropped buffers
        self._stack: list[bool] = []  # True = object, False = array
        self._state = _S_VALUE
        self._allow_multiple = allow_multiple_values
        self._max_depth = max_depth
        self._finished = False

    # -- public API ---------------------------------------------------------

    def feed(self, chunk: str) -> list[Event]:
        """Consume *chunk* and return the events it completes."""
        if self._finished:
            raise JsonSyntaxError("feed() after finish()")
        if self._pos:
            self._consumed += self._pos
            self._buffer = self._buffer[self._pos :]
            self._pos = 0
        self._buffer += chunk
        return self._scan(at_eof=False)

    def finish(self) -> list[Event]:
        """Declare end of input; return trailing events.

        Raises :class:`JsonIncompleteError` if the input stops in the
        middle of a value, and :class:`JsonSyntaxError` on trailing junk.
        """
        if self._finished:
            return []
        events = self._scan(at_eof=True)
        self._finished = True
        trailing = _WHITESPACE_RE.match(self._buffer, self._pos).end()
        if trailing != len(self._buffer):
            raise JsonSyntaxError("unexpected trailing data", self._offset(trailing))
        if self._stack or self._state not in (_S_DONE_VALUE, _S_VALUE):
            raise JsonIncompleteError(
                "input ended inside a JSON value", self._offset(self._pos)
            )
        return events

    @property
    def depth(self) -> int:
        """Current container nesting depth."""
        return len(self._stack)

    # -- internals ----------------------------------------------------------

    def _offset(self, pos: int) -> int:
        return self._consumed + pos

    def _scan(self, at_eof: bool) -> list[Event]:
        """Run the state machine over the buffered text."""
        events: list[Event] = []
        buf = self._buffer
        n = len(buf)
        pos = self._pos
        stack = self._stack
        try:
            while True:
                pos = _WHITESPACE_RE.match(buf, pos).end()
                if pos >= n:
                    break
                ch = buf[pos]
                state = self._state

                if state in (_S_VALUE, _S_DONE_VALUE, _S_VALUE_OR_CLOSE):
                    if state == _S_DONE_VALUE and not self._allow_multiple:
                        raise JsonSyntaxError(
                            "multiple top-level values", self._offset(pos)
                        )
                    if state == _S_VALUE_OR_CLOSE and ch == "]":
                        stack.pop()
                        events.append(END_ARRAY)
                        pos += 1
                        self._state = self._after_value()
                        continue
                    new_pos = self._scan_value(buf, pos, n, ch, events, at_eof)
                    if new_pos == _NEED_MORE:
                        break
                    pos = new_pos
                elif state in (_S_KEY_OR_CLOSE, _S_KEY):
                    if ch == "}" and state == _S_KEY_OR_CLOSE:
                        stack.pop()
                        events.append(END_OBJECT)
                        pos += 1
                        self._state = self._after_value()
                        continue
                    if ch != '"':
                        raise JsonSyntaxError(
                            f"expected object key, found {ch!r}", self._offset(pos)
                        )
                    text, new_pos = self._scan_string(buf, pos, n, at_eof)
                    if new_pos == _NEED_MORE:
                        break
                    pos = new_pos
                    events.append(key_event(text))
                    self._state = _S_COLON
                elif state == _S_COLON:
                    if ch != ":":
                        raise JsonSyntaxError(
                            f"expected ':', found {ch!r}", self._offset(pos)
                        )
                    pos += 1
                    self._state = _S_VALUE
                else:  # _S_COMMA_OR_CLOSE
                    if ch == ",":
                        pos += 1
                        self._state = _S_KEY if stack[-1] else _S_VALUE
                    elif ch == "}" and stack[-1]:
                        stack.pop()
                        events.append(END_OBJECT)
                        pos += 1
                        self._state = self._after_value()
                    elif ch == "]" and not stack[-1]:
                        stack.pop()
                        events.append(END_ARRAY)
                        pos += 1
                        self._state = self._after_value()
                    else:
                        raise JsonSyntaxError(
                            f"expected ',' or container close, found {ch!r}",
                            self._offset(pos),
                        )
        finally:
            self._pos = pos
        return events

    def _after_value(self) -> int:
        """State after a complete value closes."""
        return _S_COMMA_OR_CLOSE if self._stack else _S_DONE_VALUE

    def _scan_value(
        self,
        buf: str,
        pos: int,
        n: int,
        ch: str,
        events: list[Event],
        at_eof: bool,
    ) -> int:
        """Scan one value token starting at *pos*.

        Returns the position after the token, or ``_NEED_MORE`` when the
        token is cut off at the buffer end.  Opening a container pushes
        the stack and sets the in-container state; closing a scalar value
        sets the after-value state.
        """
        if ch == "{":
            if len(self._stack) >= self._max_depth:
                raise JsonSyntaxError("maximum nesting depth exceeded")
            self._stack.append(True)
            events.append(START_OBJECT)
            self._state = _S_KEY_OR_CLOSE
            return pos + 1
        if ch == "[":
            if len(self._stack) >= self._max_depth:
                raise JsonSyntaxError("maximum nesting depth exceeded")
            self._stack.append(False)
            events.append(START_ARRAY)
            self._state = _S_VALUE_OR_CLOSE
            return pos + 1
        if ch == '"':
            text, new_pos = self._scan_string(buf, pos, n, at_eof)
            if new_pos == _NEED_MORE:
                return _NEED_MORE
            events.append(atomic_event(text))
            self._state = self._after_value()
            return new_pos
        if ch == "-" or "0" <= ch <= "9":
            match = _NUMBER_RE.match(buf, pos)
            if match is None or match.end() == pos:
                if not at_eof and buf[pos:n] == "-":
                    return _NEED_MORE  # a lone '-' may get digits next chunk
                raise JsonSyntaxError("invalid number", self._offset(pos))
            end = match.end()
            if not at_eof and (
                end == n or _PARTIAL_NUMBER_TAIL_RE.fullmatch(buf, end, n)
            ):
                # The number (or its fraction/exponent) may continue in
                # the next chunk, e.g. "1.5e" + "3".
                return _NEED_MORE
            number = _convert_number(match.group(), self._offset(pos))
            events.append(atomic_event(number))
            self._state = self._after_value()
            return end
        for literal in _LITERALS:
            if buf.startswith(literal, pos):
                events.append(atomic_event(_LITERAL_VALUES[literal]))
                self._state = self._after_value()
                return pos + len(literal)
            if literal.startswith(buf[pos:n]):
                if at_eof:
                    raise JsonIncompleteError(
                        "truncated literal", self._offset(pos)
                    )
                return _NEED_MORE  # literal may continue in the next chunk
        raise JsonSyntaxError(f"unexpected character {ch!r}", self._offset(pos))

    def _scan_string(
        self, buf: str, pos: int, n: int, at_eof: bool
    ) -> tuple[str, int]:
        """Scan a string literal at *pos*.

        Returns (decoded_text, end_position), or ("", _NEED_MORE) when the
        string is cut off at the buffer end.
        """
        match = _STRING_RE.match(buf, pos)
        if match is not None:
            return _decode_string(match.group()[1:-1], pos + 1), match.end()
        if self._has_closing_quote(buf, pos, n):
            raise JsonSyntaxError("invalid string literal", self._offset(pos))
        if at_eof:
            raise JsonIncompleteError("unterminated string", self._offset(pos))
        return "", _NEED_MORE

    @staticmethod
    def _has_closing_quote(buf: str, pos: int, n: int) -> bool:
        """True if an unescaped closing quote exists after *pos*.

        Used to distinguish an *invalid* string (report now) from an
        *incomplete* one (wait for more input).
        """
        i = pos + 1
        while i < n:
            ch = buf[i]
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                return True
            i += 1
        return False


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def iter_events(text: str, allow_multiple_values: bool = True) -> Iterator[Event]:
    """Yield the full event stream for *text*."""
    parser = StreamingJsonParser(allow_multiple_values=allow_multiple_values)
    yield from parser.feed(text)
    yield from parser.finish()


def parse(text: str):
    """Parse *text* as a single JSON value and return the item."""
    from repro.jsonlib.items import build_items

    items = list(build_items(iter_events(text, allow_multiple_values=False)))
    if not items:
        raise JsonIncompleteError("empty input")
    return items[0]


def parse_many(text: str) -> list:
    """Parse *text* as a sequence of concatenated JSON values."""
    from repro.jsonlib.items import build_items

    return list(build_items(iter_events(text)))


def parse_many_resilient(
    text: str, on_malformed: str = "fail", recorder=None
) -> list:
    """:func:`parse_many` with a malformed-input policy.

    With ``on_malformed="skip_record"`` malformed top-level values are
    skipped (resyncing at the next newline) instead of raising; skips
    report to ``recorder(offset, message)``.  Delegates to the raw-text
    scanner with an empty path, whose contract is equivalence with
    :func:`parse_many` on well-formed input.
    """
    from repro.jsonlib.path import Path
    from repro.jsonlib.textscan import scan_text

    return list(
        scan_text(text, Path(), on_malformed=on_malformed, recorder=recorder)
    )
