"""Serialization of JSON items back to text.

The hand-written counterpart of the scanners' decoding.
Round-tripping ``parse(dumps(item)) == item`` is one of the
property-based invariants of the test suite.
"""

from __future__ import annotations

import datetime
import math
from typing import IO

from repro.errors import ItemTypeError
from repro.jsonlib.items import Item

_ESCAPE_MAP = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_string(text: str) -> str:
    """Escape *text* for inclusion in a JSON string literal."""
    out: list[str] = []
    for ch in text:
        mapped = _ESCAPE_MAP.get(ch)
        if mapped is not None:
            out.append(mapped)
        elif ch < " ":
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _format_number(value: int | float) -> str:
    """Format a number as JSON text."""
    if isinstance(value, int):
        return str(value)
    if math.isnan(value) or math.isinf(value):
        raise ItemTypeError("NaN and infinity are not representable in JSON")
    return repr(value)


def _write_item(item: Item, out: list[str], indent: int | None, level: int) -> None:
    """Append the serialization of *item* to *out*."""
    if isinstance(item, dict):
        if not item:
            out.append("{}")
            return
        open_sep, close_sep, item_sep, pad = _separators(indent, level)
        out.append("{" + open_sep)
        first = True
        for key, value in item.items():
            if not first:
                out.append(item_sep)
            first = False
            out.append(pad)
            out.append(f'"{_escape_string(key)}": ')
            _write_item(value, out, indent, level + 1)
        out.append(close_sep + "}")
    elif isinstance(item, list):
        if not item:
            out.append("[]")
            return
        open_sep, close_sep, item_sep, pad = _separators(indent, level)
        out.append("[" + open_sep)
        first = True
        for value in item:
            if not first:
                out.append(item_sep)
            first = False
            out.append(pad)
            _write_item(value, out, indent, level + 1)
        out.append(close_sep + "]")
    elif isinstance(item, bool):
        out.append("true" if item else "false")
    elif item is None:
        out.append("null")
    elif isinstance(item, str):
        out.append(f'"{_escape_string(item)}"')
    elif isinstance(item, (int, float)):
        out.append(_format_number(item))
    elif isinstance(item, datetime.datetime):
        out.append(f'"{item.isoformat()}"')
    else:
        raise ItemTypeError(
            f"value of type {type(item).__name__} is not serializable as JSON"
        )


def _separators(indent: int | None, level: int) -> tuple[str, str, str, str]:
    """Return (after-open, before-close, between-items, item-pad) strings."""
    if indent is None:
        return "", "", ", ", ""
    pad = " " * (indent * (level + 1))
    close_pad = "\n" + " " * (indent * level)
    return "\n", close_pad, ",\n", pad


def dumps(item: Item, indent: int | None = None) -> str:
    """Serialize *item* to a JSON string.

    ``indent`` of None produces compact single-line output; an integer
    produces pretty-printed output with that many spaces per level.
    """
    out: list[str] = []
    _write_item(item, out, indent, 0)
    return "".join(out)


def dump(item: Item, handle: IO[str], indent: int | None = None) -> None:
    """Serialize *item* to an open text file handle."""
    handle.write(dumps(item, indent=indent))
