"""The JSONiq item model.

Following the JSONiq extension to the XQuery data model, an *item* is
either a JSON object, a JSON array, or an atomic value.  We represent
items directly with Python's native types:

========  ==================
JSONiq    Python
========  ==================
object    ``dict``
array     ``list``
string    ``str``
number    ``int`` / ``float``
boolean   ``bool``
null      ``None``
dateTime  :class:`datetime.datetime`
========  ==================

A *sequence* — the universal value of the algebra — is represented as a
Python ``list`` of items.  (Arrays are also lists; the algebra layer keeps
the two apart by context, exactly as VXQuery keeps XDM sequences distinct
from JSON arrays by tagging.  Tagging every array would double allocation
cost for no behavioural difference in the reproduced queries.)  Where a
sequence is known to hold at most one item, a *column* holds one entry
per row instead: the item, or :data:`ABSENT` for the empty sequence.

This module also provides :func:`sizeof_item`, the byte-size estimator
used for memory accounting (Table 3 and Figure 18b of the paper), and
its frame-at-a-time form :func:`sizeof_rows`.
"""

from __future__ import annotations

import datetime
import math
from itertools import repeat
from operator import add, itemgetter
from typing import Any, Iterable

from repro.errors import ItemDepthError, ItemTypeError

Item = Any

_ATOMIC_TYPES = (str, int, float, bool, type(None), datetime.datetime)


def is_object(item: Item) -> bool:
    """Return True if *item* is a JSON object."""
    return isinstance(item, dict)


def is_array(item: Item) -> bool:
    """Return True if *item* is a JSON array."""
    return isinstance(item, list)


class _Absent:
    """The type of :data:`ABSENT`; false, so a column of booleans and
    absences is its own selection mask."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "ABSENT"


#: The empty sequence as an entry of a column.  It is not an item and
#: never leaves the frame it was computed in.
ABSENT = _Absent()


def is_atomic(item: Item) -> bool:
    """Return True if *item* is an atomic (non-structured) item."""
    return isinstance(item, _ATOMIC_TYPES) and not isinstance(item, (dict, list))


def atomize(item: Item) -> Item:
    """*item* itself when it is atomic (``data()`` on one item); objects
    and arrays do not atomize."""
    if not is_atomic(item):
        raise ItemTypeError(f"cannot atomize a {item_type_name(item)} item")
    return item


#: The exact types of a column's entries that atomize to themselves: the
#: atomic types and the absent entry.  Exact, so no subclass qualifies.
_ATOMIZED_TYPES = frozenset((*_ATOMIC_TYPES, _Absent))


def atomize_column(column: list) -> list:
    """:func:`atomize` over a column; an absent entry stays absent.

    A column whose every entry is of an exact atomic type (or absent) is
    its own atomization and is copied whole; any other column is
    atomized entry by entry, which raises on the first object or array.
    """
    if set(map(type, column)) <= _ATOMIZED_TYPES:
        return list(column)
    return [item if item is ABSENT else atomize(item) for item in column]


def item_type_name(item: Item) -> str:
    """Return the JSONiq type name of *item* (used in error messages)."""
    if isinstance(item, dict):
        return "object"
    if isinstance(item, list):
        return "array"
    if isinstance(item, bool):
        return "boolean"
    if isinstance(item, str):
        return "string"
    if isinstance(item, (int, float)):
        return "number"
    if item is None:
        return "null"
    if isinstance(item, datetime.datetime):
        return "dateTime"
    raise ItemTypeError(f"value of type {type(item).__name__} is not a JSON item")


# ---------------------------------------------------------------------------
# Size estimation
# ---------------------------------------------------------------------------

# Per-item overheads, roughly calibrated to CPython object sizes.  The
# absolute numbers only need to be *consistent*: the paper's memory
# comparisons (Table 3, Figure 18b) are about ratios and trends.
_OBJECT_BASE = 64
_PER_PAIR = 16
_ARRAY_BASE = 56
_PER_MEMBER = 8
_STRING_BASE = 49
_NUMBER_BYTES = 28
_BOOL_NULL_BYTES = 8
_DATETIME_BYTES = 48


def sizeof_item(item: Item) -> int:
    """Estimate the in-memory footprint of *item* in bytes.

    The estimate is a deep, allocation-style size: containers charge a
    base cost plus a per-entry cost plus the size of their children.
    Implemented iteratively so that arbitrarily deep documents do not
    overflow the Python stack.
    """
    total = 0
    stack = [item]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            total += _OBJECT_BASE + _PER_PAIR * len(node)
            for key, value in node.items():
                total += _STRING_BASE + len(key)
                stack.append(value)
        elif isinstance(node, list):
            total += _ARRAY_BASE + _PER_MEMBER * len(node)
            stack.extend(node)
        elif isinstance(node, str):
            total += _STRING_BASE + len(node)
        elif isinstance(node, bool) or node is None:
            total += _BOOL_NULL_BYTES
        elif isinstance(node, (int, float)):
            total += _NUMBER_BYTES
        elif isinstance(node, datetime.datetime):
            total += _DATETIME_BYTES
        else:
            raise ItemTypeError(
                f"value of type {type(node).__name__} is not a JSON item"
            )
    return total


# What a value of exactly this type costs, whatever the value.  Keyed by
# exact type (``bool`` apart from ``int``), so a subclass is never
# guessed at: it goes to :func:`sizeof_item`.
_FIXED_BYTES = {
    int: _NUMBER_BYTES,
    float: _NUMBER_BYTES,
    bool: _BOOL_NULL_BYTES,
    type(None): _BOOL_NULL_BYTES,
    datetime.datetime: _DATETIME_BYTES,
}

# Below this many rows the set-up of the column form costs more than
# measuring each row.
_COLUMN_MIN_ROWS = 8


def columns_of(rows: list) -> tuple[tuple, list[list]] | None:
    """``(keys, columns)`` when *rows* are plain dicts of one key set.

    ``columns[j][i]`` is ``rows[i][keys[j]]``; the rows may order their
    keys differently.  None when the rows are too few to be worth it,
    are not all exactly ``dict``, or do not share their keys.
    """
    if len(rows) < _COLUMN_MIN_ROWS or set(map(type, rows)) != {dict}:
        return None
    keys = tuple(rows[0])
    # Equally many keys and none of the first row's missing: the same set.
    if set(map(len, rows)) != {len(keys)}:
        return None
    try:
        return keys, [list(map(itemgetter(key), rows)) for key in keys]
    except KeyError:
        return None


def add_columns(
    constant: int, columns: Iterable[Iterable[int]], rows: int
) -> list[int]:
    """Per row, *constant* plus the row's entry in each of *columns*."""
    sizes: Iterable[int] = repeat(constant, rows)
    for column in columns:
        sizes = map(add, sizes, column)
    return list(sizes)


def sizeof_rows(items: list[Item]) -> list[int]:
    """``[sizeof_item(item) for item in items]``, a frame at a time.

    A frame of flat objects of one key set is sized a column at a time:
    a constant per row (the object, its keys, its fixed-size values)
    plus the lengths of its strings, all in C-level loops.  A frame that
    is not such objects is its own single column.  Only a column of one
    exact atomic type has a closed form; whatever has none (a nested or
    mixed column, mixed shapes, a few rows, a dict subclass) is measured
    by :func:`sizeof_item`, value by value.
    """
    if len(items) < _COLUMN_MIN_ROWS:
        return list(map(sizeof_item, items))
    constant = 0
    columns = [items]
    shaped = columns_of(items)
    if shaped is not None:
        keys, columns = shaped
        constant = _OBJECT_BASE + sum(
            _PER_PAIR + _STRING_BASE + len(key) for key in keys
        )
    varying = []
    for column in columns:
        kinds = set(map(type, column))
        if kinds == {str}:
            constant += _STRING_BASE
            varying.append(map(len, column))
        elif len(kinds) == 1 and kinds <= _FIXED_BYTES.keys():
            constant += _FIXED_BYTES[kinds.pop()]
        else:
            varying.append(map(sizeof_item, column))
    return add_columns(constant, varying, len(items))


def sizeof_sequence(items: Iterable[Item]) -> int:
    """Estimate the footprint of a sequence of items."""
    return _ARRAY_BASE + sum(_PER_MEMBER + sizeof_item(item) for item in items)


# ---------------------------------------------------------------------------
# Canonical keys (grouping, distinct-values, join bucketing)
# ---------------------------------------------------------------------------


def _canonical_number(value: int | float) -> int | float:
    """One canonical representative per numeric *value*.

    XQuery numeric equality says ``1 eq 1.0``, so equal numbers must map
    to the same canonical object — including an identical ``repr``,
    because the hash-join exchange buckets on the CRC32 of the key's
    canonical repr.  Ints that are exactly representable as floats
    canonicalize to the float (so ``1`` and ``1.0`` collide); ints
    beyond float precision stay ints, which is safe because no float
    equals them.  ``-0.0`` collapses to ``0.0``.
    """
    if isinstance(value, int):
        try:
            as_float = float(value)
        except OverflowError:
            return value
        return as_float if as_float == value else value
    if value == 0.0:
        return 0.0  # collapse -0.0, whose repr differs
    return value


def canonical_atomic(item: Item) -> tuple:
    """A hashable canonical key for one atomic item.

    Follows XQuery atomic-value equality: numbers compare across
    int/float (``1`` equals ``1.0``), booleans stay distinct from
    numbers (``true`` is not ``1``), strings stay distinct from numbers,
    and ``NaN`` equals ``NaN`` (so distinct-values keeps one).
    """
    if isinstance(item, bool):
        return ("bool", item)
    if isinstance(item, (int, float)):
        if isinstance(item, float) and math.isnan(item):
            return ("nan", "NaN")
        return ("num", _canonical_number(item))
    return (type(item).__name__, item)


#: How deeply a grouping or join key may nest.  Canonicalizing recurses
#: once per level, and the keys it builds are hashed, compared, pickled
#: and printed level by level too, so the bound sits well under the
#: interpreter's recursion limit: a deeper key is an
#: :class:`~repro.errors.ItemDepthError` on every backend.
MAX_KEY_DEPTH = 400


def canonical_item(item: Item, depth: int = 0) -> tuple:
    """A hashable canonical form of one item, recursing into containers.

    Containers canonicalize structurally so the numeric unification of
    :func:`canonical_atomic` reaches nested values — ``{"a": [1]}`` and
    ``{"a": [1.0]}`` share a key, matching :func:`deep_equals`.  Object
    keys are sorted, making the form (and its ``repr``, which the
    hash-join exchange buckets on) independent of insertion order.
    *depth* counts the containers around *item*; plain loops keep the
    recursion at one frame per level.
    """
    if not isinstance(item, (dict, list)):
        return canonical_atomic(item)
    if depth == MAX_KEY_DEPTH:
        raise ItemDepthError(f"a key nested deeper than {MAX_KEY_DEPTH} levels")
    members = []
    if isinstance(item, dict):
        for key, value in item.items():
            members.append((key, canonical_item(value, depth + 1)))
        return ("obj", tuple(sorted(members)))
    for value in item:
        members.append(canonical_item(value, depth + 1))
    return ("arr", tuple(members))


def canonical_key(sequence: list) -> tuple:
    """A hashable canonical form of a sequence (a grouping/join key)."""
    return tuple(canonical_item(item) for item in sequence)


# ---------------------------------------------------------------------------
# Structural equality
# ---------------------------------------------------------------------------


def deep_equals(left: Item, right: Item) -> bool:
    """Structural equality of two items.

    Unlike plain ``==``, this keeps ``True`` distinct from ``1`` and
    ``1`` equal to ``1.0`` only when both are numbers — matching JSONiq
    deep-equal semantics.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, dict):
        if not isinstance(right, dict) or len(left) != len(right):
            return False
        for key, value in left.items():
            if key not in right or not deep_equals(value, right[key]):
                return False
        return True
    if isinstance(left, list):
        if not isinstance(right, list) or len(left) != len(right):
            return False
        return all(deep_equals(a, b) for a, b in zip(left, right))
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if type(left) is not type(right):
        return False
    return left == right
