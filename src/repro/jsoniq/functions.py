"""Builtin function library for the JSONiq-extension-to-XQuery subset.

Every function takes a list of evaluated argument *sequences* and returns
a sequence (the universal value of the algebra).  The registry maps
``(name, arity)`` pairs to callables; lookups happen at evaluation time
through :class:`repro.algebra.context.EvaluationContext`.

A builtin that works on one item (``dateTime``, the accessors, ``abs``,
``string``, ...) is written once, as a *kernel* ``kernel(item, name)``;
:func:`_item_function` derives from it both the sequence function the
registry holds and that function's ``.column``, which the frame gear of
:mod:`repro.hyracks.operators` maps over a whole column of items.

The library covers everything the paper's queries use — ``count``,
``avg``, ``dateTime``, the ``*-from-dateTime`` accessors, ``data`` — plus
the general-purpose JSONiq/XQuery functions a user of the processor would
expect (string, numeric, sequence, and JSON-specific functions).
"""

from __future__ import annotations

import datetime
import math
import re
from functools import reduce
from operator import attrgetter
from typing import Callable

from repro.errors import ItemTypeError
from repro.jsonlib.items import (
    ABSENT,
    Item,
    atomize,
    atomize_column,
    canonical_atomic,
    is_atomic,
    item_type_name,
)

Sequence = list
FunctionImpl = Callable[[list], Sequence]

# Compact NOAA-style timestamps ("20131225T00:00") and ISO timestamps.
_COMPACT_DATETIME_RE = re.compile(
    r"^(\d{4})(\d{2})(\d{2})T(\d{2}):(\d{2})(?::(\d{2}))?$"
)

# The JSON numeric grammar (RFC 8259 section 6) — what number() accepts
# from strings.  Python's own float()/int() are far more liberal ("inf",
# "nan", "1_000", "0x1f", padded "  12  "), none of which are numbers in
# the JSONiq data model.
_JSON_NUMBER_RE = re.compile(
    r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\Z"
)


def _singleton(sequence: Sequence, function: str) -> Item:
    if len(sequence) != 1:
        raise ItemTypeError(
            f"{function}() expects a singleton, got {len(sequence)} items"
        )
    return sequence[0]


def _optional_singleton(sequence: Sequence, function: str) -> Item | None:
    if not sequence:
        return None
    return _singleton(sequence, function)


def _as_number(item: Item, function: str) -> int | float:
    if isinstance(item, bool) or not isinstance(item, (int, float)):
        raise ItemTypeError(
            f"{function}() expects a number, got {item_type_name(item)}"
        )
    return item


def _as_string(item: Item, function: str) -> str:
    if not isinstance(item, str):
        raise ItemTypeError(
            f"{function}() expects a string, got {item_type_name(item)}"
        )
    return item


def _string_arg(sequence: Sequence, function: str) -> str:
    """A ``xs:string?`` argument: the XPath F&O string functions treat an
    empty-sequence argument as the zero-length string (F&O 3.1 "if the
    value of $arg is the empty sequence, [...] the zero-length string")."""
    item = _optional_singleton(sequence, function)
    if item is None:
        return ""
    return _as_string(item, function)


def _item_function(name: str, kernel: Callable, on_empty=ABSENT) -> FunctionImpl:
    """The registry entry of the one-argument builtin *name*.

    ``kernel(item, name)`` is the builtin's one definition: the result
    item for one argument item, or ``ABSENT`` for the empty sequence.
    The sequence function applies it to a singleton argument and answers
    *on_empty* for an empty one; ``.column`` does the same to every entry
    of a column.

    ``.column`` calls the kernel once per row only when it must.  Every
    kernel is a pure function of its item, so a column of exact ``str``
    is evaluated once per distinct string (in the order of first
    appearance, so the first row that raises still raises) and the rows
    look their answers up.  A kernel may carry a bulk form for one exact
    type, ``kernel.bulk = (type, function)``, mapped over a column of
    only that type; a ``datetime`` column takes no table, as hashing a
    datetime costs more than reading one of its fields.  A column of
    mixed or other types, absent entries included, is evaluated row by
    row.
    """

    def function(args: list) -> Sequence:
        value = kernel(_singleton(args[0], name), name) if args[0] else on_empty
        return [] if value is ABSENT else [value]

    bulk_type, bulk = getattr(kernel, "bulk", (None, None))

    def column(items: list) -> list:
        kinds = set(map(type, items))
        if kinds == {str}:
            table = {item: kernel(item, name) for item in dict.fromkeys(items)}
            return list(map(table.__getitem__, items))
        if bulk is not None and kinds == {bulk_type}:
            return list(map(bulk, items))
        return [on_empty if item is ABSENT else kernel(item, name) for item in items]

    function.column = column
    return function


def as_numbers(sequence: Sequence, function: str) -> list:
    """*sequence* checked item by item as numbers (booleans are not);
    shared with the runtime's incremental aggregates so both forms of
    ``sum``/``avg``/``min``/``max`` reject the same items the same way."""
    return [_as_number(item, function) for item in sequence]


# ---------------------------------------------------------------------------
# Aggregates (scalar forms; incremental forms live in the runtime)
# ---------------------------------------------------------------------------


def fn_count(args: list) -> Sequence:
    """``count($seq)`` — number of items in the sequence."""
    return [len(args[0])]


def fn_sum(args: list) -> Sequence:
    """``sum($seq)`` — numeric sum; 0 for the empty sequence."""
    return [sum(as_numbers(args[0], "sum"))]


def fn_avg(args: list) -> Sequence:
    """``avg($seq)`` — numeric mean; empty for the empty sequence."""
    values = as_numbers(args[0], "avg")
    if not values:
        return []
    return [sum(values) / len(values)]


def number_min(left, right):
    """The lesser of two numbers, the first on a tie; a NaN absorbs
    (F&O 3.1 ``fn:min``), so the answer does not depend on the order.
    Shared with the runtime's incremental ``min``."""
    if left != left:
        return left
    return right if right < left or right != right else left


def number_max(left, right):
    """The greater of two numbers, like :func:`number_min`."""
    if left != left:
        return left
    return right if right > left or right != right else left


def fn_min(args: list) -> Sequence:
    """``min($seq)``; empty for the empty sequence."""
    values = as_numbers(args[0], "min")
    return [reduce(number_min, values)] if values else []


def fn_max(args: list) -> Sequence:
    """``max($seq)``; empty for the empty sequence."""
    values = as_numbers(args[0], "max")
    return [reduce(number_max, values)] if values else []


# ---------------------------------------------------------------------------
# Date / time
# ---------------------------------------------------------------------------


#: Texts :func:`parse_datetime` has parsed, to their (immutable) values.
#: Data repeats its dates heavily and a scan parses one per row; only
#: successful parses are kept, and a full memo is simply started over.
_PARSED_DATETIMES: dict[str, datetime.datetime] = {}
_PARSED_DATETIMES_MAX = 4096


def parse_datetime(text: str) -> datetime.datetime:
    """Parse an ISO or compact NOAA-style (``20131225T00:00``) timestamp."""
    parsed = _PARSED_DATETIMES.get(text)
    if parsed is not None:
        return parsed
    match = _COMPACT_DATETIME_RE.match(text)
    if match is not None:
        year, month, day, hour, minute = (int(g) for g in match.groups()[:5])
        second = int(match.group(6) or 0)
        parsed = datetime.datetime(year, month, day, hour, minute, second)
    else:
        try:
            parsed = datetime.datetime.fromisoformat(text)
        except ValueError:
            raise ItemTypeError(f"cannot parse dateTime from {text!r}") from None
    if len(_PARSED_DATETIMES) >= _PARSED_DATETIMES_MAX:
        _PARSED_DATETIMES.clear()
    _PARSED_DATETIMES[text] = parsed
    return parsed


def _datetime(item: Item, name: str):
    """``dateTime($s)`` — parse a timestamp string; empty (or null) in,
    empty out."""
    if item is None:
        return ABSENT
    if isinstance(item, datetime.datetime):
        return item
    return parse_datetime(_as_string(item, name))


def _datetime_component(component: str) -> Callable:
    """The ``*-from-dateTime`` accessor reading attribute *component*."""

    def accessor(item: Item, name: str):
        if item is None:
            return ABSENT
        if not isinstance(item, datetime.datetime):
            raise ItemTypeError(
                f"{name}() expects a dateTime, got {item_type_name(item)}"
            )
        return getattr(item, component)

    accessor.bulk = (datetime.datetime, attrgetter(component))
    return accessor


# ---------------------------------------------------------------------------
# Atomization / types
# ---------------------------------------------------------------------------


def fn_data(args: list) -> Sequence:
    """``data($seq)`` — atomization; errors on objects and arrays."""
    return [atomize(item) for item in args[0]]


fn_data.column = atomize_column


def _string(item: Item, name: str) -> str:
    """``string($x)`` — string form of an atomic item (``""`` for the
    empty sequence)."""
    if item is None:
        return "null"
    if isinstance(item, str):
        return item
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, (int, float)):
        return repr(item) if isinstance(item, float) else str(item)
    if isinstance(item, datetime.datetime):
        return item.isoformat()
    raise ItemTypeError(f"{name}() over a {item_type_name(item)} item")


def _number(item: Item, name: str):
    """``number($x)`` — numeric form of an atomic item (NaN-free variant:
    unconvertible input is a type error rather than NaN).

    String input must match the JSON numeric grammar exactly; Python's
    liberal ``float()`` extensions ("inf", "nan", "1_000", padded
    whitespace, hex) are type errors, keeping ``number()`` closed over
    the values the parser itself can produce.

    XPath F&O 4.5.1 defines ``fn:number(())`` as NaN, and JSONiq gives
    ``number(null)`` NaN as well; in this NaN-free variant both spec-NaN
    results map to the empty sequence, so a predicate like
    ``number($m("value")) gt 0`` over a missing or null key is simply
    false instead of an error.
    """
    if item is None:
        return ABSENT
    if isinstance(item, bool):
        return 1 if item else 0
    if isinstance(item, (int, float)):
        return item
    if isinstance(item, str):
        if _JSON_NUMBER_RE.match(item) is None:
            raise ItemTypeError(f"{name}() cannot convert {item!r}")
        if any(mark in item for mark in ".eE"):
            return float(item)
        return int(item)
    raise ItemTypeError(f"{name}() over a {item_type_name(item)} item")


def fn_boolean(args: list) -> Sequence:
    """``boolean($seq)`` — effective boolean value."""
    from repro.algebra.expressions import effective_boolean_value

    return [effective_boolean_value(args[0])]


def fn_not(args: list) -> Sequence:
    """``not($seq)`` — negated effective boolean value."""
    from repro.algebra.expressions import effective_boolean_value

    return [not effective_boolean_value(args[0])]


# ---------------------------------------------------------------------------
# Numeric
# ---------------------------------------------------------------------------


def _numeric_unary(op: Callable) -> Callable:
    return lambda item, name: (
        ABSENT if item is None else op(_as_number(item, name))
    )


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


def fn_concat(args: list) -> Sequence:
    """``concat(...)`` — concatenation of the string forms of arguments."""
    parts = []
    for arg in args:
        item = _optional_singleton(arg, "concat")
        if item is None:
            continue
        parts.append(_string(item, "string"))
    return ["".join(parts)]


def fn_string_join(args: list) -> Sequence:
    """``string-join($seq, $sep)``."""
    separator = _as_string(_singleton(args[1], "string-join"), "string-join")
    parts = [_as_string(item, "string-join") for item in args[0]]
    return [separator.join(parts)]


def fn_substring(args: list) -> Sequence:
    """``substring($s, $start[, $length])`` — 1-based, XQuery style.

    Returns the characters at positions ``p`` with
    ``p >= round($start)`` and (three-argument form)
    ``p < round($start) + round($length)``, where ``round`` is XQuery's
    round-half-up (``floor(x + 0.5)``) — so fractional arguments round
    instead of truncating, and NaN/±INF arguments follow the spec's
    comparison semantics (any comparison with NaN is false).
    """
    text = _string_arg(args[0], "substring")
    start = _xquery_round(
        _as_number(_singleton(args[1], "substring"), "substring")
    )
    if isinstance(start, float) and (math.isnan(start) or start == math.inf):
        # p >= NaN and p >= +INF both hold for no position.
        return [""]
    lower = 1 if start == -math.inf else max(int(start), 1)
    if len(args) == 3:
        length = _xquery_round(
            _as_number(_singleton(args[2], "substring"), "substring")
        )
        upper = start + length  # exclusive bound on p
        if isinstance(upper, float) and math.isnan(upper):
            # -INF start with +INF length: p < NaN holds nowhere.
            return [""]
        if upper == -math.inf:
            return [""]
        if upper != math.inf:
            return [text[lower - 1 : int(upper) - 1]]
    return [text[lower - 1 :]]


def _xquery_round(value: int | float) -> int | float:
    """XQuery ``fn:round``: half-up toward +INF; NaN/±INF propagate."""
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return value
    return math.floor(value + 0.5)


def _string_length(item: Item, name: str) -> int:
    """``string-length($s)`` — 0 for the empty sequence and for null."""
    return 0 if item is None else len(_as_string(item, name))


def fn_contains(args: list) -> Sequence:
    """``contains($s, $needle)`` — empty arguments are zero-length
    strings (F&O 5.5.1), so ``contains((), "x")`` is false and
    ``contains($s, ())`` is true."""
    text = _string_arg(args[0], "contains")
    needle = _string_arg(args[1], "contains")
    return [needle in text]


def fn_starts_with(args: list) -> Sequence:
    """``starts-with($s, $prefix)`` — empty arguments are zero-length
    strings (F&O 5.5.2)."""
    text = _string_arg(args[0], "starts-with")
    prefix = _string_arg(args[1], "starts-with")
    return [text.startswith(prefix)]


def _change_case(method: Callable) -> Callable:
    """``upper-case($s)`` / ``lower-case($s)`` — ``""`` for the empty
    sequence (F&O 5.4.7, 5.4.8) and for null."""
    return lambda item, name: (
        "" if item is None else method(_as_string(item, name))
    )


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def fn_empty(args: list) -> Sequence:
    """``empty($seq)``."""
    return [not args[0]]


def fn_exists(args: list) -> Sequence:
    """``exists($seq)``."""
    return [bool(args[0])]


def fn_head(args: list) -> Sequence:
    """``head($seq)`` — first item or empty."""
    return args[0][:1]


def fn_tail(args: list) -> Sequence:
    """``tail($seq)`` — everything but the first item."""
    return args[0][1:]


def fn_reverse(args: list) -> Sequence:
    """``reverse($seq)``."""
    return list(reversed(args[0]))


def fn_distinct_values(args: list) -> Sequence:
    """``distinct-values($seq)`` — order-preserving dedup of atomics.

    Equality is value-based across the numeric types (XQuery: ``1`` and
    ``1.0`` are the same value), while booleans stay distinct from the
    numbers they'd convert to — both via the one canonical atomic key
    shared with group-by keys and join buckets
    (:func:`repro.jsonlib.items.canonical_atomic`).
    """
    seen: set = set()
    out = []
    for item in args[0]:
        if not is_atomic(item):
            raise ItemTypeError(
                f"distinct-values() over a {item_type_name(item)} item"
            )
        key = canonical_atomic(item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# JSONiq object/array functions
# ---------------------------------------------------------------------------


def fn_keys(args: list) -> Sequence:
    """``keys($seq)`` — keys of objects (members ignored for non-objects)."""
    out = []
    for item in args[0]:
        if isinstance(item, dict):
            out.extend(item.keys())
    return out


def fn_members(args: list) -> Sequence:
    """``members($seq)`` — members of arrays."""
    out = []
    for item in args[0]:
        if isinstance(item, list):
            out.extend(item)
    return out


def _size(item: Item, name: str):
    """``size($array)`` — number of members; null-safe JSONiq style."""
    if item is None:
        return ABSENT
    if not isinstance(item, list):
        raise ItemTypeError(
            f"{name}() expects an array, got {item_type_name(item)}"
        )
    return len(item)


def fn_flatten(args: list) -> Sequence:
    """``flatten($seq)`` — recursively flatten arrays into a sequence."""
    out: list = []
    stack = list(reversed(args[0]))
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


def fn_null(args: list) -> Sequence:
    """``null()`` — the JSON null item."""
    return [None]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

BUILTIN_FUNCTIONS: dict[tuple[str, int], FunctionImpl] = {
    ("count", 1): fn_count,
    ("sum", 1): fn_sum,
    ("avg", 1): fn_avg,
    ("min", 1): fn_min,
    ("max", 1): fn_max,
    ("data", 1): fn_data,
    ("boolean", 1): fn_boolean,
    ("not", 1): fn_not,
    ("string-join", 2): fn_string_join,
    ("substring", 2): fn_substring,
    ("substring", 3): fn_substring,
    ("contains", 2): fn_contains,
    ("starts-with", 2): fn_starts_with,
    ("empty", 1): fn_empty,
    ("exists", 1): fn_exists,
    ("head", 1): fn_head,
    ("tail", 1): fn_tail,
    ("reverse", 1): fn_reverse,
    ("distinct-values", 1): fn_distinct_values,
    ("keys", 1): fn_keys,
    ("members", 1): fn_members,
    ("flatten", 1): fn_flatten,
    ("null", 0): fn_null,
}

# The builtins that work on one item: name -> (kernel, result for the
# empty sequence when it is not the empty sequence).
for _name, (_kernel, *_on_empty) in {
    "dateTime": (_datetime,),
    "year-from-dateTime": (_datetime_component("year"),),
    "month-from-dateTime": (_datetime_component("month"),),
    "day-from-dateTime": (_datetime_component("day"),),
    "hours-from-dateTime": (_datetime_component("hour"),),
    "minutes-from-dateTime": (_datetime_component("minute"),),
    "seconds-from-dateTime": (_datetime_component("second"),),
    "string": (_string, ""),
    "number": (_number,),
    "abs": (_numeric_unary(abs),),
    "floor": (_numeric_unary(math.floor),),
    "ceiling": (_numeric_unary(math.ceil),),
    "round": (_numeric_unary(lambda x: math.floor(x + 0.5)),),
    "string-length": (_string_length, 0),
    "upper-case": (_change_case(str.upper), ""),
    "lower-case": (_change_case(str.lower), ""),
    "size": (_size,),
}.items():
    BUILTIN_FUNCTIONS[(_name, 1)] = _item_function(_name, _kernel, *_on_empty)

# concat is variadic in XQuery; register a practical range of arities.
for _arity in range(2, 9):
    BUILTIN_FUNCTIONS[("concat", _arity)] = fn_concat

#: Function names that the translator treats as aggregates when applied
#: to a nested FLWOR (Section 4.3's scalar-to-aggregate conversion).
AGGREGATE_FUNCTION_NAMES = frozenset(["count", "sum", "avg", "min", "max"])
