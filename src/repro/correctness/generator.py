"""Randomized GHCN-shaped documents and small JSONiq queries.

The differential harness needs inputs beyond the five paper queries and
the well-formed benchmark dataset — the bugs worth finding live on the
edges: missing keys, null values, duplicate keys inside one object,
int/float mixes, empty results arrays, wrapped vs unwrapped file
shapes, and multi-partition layouts.

Each :class:`GeneratedCase` pairs a query text with the partitioned
document texts it runs over **and** a plain-Python oracle closure that
computes the expected result sequence directly from parsed items —
mirroring the engine's specified semantics (general comparisons with
``()`` are false, ``null eq null`` is true, missing grouping keys form
their own group) without touching the algebra or the rewrite rules.

Documents are serialized by hand from ordered key/value pair lists so
the generator can emit *duplicate keys* — something no dict-based
serializer can produce — while the oracle works over the parsed
(last-occurrence-wins) form.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.correctness.oracle import (
    _parse_date,
    iter_measurements,
    reference_documents,
)
from repro.jsonlib.items import Item

COLLECTION = "/gen"

_STATIONS = ["GHCND:USW1", "GHCND:USW2", "GHCND:CA3", "S4"]
_DATA_TYPES = ["TMIN", "TMAX", "WIND", "PRCP"]
_DATES = [
    "20031225T00:00",
    "20041225T00:00",
    "20020301T06:30",
    "2003-12-25T00:00:00",
    "2001-07-14T12:00:00",
]


@dataclass(frozen=True)
class GeneratedCase:
    """One differential test case: a query over partitioned documents,
    with an independent oracle for the expected result sequence."""

    name: str
    query_text: str
    #: list of partitions, each a list of JSON file texts
    #: (one top-level document per line within a text)
    partitions: tuple
    #: oracle(documents) -> expected item sequence (compared
    #: order-insensitively by the harness)
    oracle: Callable[[list], list]

    def documents(self) -> list[Item]:
        """Parse every partition text into its top-level items."""
        docs: list[Item] = []
        for partition in self.partitions:
            for text in partition:
                docs.extend(reference_documents(text))
        return docs

    def expected(self) -> list:
        return self.oracle(self.documents())

    def with_partitions(self, partitions) -> "GeneratedCase":
        return replace(self, partitions=tuple(tuple(p) for p in partitions))


# ---------------------------------------------------------------------------
# Document generation
# ---------------------------------------------------------------------------


def _record_pairs(rng: random.Random) -> list[tuple[str, object]]:
    """Ordered key/value pairs of one measurement; keys may repeat."""
    pairs: list[tuple[str, object]] = []
    # date: a parseable timestamp or missing (null would make the paper
    # queries' dateTime() raise, which is an *error* path, not a
    # semantics difference).
    if rng.random() < 0.85:
        pairs.append(("date", rng.choice(_DATES)))
    data_type = None
    if rng.random() < 0.9:
        data_type = rng.choice(_DATA_TYPES) if rng.random() < 0.9 else None
        pairs.append(("dataType", data_type))
    if rng.random() < 0.85:
        station = rng.choice(_STATIONS) if rng.random() < 0.85 else None
        pairs.append(("station", station))
    # value: TMIN/TMAX records keep numeric values (the paper's Q2
    # subtracts them; null there is an arithmetic error, again an error
    # path) — other records also exercise null and missing.
    if data_type in ("TMIN", "TMAX"):
        value = rng.choice([rng.randint(-400, 400), rng.uniform(-40.0, 40.0)])
        pairs.append(("value", value))
    elif rng.random() < 0.8:
        value = rng.choice(
            [rng.randint(-400, 400), rng.uniform(-40.0, 40.0), None]
        )
        pairs.append(("value", value))
    if rng.random() < 0.15:
        # Variable length on purpose: a join keyed on
        # ``("attributes")()`` sees empty sequences (no match),
        # singletons (a scalar key), and multi-item sequences (a
        # pinned ItemTypeError — value comparison over a multi-item
        # sequence), exercising all three join-key shapes.
        members = [",", "", rng.choice("abc")]
        pairs.append(("attributes", members[: rng.randint(0, 3)]))
    # Inject duplicate keys: repeat an existing key with a fresh value;
    # the parsed record keeps the *last* occurrence.
    if pairs and rng.random() < 0.25:
        key, _ = rng.choice(pairs)
        duplicate: object
        if key == "date":
            duplicate = rng.choice(_DATES)
        elif key == "dataType":
            duplicate = rng.choice(_DATA_TYPES)
        elif key == "station":
            duplicate = rng.choice(_STATIONS)
        elif key == "value":
            duplicate = rng.randint(-400, 400)
        else:
            duplicate = ["x"]
        position = rng.randrange(len(pairs) + 1)
        pairs.insert(position, (key, duplicate))
    return pairs


def _serialize_pairs(pairs: list[tuple[str, object]]) -> str:
    """JSON object text preserving pair order — including duplicates."""
    inner = ", ".join(
        f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pairs
    )
    return "{" + inner + "}"


def _document_text(rng: random.Random, wrapped: bool) -> str:
    """One top-level document holding 0-5 measurement records."""
    records = [
        _serialize_pairs(_record_pairs(rng))
        for _ in range(rng.randint(0, 5))
    ]
    results = "[" + ", ".join(records) + "]"
    count = json.dumps({"count": len(records)})
    body = f'{{"metadata": {count}, "results": {results}}}'
    if wrapped:
        return f'{{"root": [{body}]}}'
    return body


def generate_partitions(rng: random.Random) -> tuple:
    """1-3 partitions, each one file text of newline-separated docs."""
    wrapped = rng.random() < 0.5
    partitions = []
    for _ in range(rng.randint(1, 3)):
        lines = [
            _document_text(rng, wrapped)
            for _ in range(rng.randint(1, 4))
        ]
        partitions.append((("\n".join(lines)),))
    return tuple(partitions), wrapped


def _scan_path(wrapped: bool) -> str:
    return '("root")()("results")()' if wrapped else '("results")()'


# ---------------------------------------------------------------------------
# Query templates (each with its oracle closure)
# ---------------------------------------------------------------------------


def _measurements(documents: list[Item]):
    return list(iter_measurements(documents))


def _greater(value, threshold) -> bool:
    """``value gt threshold`` for a record's value: () is false, and so
    are null and anything not a number (incomparable)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value > threshold


def _template_path(rng, wrapped):
    key = rng.choice(["station", "date", "value"])
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'return $m("{key}")'
    )

    def oracle(documents):
        return [m[key] for m in _measurements(documents) if key in m]

    return f"path-{key}", query, oracle


def _template_keys(rng, wrapped):
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        "return $m()"
    )

    def oracle(documents):
        out = []
        for m in _measurements(documents):
            out.extend(m.keys())
        return out

    return "keys", query, oracle


def _template_predicate_eq(rng, wrapped):
    wanted = rng.choice(_DATA_TYPES)
    returned = rng.choice(["station", "date"])
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'where $m("dataType") eq "{wanted}" '
        f'return $m("{returned}")'
    )

    def oracle(documents):
        return [
            m[returned]
            for m in _measurements(documents)
            if m.get("dataType", _ABSENT) == wanted and returned in m
        ]

    return f"select-{wanted}", query, oracle


def _template_predicate_gt(rng, wrapped):
    threshold = rng.randint(-100, 100)
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'where $m("value") gt {threshold} '
        f'return $m("station")'
    )

    def oracle(documents):
        return [
            m["station"]
            for m in _measurements(documents)
            if _greater(m.get("value", _ABSENT), threshold) and "station" in m
        ]

    return f"select-gt{threshold}", query, oracle


def _template_let_month(rng, wrapped):
    month = _parse_date(rng.choice(_DATES)).month
    wanted = rng.choice(_DATA_TYPES)
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        'let $d := dateTime(data($m("date"))) '
        f'where month-from-dateTime($d) eq {month} '
        f'and $m("dataType") eq "{wanted}" '
        'return $m("station")'
    )

    def oracle(documents):
        # without a date $d is (), and () eq month is false
        return [
            m["station"]
            for m in _measurements(documents)
            if "date" in m
            and _parse_date(m["date"]).month == month
            and m.get("dataType", _ABSENT) == wanted
            and "station" in m
        ]

    return f"let-month{month}-{wanted}", query, oracle


def _template_group_count(rng, wrapped):
    wanted = rng.choice(["TMIN", "TMAX", "WIND"])
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'where $m("dataType") eq "{wanted}" '
        'group by $d := $m("date") '
        "return count($m)"
    )

    def oracle(documents):
        from repro.jsonlib.items import canonical_item

        groups: dict = {}
        for m in _measurements(documents):
            if m.get("dataType", _ABSENT) != wanted:
                continue
            key = (
                canonical_item(m["date"]) if "date" in m else _ABSENT
            )
            groups[key] = groups.get(key, 0) + 1
        return list(groups.values())

    return f"group-count-{wanted}", query, oracle


def _template_group_agg(rng, wrapped):
    """``count`` / ``sum`` / ``avg`` / ``min`` / ``max`` pushed into a
    GROUP-BY on ``station``: a missing station is a group of its own and
    a null one another; a null ``value`` (a record whose duplicate
    ``dataType`` turned it into a TMIN or TMAX) is counted, and is a
    type error for the other four."""
    wanted = rng.choice(["TMIN", "TMAX"])
    function = rng.choice(["count", "sum", "avg", "min", "max"])
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'where $m("dataType") eq "{wanted}" '
        'group by $s := $m("station") '
        f'return {function}($m("value"))'
    )

    def oracle(documents):
        from repro.errors import ItemTypeError

        groups: dict = {}
        for m in _measurements(documents):
            if m.get("dataType", _ABSENT) != wanted:
                continue
            values = groups.setdefault(m.get("station", _ABSENT), [])
            if "value" in m:
                values.append(m["value"])
        if function == "count":
            return [len(values) for values in groups.values()]
        for values in groups.values():
            for value in values:
                if value is None:
                    raise ItemTypeError(f"{function}() expects a number, got null")
        out = []
        for values in groups.values():
            if function == "sum":
                out.append(sum(values))
            elif values:
                pick = {"avg": lambda v: sum(v) / len(v), "min": min, "max": max}
                out.append(pick[function](values))
        return out

    return f"group-agg-{function}-{wanted}", query, oracle


def _template_join(rng, wrapped):
    """Self-join on ``station``; the left side keeps only positive
    values, so it estimates smaller and a costed plan builds on it."""
    left_type, right_type = rng.sample(_DATA_TYPES, 2)
    query = (
        f'for $a in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'for $b in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'where $a("station") eq $b("station") '
        f'and $a("dataType") eq "{left_type}" '
        f'and $a("value") gt 0 '
        f'and $b("dataType") eq "{right_type}" '
        'return $b("value")'
    )

    def oracle(documents):
        from repro.jsonlib.items import canonical_item

        measurements = _measurements(documents)
        left_stations = [
            canonical_item(m["station"])
            for m in measurements
            if m.get("dataType", _ABSENT) == left_type
            and "station" in m
            and _greater(m.get("value", _ABSENT), 0)
        ]
        out = []
        for b in measurements:
            if b.get("dataType", _ABSENT) != right_type or "station" not in b:
                continue
            key = canonical_item(b["station"])
            for other in left_stations:
                if other == key:
                    if "value" in b:
                        out.append(b["value"])
        return out

    return f"join-{left_type}-{right_type}", query, oracle


def _template_join_pair(rng, wrapped):
    """Self-join on ``station`` and ``value``: strings, ints and floats
    that unify, null (equal to null) and missing (never joins) as keys."""
    left_type, right_type = rng.sample(_DATA_TYPES, 2)
    query = (
        f'for $a in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'for $b in collection("{COLLECTION}"){_scan_path(wrapped)} '
        'where $a("station") eq $b("station") and $a("value") eq $b("value") '
        f'and $a("dataType") ne "{left_type}" and $b("dataType") ne "{right_type}" '
        'return $b("value")'
    )

    def oracle(documents):
        from repro.jsonlib.items import canonical_key

        def keyed(unwanted):  # (key, value) of the rows one side keeps
            return [
                (canonical_key([m["station"], m["value"]]), m["value"])
                for m in _measurements(documents)
                if m.get("dataType", unwanted) != unwanted
                and "station" in m
                and "value" in m
            ]

        left = keyed(left_type)
        return [v for key, v in keyed(right_type) for a, _ in left if a == key]

    return f"join-pair-{left_type}-{right_type}", query, oracle


def _template_join_seq(rng, wrapped):
    """Self-join keyed on a *sequence* — ``$a("attributes")()``.

    The engine's pinned semantics for value comparisons over multi-item
    sequences is an error (:class:`~repro.errors.ItemTypeError`), and
    the hash/grace/exchange join paths must agree with the naive
    nested Select exactly: empty key sequences never match, singleton
    sequences compare as scalars, multi-item sequences raise.  The
    oracle raises the same error, which the harness matches against
    the engine's (possibly wrapped) failure.
    """
    query = (
        f'for $a in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'for $b in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'where $a("attributes")() eq $b("attributes")() '
        'return $b("station")'
    )

    def oracle(documents):
        from repro.errors import ItemTypeError
        from repro.jsonlib.items import canonical_item

        measurements = _measurements(documents)
        keys = []
        for m in measurements:
            attributes = m.get("attributes", _ABSENT)
            members = attributes if isinstance(attributes, list) else []
            if len(members) > 1:
                raise ItemTypeError(
                    "value comparison 'eq' over a multi-item sequence"
                )
            keys.append(
                canonical_item(members[0]) if members else _ABSENT
            )
        out = []
        for b, b_key in zip(measurements, keys):
            if b_key is _ABSENT:
                continue
            for a_key in keys:
                if a_key is not _ABSENT and a_key == b_key:
                    if "station" in b:
                        out.append(b["station"])
        return out

    return "join-seq", query, oracle


#: The nested templates draw nothing from the case's random stream, as
#: ``keys``, whose slot they share, draws nothing: every other case
#: keeps its data and query.
_NESTED_THRESHOLDS = (-100, 0, 100)


def _template_nested_literal(rng, wrapped):
    """A correlated nested FLWOR whose ``for`` ranges over a literal
    sequence: each measurement answers the array of thresholds its
    value exceeds, ``[]`` for a missing or null value or one below them
    all."""
    literal = ", ".join(map(str, _NESTED_THRESHOLDS))
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        f'return [for $t in ({literal}) where $m("value") gt $t return $t]'
    )

    def oracle(documents):
        return [
            [t for t in _NESTED_THRESHOLDS if _greater(m.get("value", _ABSENT), t)]
            for m in _measurements(documents)
        ]

    return "nested-literal", query, oracle


def _template_nested_member(rng, wrapped):
    """A correlated nested FLWOR whose ``for`` ranges over the outer
    measurement's ``attributes`` members (``[]`` without any) and whose
    return reads the outer measurement again."""
    query = (
        f'for $m in collection("{COLLECTION}"){_scan_path(wrapped)} '
        'return [for $a in $m("attributes")() where $a ne "," '
        'return [$a, $m("station")]]'
    )

    def oracle(documents):
        out = []
        for m in _measurements(documents):
            attributes = m.get("attributes", _ABSENT)
            members = attributes if isinstance(attributes, list) else []
            station = [m["station"]] if "station" in m else []
            out.append([[a, *station] for a in members if a != ","])
        return out

    return "nested-member", query, oracle


_ABSENT = ("absent",)

_TEMPLATES = [
    _template_path,
    # a slot its templates take in turn: keys keeps the first turn
    (_template_keys, _template_nested_literal, _template_nested_member),
    _template_predicate_eq,
    _template_predicate_gt,
    _template_let_month,
    (_template_group_count, _template_group_agg),
    (_template_join, _template_join_pair),
    _template_join_seq,
]


def generate_case(rng: random.Random, index: int) -> GeneratedCase:
    """One seeded (query, data) pair with its oracle."""
    partitions, wrapped = generate_partitions(rng)
    turn, slot = divmod(index, len(_TEMPLATES))
    template = _TEMPLATES[slot]
    if isinstance(template, tuple):  # a slot its templates take in turn
        template = template[turn % len(template)]
    label, query, oracle = template(rng, wrapped)
    shape = "wrapped" if wrapped else "flat"
    return GeneratedCase(
        name=f"gen{index:04d}-{label}-{shape}",
        query_text=query,
        partitions=partitions,
        oracle=oracle,
    )


def generate_cases(seed: int, count: int) -> list[GeneratedCase]:
    """*count* deterministic cases derived from *seed*."""
    rng = random.Random(seed)
    return [generate_case(rng, index) for index in range(count)]
