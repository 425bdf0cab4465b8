"""Independent plain-Python oracle for the paper's queries.

These compute Q0-Q2 directly over materialized items with none of the
query-engine machinery (no algebra, no rewrite rules, no backends),
defining ground truth for the differential harness and the integration
tests.

The oracle mirrors the engine's *edge* semantics on malformed or
irregular data, so the differential harness can feed both sides
randomly generated documents:

- a missing object key navigates to the empty sequence, and a general
  comparison with ``()`` is false (XQuery 3.1 §3.7.2) — so records
  lacking a filtered key silently don't match,
- ``null`` is an item: ``null eq null`` is true, so null join keys
  match each other while *missing* join keys match nothing,
- group-by keys use value-based equality across int/float, and records
  with a missing grouping key form their own group (the engine's
  canonical-key machinery; see :func:`repro.jsonlib.items.canonical_key`),
- ``count($r("station"))`` counts the station *values* present in the
  group (a null station counts, a missing one doesn't).
"""

from __future__ import annotations

import datetime
import json
import re

from repro.errors import JsonSyntaxError
from repro.jsonlib.items import Item, canonical_item

#: Group key for records whose grouping key is the empty sequence.
MISSING = ("missing-key",)

_COMPACT_RE = re.compile(r"^(\d{4})(\d{2})(\d{2})T(\d{2}):(\d{2})(?::(\d{2}))?$")


def _reject_constant(token: str):
    raise ValueError(f"invalid literal {token}")


#: The standard library's decoder, minus its NaN/Infinity extension.
_REFERENCE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_JSON_WS_RE = re.compile(r"[ \t\n\r]*")


def reference_documents(text: str) -> list[Item]:
    """Every top-level value of *text*, decoded by the standard library.

    The reference the engine's own decoder is checked against, so it
    shares no code with it: values are read one after another with
    ``raw_decode`` across JSON whitespace.  Anything the stdlib refuses
    (or cannot recurse into) raises :class:`~repro.errors.JsonSyntaxError`.
    """
    documents: list[Item] = []
    pos = _JSON_WS_RE.match(text).end()
    while pos < len(text):
        try:
            value, pos = _REFERENCE_DECODER.raw_decode(text, pos)
        except (ValueError, RecursionError) as error:
            raise JsonSyntaxError(f"reference decode: {error}", pos) from None
        documents.append(value)
        pos = _JSON_WS_RE.match(text, pos).end()
    return documents


def iter_measurements(documents: list[Item]):
    """All measurement objects of a parsed sensor dataset.

    Accepts both file shapes: wrapped (``{"root": [...]}`` per file) and
    unwrapped (``{metadata, results}`` documents).
    """
    for document in documents:
        if not isinstance(document, dict):
            continue
        if isinstance(document.get("root"), list):
            members = document["root"]
        else:
            members = [document]
        for member in members:
            if isinstance(member, dict) and isinstance(
                member.get("results"), list
            ):
                yield from member["results"]


def _parse_date(text: str) -> datetime.datetime:
    """Independent reimplementation of the engine's dateTime() parse:
    compact NOAA timestamps and ISO timestamps."""
    match = _COMPACT_RE.match(text)
    if match is not None:
        year, month, day, hour, minute = (int(g) for g in match.groups()[:5])
        return datetime.datetime(
            year, month, day, hour, minute, int(match.group(6) or 0)
        )
    return datetime.datetime.fromisoformat(text)


def _is_dec25_from_2003(date_value) -> bool:
    """Q0's filter; a missing (or non-string) date never matches,
    mirroring ``year-from-dateTime(dateTime(data(()))) ge 2003`` being
    a comparison against the empty sequence."""
    if not isinstance(date_value, str):
        return False
    moment = _parse_date(date_value)
    return moment.year >= 2003 and moment.month == 12 and moment.day == 25


def reference_q0(documents: list[Item]) -> list[Item]:
    """Q0: measurements taken on Dec 25 of 2003 or later."""
    return [
        m
        for m in iter_measurements(documents)
        if _is_dec25_from_2003(m.get("date", MISSING))
    ]


def reference_q0b(documents: list[Item]) -> list[str]:
    """Q0b: the dates of those measurements."""
    return [m["date"] for m in reference_q0(documents)]


def _group_key(value, present: bool):
    """Canonical grouping key: value-equal items share a group, records
    with a missing key share the MISSING group."""
    if not present:
        return MISSING
    return canonical_item(value)


def reference_q1_groups(documents: list[Item]) -> dict:
    """Q1/Q1b: per-date count of TMIN measurements' stations, keyed by
    canonical group key (MISSING for records without a date)."""
    counts: dict = {}
    for m in iter_measurements(documents):
        if m.get("dataType", MISSING) != "TMIN":
            continue
        key = _group_key(m.get("date"), "date" in m)
        counts.setdefault(key, 0)
        # count($r("station")) counts station *values*: null counts,
        # a missing key contributes nothing.
        if "station" in m:
            counts[key] += 1
    return counts


def reference_q1(documents: list[Item]) -> dict[str, int]:
    """Q1/Q1b for well-formed data: per-date count of TMIN measurements.

    Kept for the integration tests; assumes every TMIN record carries
    ``date`` and ``station`` keys (the generator's default output).
    """
    counts: dict[str, int] = {}
    for m in iter_measurements(documents):
        if m["dataType"] == "TMIN":
            counts[m["date"]] = counts.get(m["date"], 0) + 1
    return counts


def reference_q2(documents: list[Item]) -> float | None:
    """Q2: avg(TMAX - TMIN) over matching (station, date), div 10.

    Join keys follow the engine's equi-join semantics: a record missing
    ``station`` or ``date`` joins nothing (``() eq x`` is false), while
    null keys match null keys (``null eq null`` is true).  A joined pair
    where either side lacks a ``value`` key contributes nothing — the
    engine's subtraction over an empty operand yields the empty
    sequence, which ``avg`` ignores.
    """
    tmin: dict[tuple, list] = {}
    for m in iter_measurements(documents):
        if m.get("dataType", MISSING) != "TMIN":
            continue
        if "station" not in m or "date" not in m:
            continue
        key = (canonical_item(m["station"]), canonical_item(m["date"]))
        tmin.setdefault(key, []).append(m.get("value", MISSING))
    total = 0.0
    pairs = 0
    for m in iter_measurements(documents):
        if m.get("dataType", MISSING) != "TMAX":
            continue
        if "station" not in m or "date" not in m:
            continue
        key = (canonical_item(m["station"]), canonical_item(m["date"]))
        value = m.get("value", MISSING)
        for tmin_value in tmin.get(key, ()):
            if value is MISSING or tmin_value is MISSING:
                continue
            total += value - tmin_value
            pairs += 1
    if pairs == 0:
        return None
    return (total / pairs) / 10


def oracle_result(query_name: str, documents: list[Item]) -> list:
    """The engine-shaped result sequence the named paper query should
    produce over *documents* — what the differential harness compares
    against (order-insensitively for the grouped queries)."""
    if query_name == "Q0":
        return reference_q0(documents)
    if query_name == "Q0b":
        return reference_q0b(documents)
    if query_name in ("Q1", "Q1b"):
        return list(reference_q1_groups(documents).values())
    if query_name == "Q2":
        value = reference_q2(documents)
        return [] if value is None else [value]
    raise KeyError(f"unknown paper query {query_name!r}")
