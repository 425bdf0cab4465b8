"""Independent answers, and the gate that compares every op with them.

The paper's Q0-Q2 are answered by ``repro.correctness.oracle``; the
``service_mix`` templates (the same shapes with other literals) are
answered here, in plain Python over ``json.loads``.  Neither touches
the engine's parser, algebra or runtime.
"""

from __future__ import annotations

import json
import os

from repro.correctness.harness import canonical_result


def load_documents(base_dir: str) -> dict[str, list]:
    """Every file of every collection under *base_dir*, parsed with the
    standard library: ``{"/sensors": [file0, file1, ...], ...}``."""
    documents: dict[str, list] = {}
    for collection in sorted(os.listdir(base_dir)):
        parsed = documents["/" + collection] = []
        for folder, folders, files in os.walk(os.path.join(base_dir, collection)):
            folders.sort()
            for name in sorted(files):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    parsed.append(json.load(handle))
    return documents


def _measurements(files: list):
    for document in files:
        for member in document["root"]:
            yield from member["results"]


def selection(files: list, station: str, data_type: str) -> list:
    """Measurements of one station and data type."""
    return [
        m
        for m in _measurements(files)
        if m["station"] == station and m["dataType"] == data_type
    ]


def on_day(files: list, month: int, day: int) -> list:
    """Q0 with its month and day replaced: dates look like
    ``20031225T00:00``, and every generated year is 2003 or later."""
    wanted = f"{month:02d}{day:02d}"
    return [
        m
        for m in _measurements(files)
        if int(m["date"][:4]) >= 2003 and m["date"][4:8] == wanted
    ]


def stations_per_date(files: list, data_type: str) -> list:
    """Q1/Q1b with its data type replaced: one count per date."""
    counts: dict[str, int] = {}
    for m in _measurements(files):
        if m["dataType"] == data_type:
            counts[m["date"]] = counts.get(m["date"], 0) + 1
    return list(counts.values())


def average_difference(
    files: list, low_type: str, high_type: str, divisor: int
) -> list:
    """Q2 with its type pair and divisor replaced."""
    low: dict[tuple, list] = {}
    for m in _measurements(files):
        if m["dataType"] == low_type:
            low.setdefault((m["station"], m["date"]), []).append(m["value"])
    total, pairs = 0.0, 0
    for m in _measurements(files):
        if m["dataType"] == high_type:
            for value in low.get((m["station"], m["date"]), ()):
                total += m["value"] - value
                pairs += 1
    return [total / pairs / divisor] if pairs else []


class AnswerGate:
    """Checks every op's items against the query's independent answer.

    An op hands over its serialized output when its clock stops; each
    distinct output of a query is kept once.  :meth:`wrong_ops` runs the
    references after the measured phase, so their CPU and memory stay
    out of the measurement, and compares canonical multisets.
    """

    def __init__(self):
        self._outputs: dict[str, tuple] = {}

    def record(self, query, serialized: str, items: list) -> None:
        _, variants = self._outputs.setdefault(query.text, (query, {}))
        variant = variants.get(serialized)
        if variant is None:
            variants[serialized] = [items, 1]
        else:
            variant[1] += 1

    def wrong_ops(self, documents: dict[str, list]) -> int:
        wrong = 0
        for query, variants in self._outputs.values():
            expected = canonical_result(query.reference(documents))
            for items, count in variants.values():
                if canonical_result(items) != expected:
                    wrong += count
        return wrong
