"""Regenerate the golden plan files under ``tests/golden_plans/``.

One file per (paper query, rewrite toggle): the compiler's ``explain()``
report — naive plan plus rewritten plan — for each of the five paper
queries under each entry of
:data:`repro.algebra.rules.TOGGLE_CONFIGS`.  The goldens pin the exact
plan shape each rule-family toggle produces, so an inadvertent rule
interaction change shows up as a readable plan diff in
``tests/test_golden_plans.py`` instead of a silent perf or semantics
drift.

The pseudo-toggle ``cost`` additionally pins the cost-based planning
phase: every query is compiled under the ``all`` config against the
deterministic :func:`demo_snapshot` statistics.  For the paper queries
(symmetric self-joins over one collection) the cost phase must leave
the plan untouched; the ``QJ*`` demo joins pin its one decision, the
build side: a tiny dimension side builds, a join chain keeps the
query's order, and a hot key changes nothing.

Usage::

    PYTHONPATH=src python tools/update_golden_plans.py

Review the resulting ``git diff`` before committing — a golden change
must correspond to an intentional rule or cost-model change.
"""

from __future__ import annotations

import json
import pathlib

from repro.algebra.rules import TOGGLE_CONFIGS
from repro.bench.queries import ALL_QUERIES
from repro.compiler.pipeline import compile_query
from repro.data.catalog import InMemorySource

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "tests/golden_plans"
)

#: pseudo-toggle name for the cost-phase goldens.
COST_TOGGLE = "cost"

#: joins crafted so the demo statistics show what the cost phase decides.
COST_DEMO_QUERIES = {
    # /dim is tiny next to /fact: both sides hash-exchange and the
    # dimension side builds.  (Named for the broadcast exchange that
    # once replicated it.)
    "QJbroadcast": (
        'for $d in collection("/dim")() '
        'for $f in collection("/fact")() '
        'where $d("k") eq $f("k") '
        'return {"label": $d("label"), "v": $f("v")}'
    ),
    # Self-join on a column where one value carries half the rows: the
    # hot key hashes to one bucket like every other key, so the plan is
    # the un-costed one.
    "QJskew": (
        'for $a in collection("/fact")() '
        'for $b in collection("/fact")() '
        'where $a("station") eq $b("station") '
        'return $b("v")'
    ),
    # Three-way chain written largest-first: it runs in the order
    # written, each join already building on its smaller (right) input.
    "QJorder": (
        'for $f in collection("/fact")() '
        'for $m in collection("/mid")() '
        'for $d in collection("/dim")() '
        'where $f("k") eq $m("k") and $m("g") eq $d("g") '
        'return {"v": $f("v"), "label": $d("label")}'
    ),
}

_SENSORS_RESULTS = [
    {
        "dataType": "TMIN" if i % 2 else "TMAX",
        "value": i % 40,
        "station": f"st{i % 10}",
        "date": f"2013-01-{1 + i % 28:02d}T00:00:00",
    }
    for i in range(80)
]


def demo_source() -> InMemorySource:
    """Deterministic in-memory source behind :func:`demo_snapshot`."""
    dim = [{"k": i, "g": i % 2, "label": f"d{i}"} for i in range(4)]
    mid = [{"k": i % 4, "g": i % 2} for i in range(40)]
    fact = [
        {
            "k": i % 4,
            "station": "HOT" if i % 2 else f"s{i % 20}",
            "v": i,
        }
        for i in range(400)
    ]
    sensors = [{"root": [{"results": _SENSORS_RESULTS}]}]
    return InMemorySource(
        {
            "/dim": [[json.dumps(dim)]],
            "/mid": [[json.dumps(mid)]],
            "/fact": [[json.dumps(fact)]],
            "/sensors": [[json.dumps(doc)] for doc in sensors],
        },
        stats_sample=10_000,
    )


def demo_snapshot():
    """The statistics snapshot every ``cost`` golden is compiled against.

    Sampling is deterministic (positional prefix, sorted keys), so the
    snapshot — and therefore the goldens — are stable across runs.
    """
    return demo_source().stats_snapshot()


def all_combos() -> list[tuple[str, str]]:
    """Every (query, toggle) pair that owns a golden file."""
    combos = [
        (query_name, toggle)
        for query_name in ALL_QUERIES
        for toggle in TOGGLE_CONFIGS
    ]
    combos += [(query_name, COST_TOGGLE) for query_name in ALL_QUERIES]
    combos += [
        (query_name, toggle)
        for query_name in COST_DEMO_QUERIES
        for toggle in ("all", COST_TOGGLE)
    ]
    return combos


def golden_name(query_name: str, toggle: str) -> str:
    return f"{query_name}__{toggle}.txt"


def render(query_name: str, toggle: str) -> str:
    if query_name in COST_DEMO_QUERIES:
        query_text = COST_DEMO_QUERIES[query_name]
    else:
        query_text = ALL_QUERIES[query_name](
            collection="/sensors", wrapped=True
        )
    if toggle == COST_TOGGLE:
        config = TOGGLE_CONFIGS["all"]
        stats = demo_snapshot()
    else:
        config = TOGGLE_CONFIGS[toggle]
        stats = None
    compiled = compile_query(query_text, config, stats=stats)
    header = (
        f"# golden plan: {query_name} under toggle '{toggle}'\n"
        f"# regenerate: PYTHONPATH=src python tools/update_golden_plans.py\n"
        f"# query: {query_text}\n"
    )
    return header + compiled.explain() + "\n"


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for query_name, toggle in all_combos():
        path = GOLDEN_DIR / golden_name(query_name, toggle)
        path.write_text(render(query_name, toggle))
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")


if __name__ == "__main__":
    main()
