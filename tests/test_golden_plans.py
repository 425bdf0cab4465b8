"""Golden plan tests: pin the exact plan each rule toggle produces.

Every (paper query, rewrite toggle) pair has a checked-in ``explain()``
report under ``tests/golden_plans/``, plus a ``cost`` pseudo-toggle
compiled against the deterministic demo statistics snapshot.  A failure
here means a rewrite rule, the translator, or the cost model changed
the plan shape — if intentional, regenerate with
``PYTHONPATH=src python tools/update_golden_plans.py`` and review the
diff.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tools.update_golden_plans import (
    GOLDEN_DIR,
    all_combos,
    golden_name,
    render,
)

COMBOS = all_combos()


def test_every_combo_has_a_golden_file():
    expected = {golden_name(q, t) for q, t in COMBOS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert actual == expected


@pytest.mark.parametrize(
    "query_name, toggle", COMBOS, ids=[f"{q}-{t}" for q, t in COMBOS]
)
def test_plan_matches_golden(query_name, toggle):
    golden = (GOLDEN_DIR / golden_name(query_name, toggle)).read_text()
    assert render(query_name, toggle) == golden, (
        f"plan for {query_name} under toggle {toggle!r} changed; if "
        "intentional, regenerate via tools/update_golden_plans.py"
    )


def test_toggles_change_the_plan():
    """Sanity: the toggles are not vacuous — for the grouped queries,
    disabling a family really does alter the rewritten plan."""
    q1_all = render("Q1", "all")
    assert render("Q1", "none") != q1_all
    assert render("Q1", "no-groupby") != q1_all
    assert render("Q0", "no-path") != render("Q0", "all")


def test_cost_changes_the_demo_plans():
    """Sanity: the cost phase is not vacuous — the tiny-dimension demo
    join builds on its dimension side under the demo statistics."""
    costed = render("QJbroadcast", "cost")
    assert "[build=left]" in costed
    assert costed != render("QJbroadcast", "all").replace(
        "toggle 'all'", "toggle 'cost'"
    )


def test_cost_leaves_symmetric_paper_queries_alone():
    """The paper queries are self-joins over one collection: stats are
    present for ``/sensors``, but no decision fires — only the header
    line may differ from the ``all`` golden.  So with the hot-key
    self-join QJskew (a hot key is hashed like every other key) and the
    chain QJorder (joins run in the order the query writes them, and
    each already builds on its smaller input)."""
    for query_name in ("Q0", "Q1", "Q2", "QJskew", "QJorder"):
        costed = render(query_name, "cost")
        baseline = render(query_name, "all")
        assert costed.replace("toggle 'cost'", "toggle 'all'") == baseline
