"""Cost-on/off equivalence across every execution backend.

The headline guarantee of the cost phase: for a given plan (cost on or
cost off), the sequential and process backends produce
byte-identical items; and the cost-on plan's results are canonically
equal (same multiset) to the cost-off plan's, including under a spill
budget and with an injected worker crash.
"""

import json

import pytest

from repro import JsonProcessor
from repro.data.catalog import InMemorySource
from repro.resilience.faults import FaultPlan

BACKENDS = ("sequential", "process")

# A workload whose costed plan differs from the un-costed one: the
# stations-facts join builds on the smaller stations side.  Its hot key
# hashes to one bucket and its tiny dimension table is hash-exchanged
# like any other input.
DIMS = [{"g": i, "label": f"g{i}"} for i in range(4)]
FACTS = [{"station": "HOT", "g": i % 4, "v": i} for i in range(700)] + [
    {"station": f"s{i % 25}", "g": i % 4, "v": i} for i in range(500)
]
STATIONS = [{"station": f"s{i % 25}", "w": i} for i in range(399)] + [
    {"station": "HOT", "w": 399}
]

QUERY = (
    'for $s in collection("/stations")() '
    'for $f in collection("/facts")() '
    'for $d in collection("/dims")() '
    'where $s("station") eq $f("station") and $f("g") eq $d("g") '
    'return {"w": $s("w"), "v": $f("v"), "label": $d("label")}'
)


def make_source():
    def parts(rows, n=2):
        split = [[] for _ in range(n)]
        for index, row in enumerate(rows):
            split[index % n].append(row)
        return [[json.dumps(part)] for part in split]

    return InMemorySource(
        {
            "/dims": parts(DIMS),
            "/facts": parts(FACTS),
            "/stations": parts(STATIONS),
        },
        stats_sample=10_000,
    )


def run(backend, cost, memory_budget=None, fault_plan=None):
    source = make_source()
    with JsonProcessor(
        source=source if fault_plan is None else fault_plan.wrap(source),
        backend=backend,
        max_workers=2,
        cost=cost,
        memory_budget_bytes=memory_budget,
    ) as processor:
        return processor.evaluate(QUERY)


def item_bytes(items):
    return repr(items)


def canonical(items):
    return sorted(repr(item) for item in items)


@pytest.fixture(scope="module")
def matrix():
    return {
        (backend, cost): run(backend, cost)
        for backend in BACKENDS
        for cost in (True, False)
    }


class TestBackendByteIdentity:
    @pytest.mark.parametrize("cost", [True, False])
    def test_backends_agree_bytewise(self, matrix, cost):
        reference = item_bytes(matrix[("sequential", cost)])
        for backend in BACKENDS[1:]:
            assert item_bytes(matrix[(backend, cost)]) == reference

    def test_cost_on_and_off_are_canonically_equal(self, matrix):
        assert canonical(matrix[("sequential", True)]) == canonical(
            matrix[("sequential", False)]
        )

    def test_plans_actually_differ(self):
        on = JsonProcessor(source=make_source(), cost=True)
        off = JsonProcessor(source=make_source(), cost=False)
        assert on.compile(QUERY).plan.explain() != off.compile(QUERY).plan.explain()
        assert "build=left" in on.compile(QUERY).plan.explain()


class TestDegradedCells:
    def test_spill_cell_matches(self, matrix):
        reference = canonical(matrix[("sequential", False)])
        for cost in (True, False):
            spilled = run("sequential", cost, memory_budget=4096)
            assert canonical(spilled) == reference

    def test_crash_cell_matches(self, matrix):
        reference = canonical(matrix[("sequential", False)])
        for cost in (True, False):
            crashed = run(
                "sequential",
                cost,
                fault_plan=FaultPlan().kill_worker(0, attempt=1),
            )
            assert canonical(crashed) == reference
