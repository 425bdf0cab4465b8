"""Differential harness: canonical comparison, matrix execution, the
projection-off source, and the shrinker."""

from __future__ import annotations

import pytest

from repro.correctness.generator import GeneratedCase, generate_cases
from repro.correctness.harness import (
    BUDGETS,
    DiffCheckReport,
    EagerNavigationSource,
    Mismatch,
    canonical_result,
    run_diffcheck,
    shrink_case,
)
from repro.data.catalog import InMemorySource
from repro.jsonlib.path import Path, ValueByKey
from repro.processor import JsonProcessor


class TestCanonicalResult:
    def test_order_insensitive(self):
        assert canonical_result([1, 2]) == canonical_result([2, 1])

    def test_value_based_numeric_equality(self):
        assert canonical_result([1]) == canonical_result([1.0])

    def test_distinguishes_values(self):
        assert canonical_result([1]) != canonical_result([2])
        assert canonical_result([None]) != canonical_result([0])
        assert canonical_result(["1"]) != canonical_result([1])

    def test_multiset_not_set(self):
        assert canonical_result([1, 1]) != canonical_result([1])

    def test_last_ulp_float_noise_folds(self):
        # Summation-order noise (two-step aggregation vs document
        # order) must not count as a mismatch.
        assert canonical_result([2.260416666666666]) == canonical_result(
            [2.260416666666667]
        )
        assert canonical_result([2.26]) != canonical_result([2.27])

    def test_nested_structures(self):
        left = [{"a": [1.0, {"b": 2}]}]
        right = [{"a": [1, {"b": 2.0}]}]
        assert canonical_result(left) == canonical_result(right)


class TestEagerNavigationSource:
    def test_scan_equals_parse_then_navigate(self):
        text = '{"results": [{"v": 1}, {"v": 2, "v": 3}]}'
        inner = InMemorySource(collections={"/c": [[text]]})
        eager = EagerNavigationSource(inner)
        path = Path([ValueByKey("results")])
        # The duplicate-key record parses last-occurrence-wins.
        assert eager.scan_collection("/c", path, 0) == [
            [{"v": 1}, {"v": 3}]
        ]
        assert eager.partition_count("/c") == inner.partition_count("/c")
        assert eager.read_collection("/c", 0) == inner.read_collection(
            "/c", 0
        )

    def test_processor_scan_configuration_reaches_the_inner_source(
        self, tmp_path
    ):
        inner = InMemorySource(collections={"/c": [['{"v": 1}']]})
        processor = JsonProcessor(
            EagerNavigationSource(inner),
            scan_mode="text",
            segment_cache_dir=str(tmp_path),
        )
        assert inner.scan_mode == "text"
        assert inner.segment_cache.cache_dir == str(tmp_path)
        assert processor.evaluate(
            'for $r in collection("/c") return $r("v")'
        ) == [1]


class TestRunDiffcheck:
    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError, match="unknown budget"):
            run_diffcheck(budget="huge")

    def test_budgets_table(self):
        assert set(BUDGETS) == {"small", "full"}
        assert BUDGETS["full"][0] >= 200

    def test_report_serializes(self):
        report = DiffCheckReport(seed=0, budget="small")
        report.mismatches.append(
            Mismatch(
                case="c", config="all", backend="sequential",
                projection="projected", kind="mismatch", detail="d",
            )
        )
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["mismatch_count"] == 1
        assert payload["mismatches"][0]["case"] == "c"


class TestShrinker:
    def _case(self, partitions):
        def oracle(documents):
            return []

        return GeneratedCase(
            name="shrink-me",
            query_text="()",
            partitions=tuple(tuple(p) for p in partitions),
            oracle=oracle,
        )

    def test_drops_irrelevant_partitions_and_lines(self):
        bad = '{"results": [{"station": "BAD"}]}'
        noise = '{"results": [{"station": "OK"}, {"station": "ALSO-OK"}]}'
        case = self._case(
            [[noise], ["\n".join([noise, bad, noise])], [noise]]
        )

        def still_fails(candidate):
            return any(
                "BAD" in text
                for partition in candidate.partitions
                for text in partition
            )

        shrunk = shrink_case(case, still_fails)
        texts = [t for p in shrunk.partitions for t in p]
        assert len(shrunk.partitions) == 1
        assert all("BAD" in t for t in texts)
        # Record-level shrinking trimmed the co-resident OK records too.
        assert "OK" not in "".join(texts)

    def test_keeps_load_bearing_context(self):
        # The failure needs BOTH records; the shrinker must not drop
        # either even though each single drop still parses.
        text = '{"results": [{"station": "A"}, {"station": "B"}]}'
        case = self._case([[text]])

        def still_fails(candidate):
            joined = "".join(t for p in candidate.partitions for t in p)
            return '"A"' in joined and '"B"' in joined

        shrunk = shrink_case(case, still_fails)
        joined = "".join(t for p in shrunk.partitions for t in p)
        assert '"A"' in joined and '"B"' in joined

    def test_fixed_point_when_nothing_shrinks(self):
        case = self._case([['{"results": [{"v": 1}]}']])
        shrunk = shrink_case(case, lambda candidate: True)
        # One partition, one line, one record: only the record drop is
        # attempted, and it still "fails", so results become empty.
        assert shrunk.partitions == (('{"results": []}',),)


class TestSmallMatrix:
    """One end-to-end run over a tiny generated population.

    The full acceptance run (seed 0, full budget) happens in
    ``tools/diffcheck.py`` / CI; here a smoke-sized slice keeps the
    tier-1 suite fast while exercising the whole code path, including
    the process backend.
    """

    def test_runs_clean(self, tmp_path):
        report = run_diffcheck(seed=0, budget="small")
        assert report.ok, [m.to_dict() for m in report.mismatches]
        # 5 queries x (6 toggles x 2 backends x 2 projections + 2
        # forced-spill cells + 2 crash-injected cells + 4 cost-off
        # cells), with every projected cell swept across the 3-mode
        # scan axis: (12*3 + 12) + 2*3 + 2*3 + 4*3 = 72 runs per query.
        assert report.paper_cells == 360
        assert report.generated_cases == BUDGETS["small"][0]
        # 6 toggles (projected -> x3 scan modes) + 3 rotating cells
        # (scan-mode, crash, cost-off); consecutive rotation offsets
        # alternate projected (x3) and eager (x1), so across the even-
        # sized population each case averages 18 + 3 + 1 + 2 = 24 runs.
        assert report.generated_cells == report.generated_cases * 24
        # The population rotates over 8 templates, so 5 of the 40 cases
        # are the ASSIGN-over-DATASCAN one; with its "pipelining off"
        # cells on the tuple gear and the rest on the frame gear, the
        # toggle axis is what pins the two gears against each other.
        names = [case.name for case in generate_cases(0, report.generated_cases)]
        assert sum("let-month" in name for name in names) == 5
