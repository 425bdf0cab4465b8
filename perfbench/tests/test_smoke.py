"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/tests

Runs every workload end to end and traced through the real command
line, and checks what later issues rely on: every catalogued metric is
reported, counts repeat exactly for a seed, the seed reaches the data,
the traced numbers agree with the README's interaction table, and
``--compare`` tells a regression from noise.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, ROOT)

from perfbench import compare, spec  # noqa: E402

CATALOG = spec.load_catalog()
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]
BATCH = ["raw_scan", "warm_cache", "parallel"]
REPEATING_COUNTS = [
    "hyracks.items_scanned",
    "jsonlib.tape_tokens",
    "data.items_matched",
    "cache.segment_files",
    "algebra.rule_fires",
]


def run_benchmark(tmp_path, workload: str, seed: int, traced: bool):
    """One tiny run; returns ``(driver line, envelope)``."""
    out = tmp_path / f"{workload}-{seed}-{int(traced)}-{os.urandom(4).hex()}.jsonl"
    done = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(int(traced)), "--tiny", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=170,
        env=dict(os.environ, REPRO_BACKEND="thread"),  # must be scrubbed
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    return line, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload, end to end and traced, at seed 0."""
    tmp_path = tmp_path_factory.mktemp("perfbench")
    return {
        (workload, traced): run_benchmark(tmp_path, workload, 0, traced)
        for workload in WORKLOADS
        for traced in (False, True)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_every_catalogued_metric_is_reported(runs, workload, traced):
    line, record = runs[workload, traced]
    listed = CATALOG["per_layer" if traced else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"]), entry["name"]
    for key in ("schema", "git", "host", "seed", "config", "data_digest"):
        assert key in record
    assert record["config"]["kind"] == ("batch" if workload in BATCH else "service")
    for metric in record["metrics"].values():
        assert set(metric) == {"value", "unit", "better", "bound", "samples"}


@pytest.mark.parametrize("workload", BATCH)
def test_counts_repeat_for_a_seed(runs, tmp_path, workload):
    _, first = runs[workload, True]
    _, second = run_benchmark(tmp_path, workload, 0, True)
    assert first["data_digest"] == second["data_digest"]
    for name in REPEATING_COUNTS:
        assert (
            first["metrics"][name]["value"] == second["metrics"][name]["value"]
        ), name


def test_another_seed_changes_the_data(runs, tmp_path):
    _, other = run_benchmark(tmp_path, "raw_scan", 1, False)
    assert other["data_digest"] != runs["raw_scan", False][1]["data_digest"]


def test_traced_numbers_match_the_interaction_table(runs):
    def value(workload, name):
        return runs[workload, True][1]["metrics"][name]["value"]

    assert value("warm_cache", "cache.hit_ratio") == 1.0
    assert value("service_mix", "cache.hit_ratio") == 1.0
    assert value("raw_scan", "cache.probes") == 0
    assert value("parallel", "cache.probes") == 0
    assert value("raw_scan", "hyracks.scan_share") > 2 * value(
        "warm_cache", "hyracks.scan_share"
    )
    for workload in WORKLOADS:
        metrics = runs[workload, True][1]["metrics"]
        populated = [
            name
            for name, metric in metrics.items()
            if name.startswith("service.") and metric["value"] is not None
        ]
        assert bool(populated) == (workload == "service_mix"), populated
        assert metrics["bench.unattributed_ratio"]["value"] <= 0.05
        assert metrics["bench.trace_overhead_ratio"]["value"] is not None


def test_trace_file_and_hermetic_run_directory(runs):
    out_dir = os.path.join(ROOT, "perfbench", "out")
    assert not [n for n in os.listdir(out_dir) if n.startswith("run-")]
    for workload in WORKLOADS:
        path = os.path.join(out_dir, f"trace-{workload}.jsonl")
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            assert set(span) == {
                "trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns",
            }
            parent = by_id.get(span["parent_id"])
            if parent is not None:
                assert parent["trace_id"] == span["trace_id"]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]


def test_compare_tells_regression_from_noise(runs, tmp_path, capsys):
    _, record = runs["raw_scan", False]

    def write(name, scales):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as handle:
            for scale in scales:
                run = copy.deepcopy(record)
                run["metrics"]["op_p50_ms"]["value"] *= scale
                handle.write(json.dumps(run) + "\n")
        return str(path)

    steady = write("a.jsonl", [1.0, 1.01, 0.99])
    assert compare.main(steady, steady) == 0
    assert compare.main(steady, write("slow.jsonl", [1.5, 1.51, 1.49])) == 1
    # a set whose own spread exceeds the bound cannot resolve a verdict
    assert compare.main(steady, write("noisy.jsonl", [0.8, 1.2, 1.6])) == 0
    assert "unresolved" in capsys.readouterr().out
