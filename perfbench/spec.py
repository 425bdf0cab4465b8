"""The metric catalog, sample statistics and the result envelope.

``BENCHMARK.json`` is the only place a metric's unit, direction and
bound are written down; everything here reads them from it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "perfbench/1"


def load_catalog() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def median(values) -> float:
    return statistics.median(values)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: p90 of 100 samples leaves ten beyond it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = median(values)
    return (third - first) / abs(middle) if middle else 0.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def host_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": usable_cores(),
    }


def git_info() -> dict:
    """Commit and dirty flag of the checkout; nulls outside a git repo.

    Discovery is capped at the checkout so a run in an exported tree
    never reads some enclosing repository.
    """
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *args],
                capture_output=True, text=True, env=env, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def envelope(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    config: dict,
    measured,
    catalog: dict,
) -> dict:
    """One run's self-describing record: where it ran, what it ran, and
    every metric with its unit, direction, bound and sample count."""
    listed = {
        entry["name"]: entry
        for entry in catalog["end_to_end"] + catalog["per_layer"]
    }
    unknown = set(measured.metrics) - set(listed)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for name, entry in listed.items():
        if name not in measured.metrics:
            continue
        value, samples = measured.metrics[name]
        metrics[name] = {
            "value": value,
            "unit": entry["unit"],
            "better": entry["better"],
            "bound": entry.get("bound"),
            "samples": samples,
        }
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "git": git_info(),
        "host": host_info(),
        "config": config,
        "data_digest": measured.data_digest,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failed_ratio": measured.failed / measured.attempted,
        "metrics": metrics,
        "detail": measured.detail,
    }


def driver_line(record: dict, names: list[str]) -> str:
    """The one-line result the benchmark driver parses.

    A per-layer metric that does not apply to the workload reads 0.
    """
    metrics = {}
    for name in names:
        metric = record["metrics"][name]
        value = metric["value"]
        metrics[name] = {
            "value": 0 if value is None else value,
            "unit": metric["unit"],
        }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )
