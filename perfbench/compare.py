"""``--compare A B``: is set B worse than set A, beyond the bounds?

Each file holds the envelopes of one set of runs (``--out`` appends
them, one JSON line each).  Per workload and end-to-end metric the two
medians are compared against the bound ``BENCHMARK.json`` fixes.  When
the run-to-run spread inside a set is wider than the bound the metric is
"unresolved", not unchanged, unless every run of B reads better than
every run of A.
"""

from __future__ import annotations

import json

from perfbench import spec


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced envelopes of one set, by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["schema"] != spec.SCHEMA:
                raise ValueError(f"{path}: unknown schema {record['schema']!r}")
            if not record["traced"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def judge(before: list[float], after: list[float], better: str, bound: float):
    """``(relative worsening of the median, spread, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    base = spec.median(before)
    worsening = sign * (spec.median(after) - base) / abs(base)
    spread = max(spec.spread(before), spec.spread(after))
    if spread > bound:
        all_better = max(sign * v for v in after) < min(sign * v for v in before)
        verdict = "ok" if all_better else "unresolved"
    else:
        verdict = "REGRESSION" if worsening > bound else "ok"
    return worsening, spread, verdict


def main(path_a: str, path_b: str) -> int:
    catalog = spec.load_catalog()
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    counts = {"ok": 0, "unresolved": 0, "REGRESSION": 0}
    print(
        f"{'workload':12s} {'metric':14s} {'median A':>11s} {'median B':>11s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload in [w["name"] for w in catalog["workloads"]]:
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            continue
        for entry in catalog["end_to_end"]:
            name = entry["name"]
            before = [run["metrics"][name]["value"] for run in a]
            after = [run["metrics"][name]["value"] for run in b]
            worsening, spread, verdict = judge(
                before, after, entry["better"], entry["bound"]
            )
            counts[verdict] += 1
            print(
                f"{workload:12s} {name:14s} {spec.median(before):11.4f} "
                f"{spec.median(after):11.4f} {worsening:+9.1%} {spread:7.1%} "
                f"{entry['bound']:6.0%}  {verdict}  (n={len(a)},{len(b)})"
            )
        # failed_ratio has an absolute bound of 0: any failed op in B
        failed = sum(run["failed"] for run in b)
        attempted = sum(run["attempted"] for run in b)
        verdict = "REGRESSION" if failed else "ok"
        counts[verdict] += 1
        print(
            f"{workload:12s} {'failed_ratio':14s} "
            f"{sum(r['failed'] for r in a) / sum(r['attempted'] for r in a):11.4f} "
            f"{failed / attempted:11.4f} {'':9s} {'':7s} {'0':>6s}  {verdict}"
        )
    print(
        f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
        f"{counts['REGRESSION']} regressed"
    )
    return 1 if counts["REGRESSION"] else 0
