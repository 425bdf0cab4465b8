#!/usr/bin/env python3
"""One command for the end-to-end benchmark.

    python3 perfbench/run.py --workload raw_scan --seed 0
    python3 perfbench/run.py --workload warm_cache --seed 0 --trace
    python3 perfbench/run.py --all --seed 0 --out perfbench/out/a.jsonl
    python3 perfbench/run.py --compare perfbench/out/a.jsonl perfbench/out/b.jsonl

A run generates its inputs from the seed, measures for ``--seconds``,
checks every answer, prints every metric by name with its unit, and
ends with one JSON line for the benchmark driver.  ``--trace`` runs the
separate traced pass that reports the per-layer metrics instead of the
end-to-end ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perfbench: no program to measure (src/repro is missing)")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import compare, spec  # noqa: E402
from perfbench.endtoend import run_end_to_end  # noqa: E402
from perfbench.hermetic import run_directory, scrub_environment  # noqa: E402
from perfbench.layers import run_traced  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_one(catalog, name, names, seed, seconds, traced, tiny) -> dict:
    """Run one pass of one workload and return its envelope; *names* are
    the catalogued metrics the pass must report."""
    workload = WORKLOADS[name]
    with run_directory() as run_dir:
        measure = run_traced if traced else run_end_to_end
        measured = measure(workload, seed, seconds, run_dir, tiny)
    for metric in names:
        # a layer metric that does not apply to this workload
        measured.metrics.setdefault(metric, (None, 0))
    config = dict(workload.config(), tiny=tiny)
    return spec.envelope(name, seed, seconds, traced, config, measured, catalog)


def report(record: dict) -> None:
    """Every metric by name, with its unit."""
    kind = "traced" if record["traced"] else "end to end"
    print(f"== {record['workload']} (seed {record['seed']}, {kind}) ==")
    print(
        f"ops attempted {record['attempted']}, failed {record['failed']}, "
        f"failed_ratio {record['failed_ratio']:g}"
    )
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>12s} {metric['unit']:6s} n={metric['samples']}")


def main(argv: list[str] | None = None) -> int:
    catalog = spec.load_catalog()
    workloads = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=catalog["run_seconds"],
        help="length of the measured phase",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="run the traced pass (per-layer metrics)",
    )
    parser.add_argument("--out", help="append each run's envelope to this JSON-lines file")
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test data sizes"
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="compare two --out files instead of running",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")

    scrub_environment()
    # SIGTERM unwinds like an exception, so the run directory is removed
    # and the serve.py child reaped on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    traced = bool(args.trace)
    names = [m["name"] for m in catalog["per_layer" if traced else "end_to_end"]]
    failed = 0
    for name in workloads if args.all else [args.workload]:
        record = run_one(
            catalog, name, names, args.seed, args.seconds, traced, args.tiny
        )
        failed += record["failed"]
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        report(record)
        print(spec.driver_line(record, names), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
