#!/usr/bin/env python
"""Differential correctness check across the full configuration matrix.

Runs the five paper queries through every (rewrite-toggle × backend ×
projection) cell and a population of seeded random (query, data) pairs
through the toggle axis plus rotating backend/projection coverage, each
cell compared against an independent plain-Python oracle
(:mod:`repro.correctness`).  Every projected cell additionally sweeps
the scan-mode axis (``text`` / ``ondemand`` / ``cached-warm``) and
byte-compares items and degradation reports across modes, so the
raw-text skipper, the on-demand scanner and the segment cache are proven
bit-equivalent in the same gate.  Failing generated cases are minimized by
the shrinker before reporting.  Writes ``BENCH_diffcheck.json`` and
exits nonzero on any mismatch — this is the CI gate that the rewrite
rules and parallel backends are semantics-preserving.

Usage::

    PYTHONPATH=src python tools/diffcheck.py \
        [--seed 0] [--budget small|full] [--out BENCH_diffcheck.json] \
        [--max-workers 2] [--no-shrink]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.correctness.harness import BUDGETS, run_diffcheck


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget", choices=sorted(BUDGETS), default="full",
        help="small: quick CI gate; full: the acceptance matrix",
    )
    parser.add_argument("--out", default="BENCH_diffcheck.json")
    parser.add_argument("--max-workers", type=int, default=2)
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimizing failing generated cases",
    )
    args = parser.parse_args(argv)

    report = run_diffcheck(
        seed=args.seed,
        budget=args.budget,
        max_workers=args.max_workers,
        shrink=not args.no_shrink,
        progress=print,
    )

    payload = report.to_dict()
    payload["host"] = {"python": platform.python_version()}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"checked {report.total_cells} cells "
        f"({report.paper_cells} paper, {report.generated_cells} generated "
        f"over {report.generated_cases} cases); "
        f"{len(report.mismatches)} mismatch(es); wrote {args.out}"
    )
    if not report.ok:
        for mismatch in report.mismatches:
            print(
                f"FAIL {mismatch.case} [{mismatch.config}/"
                f"{mismatch.backend}/{mismatch.projection}/"
                f"{mismatch.scan_mode}] "
                f"{mismatch.kind}: {mismatch.detail}",
                file=sys.stderr,
            )
            if mismatch.repro_query:
                print(f"  repro query: {mismatch.repro_query}",
                      file=sys.stderr)
                for partition in mismatch.repro_partitions or []:
                    print(f"  repro partition: {partition}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
