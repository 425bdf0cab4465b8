#!/usr/bin/env python
"""Profile the paper's queries operator by operator.

Generates a synthetic partitioned sensor collection, runs Q0 / Q1 / Q2
with operator-level profiling enabled, prints each query's rendered
profile (per-operator counters, timing spans, and the rewrite audit),
and writes ``BENCH_profile.json``.  The report also measures the cost of
the instrumentation itself: each query is timed with profiling disabled
and with the wall clock enabled, and the overhead ratio is recorded —
the disabled path is expected to stay within noise of an unprofiled
build.

The ``--rewrite`` flag selects the rule families to compile under
(``all`` | ``none`` | ``path_only`` | ``path_and_pipelining``), which is
how the paper's Figure-12-style before/after attributions are produced:
profile the same query under ``none`` and under ``all`` and compare the
per-operator counters (see EXPERIMENTS.md).

Usage::

    PYTHONPATH=src python tools/profile.py \
        [--out BENCH_profile.json] [--partitions 4] \
        [--mib-per-partition 2] [--repeat 3] [--rewrite all] \
        [--backend sequential]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

from repro import (
    JsonProcessor,
    RewriteConfig,
    SensorDataConfig,
    write_sensor_collection,
)
from repro.bench.queries import q0, q1, q2
from repro.hyracks.backends import BACKENDS

QUERIES = {"Q0": q0, "Q1": q1, "Q2": q2}

REWRITE_PRESETS = {
    "all": RewriteConfig.all,
    "none": RewriteConfig.none,
    "path_only": RewriteConfig.path_only,
    "path_and_pipelining": RewriteConfig.path_and_pipelining,
}


def _best_wall_seconds(processor: JsonProcessor, query: str, repeat: int, profile):
    best = None
    for _ in range(repeat):
        result = processor.execute(query, profile=profile)
        if best is None or result.wall_seconds < best:
            best = result.wall_seconds
    return best


def profile_one(
    base_dir: str, name: str, query: str, args: argparse.Namespace
) -> dict:
    """Profile one query; returns the JSON entry and prints the render."""
    rewrite = REWRITE_PRESETS[args.rewrite]()
    with JsonProcessor.from_directory(
        base_dir, rewrite=rewrite, backend=args.backend
    ) as processor:
        processor.execute(query)  # warm OS cache and worker pools
        # The deterministic counter clock makes the recorded profile
        # reproducible run to run (and identical across backends).
        profile = processor.profile(query, clock="counter")
        off = _best_wall_seconds(processor, query, args.repeat, profile=None)
        on = _best_wall_seconds(processor, query, args.repeat, profile="wall")
    overhead = (on / off - 1.0) if off and off > 0 else None
    print(f"-- {name} (rewrite={args.rewrite}, backend={args.backend}) --")
    print(profile.render())
    print(
        f"wall: off={off:.4f}s on={on:.4f}s "
        f"overhead={overhead * 100.0:+.1f}%\n"
    )
    return {
        "profile": profile.to_dict(),
        "wall_seconds_profile_off": off,
        "wall_seconds_profile_on": on,
        "profiling_overhead_ratio": overhead,
    }


def run(args: argparse.Namespace) -> dict:
    report: dict = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "partitions": args.partitions,
            "bytes_per_partition": args.mib_per_partition << 20,
            "repeat": args.repeat,
            "rewrite": args.rewrite,
            "backend": args.backend,
        },
        "queries": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as base_dir:
        write_sensor_collection(
            base_dir,
            "sensors",
            partitions=args.partitions,
            bytes_per_partition=args.mib_per_partition << 20,
            config=SensorDataConfig(seed=args.seed),
        )
        for name, make_query in QUERIES.items():
            report["queries"][name] = profile_one(
                base_dir, name, make_query("/sensors"), args
            )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", default="BENCH_profile.json")
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--mib-per-partition", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rewrite", choices=sorted(REWRITE_PRESETS), default="all")
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="sequential",
        help="execution backend",
    )
    args = parser.parse_args(argv)
    report = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
