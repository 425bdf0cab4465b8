#!/usr/bin/env python
"""Benchmark the cost-based join planner against the un-costed plans.

Builds two synthetic join workloads — a tiny dimension joined to a
large fact table, and a hot-key join (its hot key hashes to one bucket
like every other key) — and runs each with cost-based planning on and
off across the configured backends.  In both, the cost phase's one
decision fires: the left input is the smaller, so it builds.  Every cost-on run's items are checked
canonically equal to the cost-off run's before anything is reported —
the planner must never change an answer, only its physical shape.
Writes ``BENCH_cost.json``: per scenario and backend, wall seconds and
exchange traffic for both modes, plus the build-side annotations the
cost phase chose (empty annotations for a scenario would mean the
planner went inert — that fails the run).

Usage::

    PYTHONPATH=src python tools/bench_cost.py \
        [--out BENCH_cost.json] [--scale 1] [--repeat 1] \
        [--backends sequential,process]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys

from repro import JsonProcessor
from repro.data.catalog import InMemorySource
from repro.hyracks.backends import BACKENDS

ANNOTATION = re.compile(r"\[build=[^]]*\]")


def scenarios(scale: int) -> dict:
    """Scenario name -> (collections, query, expected annotation hint)."""
    dim = [{"k": i, "label": f"d{i}"} for i in range(8)]
    fact = [
        {"k": i % 8, "station": "HOT" if i % 2 else f"s{i % 40}", "v": i}
        for i in range(2000 * scale)
    ]
    stations = [
        {"station": f"s{i % 40}", "w": i} for i in range(799 * scale)
    ] + [{"station": "HOT", "w": -1}]
    data = {"/dim": dim, "/fact": fact, "/stations": stations}
    return {
        "tiny-dimension": (
            data,
            'for $d in collection("/dim")() '
            'for $f in collection("/fact")() '
            'where $d("k") eq $f("k") '
            'return {"label": $d("label"), "v": $f("v")}',
            "build=left",
        ),
        "hot-key": (
            data,
            'for $s in collection("/stations")() '
            'for $f in collection("/fact")() '
            'where $s("station") eq $f("station") '
            'return $f("v")',
            "build=left",
        ),
    }


def make_source(collections: dict, partitions: int) -> InMemorySource:
    data = {}
    for name, rows in collections.items():
        parts = [[] for _ in range(partitions)]
        for index, row in enumerate(rows):
            parts[index % partitions].append(row)
        data[name] = [[json.dumps(part)] for part in parts]
    return InMemorySource(data, stats_sample=1_000_000)


def canonical(items) -> list[str]:
    return sorted(repr(item) for item in items)


def bench_scenario(
    name: str,
    collections: dict,
    query: str,
    hint: str,
    backends: list[str],
    partitions: int,
    repeat: int,
) -> dict:
    annotations = ANNOTATION.findall(
        JsonProcessor(source=make_source(collections, partitions), cost=True)
        .compile(query)
        .plan.explain()
    )
    if not annotations or not any(hint in note for note in annotations):
        raise SystemExit(
            f"scenario {name!r}: cost phase chose no {hint!r} annotation "
            f"(got {annotations!r}) — planner went inert"
        )
    entry: dict = {"query": query, "annotations": annotations, "backends": {}}
    for backend in backends:
        modes: dict = {}
        reference = None
        for cost in (True, False):
            wall = []
            for _ in range(repeat):
                with JsonProcessor(
                    source=make_source(collections, partitions),
                    backend=backend,
                    cost=cost,
                ) as processor:
                    result = processor.execute(query)
                wall.append(result.wall_seconds)
            shaped = canonical(result.items)
            if reference is None:
                reference = shaped
            elif shaped != reference:
                raise SystemExit(
                    f"scenario {name!r} ({backend}): cost-on items differ "
                    "from cost-off items"
                )
            modes["cost-on" if cost else "cost-off"] = {
                "wall_seconds": min(wall),
                "items": len(result.items),
                "exchange_tuples": result.stats.exchange_tuples,
                "exchange_bytes": result.stats.exchange_bytes,
            }
        modes["identical_items"] = True
        entry["backends"][backend] = modes
    return entry


def run(args: argparse.Namespace) -> dict:
    report: dict = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "scale": args.scale,
            "partitions": args.partitions,
            "repeat": args.repeat,
            "backends": args.backends,
        },
        "scenarios": {},
    }
    for name, (collections, query, hint) in scenarios(args.scale).items():
        entry = bench_scenario(
            name, collections, query, hint,
            args.backends, args.partitions, args.repeat,
        )
        report["scenarios"][name] = entry
        modes = entry["backends"][args.backends[0]]
        print(
            f"{name}: {', '.join(entry['annotations'])} -> "
            f"cost-on {modes['cost-on']['wall_seconds']:.3f}s / "
            f"{modes['cost-on']['exchange_tuples']} exchanged, "
            f"cost-off {modes['cost-off']['wall_seconds']:.3f}s / "
            f"{modes['cost-off']['exchange_tuples']} exchanged"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", default="BENCH_cost.json")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--backends",
        default=",".join(BACKENDS),
        help="comma-separated backends to run",
    )
    args = parser.parse_args(argv)
    args.backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    report = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
