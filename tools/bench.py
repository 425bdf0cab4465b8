#!/usr/bin/env python
"""Benchmark the execution backends and the scan fast path.

Generates a synthetic partitioned sensor collection and writes two
reports:

``BENCH_parallel.json`` (default) — runs Q0 / Q1 / Q2 under each
backend (``sequential``, ``process``): measured parallel
wall seconds of the partition phases, scanned items per second, the
speedup relative to the sequential backend on the same query, and a
cold vs warm segment-cache column per backend.  Every backend's items
are checked identical to sequential's before timing is reported, so a
speedup can never come from computing less.  Host reporting records
``os.sched_getaffinity`` (the cores this process may actually use);
when only one usable core is available, ``speedup_vs_sequential`` is
refused (``null`` + reason) — a pool of workers time-slicing one core
cannot measure parallelism.

``BENCH_scan.json`` (``--scan``) — benchmarks the DATASCAN projection
itself, keyed by projection (the Listing-6 one Q0/Q1/Q1b/Q2 scan with,
the deeper ``("date")`` one Q0b pushes down, and an all-skip
``("metadata")("count")`` one no paper query scans), under every scan mode
(``ondemand`` / ``text``): uncached plus segment-cache cold and warm
passes, with items-per-second and the warm-vs-cold speedup, and the
``matched``/``skipped`` counts of one counted uncached pass, which must
equal the ``text`` mode's (the tool exits non-zero otherwise).  The
baseline row, ``reference``, is no product option: the tool itself
parses every file fully and then navigates
(``navigate_sequence(parse_many(text), path)``, where ``parse_many`` is
the on-demand scanner over the empty path, so the row prices building
every value rather than a slower decoder), and each mode reports its
``speedup_vs_reference``.

Usage::

    PYTHONPATH=src python tools/bench.py \
        [--out BENCH_parallel.json] [--partitions 4] \
        [--mib-per-partition 4] [--repeat 3] [--backends process]
    PYTHONPATH=src python tools/bench.py --scan [--scan-out BENCH_scan.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

from repro import JsonProcessor, SensorDataConfig, write_sensor_collection
from repro.cache.config import SCAN_MODES
from repro.data.catalog import CollectionCatalog
from repro.hyracks.backends import BACKENDS, usable_cores
from repro.jsonlib.parser import parse_many
from repro.jsonlib.path import navigate_sequence, parse_path
from repro.jsonlib.textscan import ScanCounters
from repro.bench.queries import q0, q1, q2

QUERIES = {"Q0": q0, "Q1": q1, "Q2": q2}

#: Every distinct DATASCAN projection of the paper queries' rewritten
#: plans (tests/golden_plans), with the queries that scan through it:
#: the Listing-6 shape, and the deeper one Q0b pushes down; plus one no
#: paper query scans, where all but one small value of each record is
#: skipped (the case most in favour of walking keys over decoding).
SCAN_PROJECTIONS = {
    '("root")()("results")()': ["Q0", "Q1", "Q1b", "Q2"],
    '("root")()("results")()("date")': ["Q0b"],
    '("root")()("metadata")("count")': [],
}


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Backend benchmark (BENCH_parallel.json)
# ---------------------------------------------------------------------------


def bench_one(base_dir: str, backend: str, query: str, repeat: int) -> dict:
    """Best-of-*repeat* timing for one (backend, query) pair."""
    with JsonProcessor.from_directory(base_dir, backend=backend) as processor:
        processor.execute(query)  # warm OS cache and worker pools
        best = None
        for _ in range(repeat):
            result = processor.execute(query)
            if best is None or (
                result.parallel_wall_seconds < best.parallel_wall_seconds
            ):
                best = result
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        with JsonProcessor.from_directory(
            base_dir, backend=backend, segment_cache_dir=cache_dir
        ) as processor:
            start = time.perf_counter()
            cold = processor.execute(query)
            cold_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm = processor.execute(query)
            warm_seconds = time.perf_counter() - start
            if warm.items != best.items or cold.items != best.items:
                raise SystemExit(f"{backend}: cached items differ from uncached")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "items": best.items,
        "strategy": best.strategy,
        "parallel_wall_seconds": best.parallel_wall_seconds,
        "wall_seconds": best.wall_seconds,
        "items_scanned": best.stats.items_scanned,
        "items_per_second": (
            best.stats.items_scanned / best.parallel_wall_seconds
            if best.parallel_wall_seconds > 0
            else None
        ),
        "cache_cold_wall_seconds": cold_seconds,
        "cache_warm_wall_seconds": warm_seconds,
    }


def run(args: argparse.Namespace) -> dict:
    cores = usable_cores()
    report: dict = {
        "host": host_info(),
        "config": {
            "partitions": args.partitions,
            "bytes_per_partition": int(args.mib_per_partition * (1 << 20)),
            "repeat": args.repeat,
            "backends": args.backends,
        },
        "queries": {},
    }
    if cores <= 1:
        report["speedup_note"] = (
            "speedup_vs_sequential withheld: only one usable core "
            "(os.sched_getaffinity) — parallel backends cannot beat "
            "sequential by running on the same core"
        )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as base_dir:
        write_sensor_collection(
            base_dir,
            "sensors",
            partitions=args.partitions,
            bytes_per_partition=int(args.mib_per_partition * (1 << 20)),
            config=SensorDataConfig(seed=args.seed),
        )
        for name, make_query in QUERIES.items():
            query = make_query("/sensors")
            entries: dict = {}
            baseline = bench_one(base_dir, "sequential", query, args.repeat)
            entries["sequential"] = baseline
            for backend in args.backends:
                if backend == "sequential":
                    continue
                entry = bench_one(base_dir, backend, query, args.repeat)
                if entry.pop("items") != baseline["items"]:
                    raise SystemExit(
                        f"{name}: {backend} items differ from sequential"
                    )
                entries[backend] = entry
            baseline.pop("items")
            for backend, entry in entries.items():
                entry["speedup_vs_sequential"] = (
                    baseline["parallel_wall_seconds"]
                    / entry["parallel_wall_seconds"]
                    if cores > 1 and entry["parallel_wall_seconds"] > 0
                    else None
                )
            report["queries"][name] = entries
            summary = ", ".join(
                f"{backend} {entry['parallel_wall_seconds']:.3f}s"
                + (
                    f" ({entry['speedup_vs_sequential']:.2f}x)"
                    if entry["speedup_vs_sequential"] is not None
                    else ""
                )
                for backend, entry in entries.items()
            )
            print(f"{name}: {summary}")
    return report


# ---------------------------------------------------------------------------
# Scan benchmark (BENCH_scan.json)
# ---------------------------------------------------------------------------


def _timed_scan(catalog: CollectionCatalog, path) -> tuple[float, int]:
    start = time.perf_counter()
    count = sum(1 for _ in catalog.scan_collection("/sensors", path))
    return time.perf_counter() - start, count


def _counted_scan(catalog: CollectionCatalog, path) -> ScanCounters:
    """One untimed pass with scan counters attached."""
    counters = ScanCounters()
    catalog.attach_scan_counters(counters)
    try:
        for _ in catalog.scan_collection("/sensors", path):
            pass
    finally:
        catalog.attach_scan_counters(None)
    return counters


def bench_reference(base_dir: str, path, repeat: int) -> dict:
    """Best-of-*repeat* parse-everything-then-navigate over the same files."""
    files = CollectionCatalog(base_dir).files("/sensors")
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        items = 0
        for file_path in files:
            with open(file_path, "r", encoding="utf-8-sig") as handle:
                items += len(navigate_sequence(parse_many(handle.read()), path))
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return {
        "items": items,
        "seconds": best,
        "items_per_second": items / best if best > 0 else None,
    }


def bench_scan_mode(
    base_dir: str, mode: str, path, repeat: int
) -> dict:
    """Uncached best-of-*repeat* plus cache cold/warm for one scan mode."""
    catalog = CollectionCatalog(base_dir, scan_mode=mode)
    _timed_scan(catalog, path)  # warm the OS page cache
    uncached = None
    items = None
    for _ in range(repeat):
        seconds, count = _timed_scan(catalog, path)
        items = count
        uncached = seconds if uncached is None else min(uncached, seconds)
    counted = _counted_scan(catalog, path)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cached = CollectionCatalog(
            base_dir, scan_mode=mode, segment_cache_dir=cache_dir
        )
        cold_seconds, cold_items = _timed_scan(cached, path)
        warm_seconds = None
        for _ in range(repeat):
            seconds, warm_items = _timed_scan(cached, path)
            if warm_items != items or cold_items != items:
                raise SystemExit(f"{mode}: cached scan items differ")
            warm_seconds = (
                seconds if warm_seconds is None else min(warm_seconds, seconds)
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "items": items,
        "matched": counted.matched,
        "skipped": counted.skipped,
        "uncached_seconds": uncached,
        "items_per_second": items / uncached if uncached > 0 else None,
        "cache_cold_seconds": cold_seconds,
        "cache_warm_seconds": warm_seconds,
        "warm_speedup_vs_cold": (
            cold_seconds / warm_seconds if warm_seconds > 0 else None
        ),
    }


def run_scan(args: argparse.Namespace) -> dict:
    report: dict = {
        "host": host_info(),
        "config": {
            "partitions": args.partitions,
            "bytes_per_partition": int(args.mib_per_partition * (1 << 20)),
            "repeat": args.repeat,
        },
        "projections": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as base_dir:
        write_sensor_collection(
            base_dir,
            "sensors",
            partitions=args.partitions,
            bytes_per_partition=int(args.mib_per_partition * (1 << 20)),
            config=SensorDataConfig(seed=args.seed),
        )
        for projection, queries in SCAN_PROJECTIONS.items():
            path = parse_path(projection)
            reference = bench_reference(base_dir, path, args.repeat)
            print(
                f"scan/{projection}/reference: {reference['seconds']:.3f}s "
                f"({reference['items_per_second']:.0f} items/s)"
            )
            modes: dict = {}
            for mode in SCAN_MODES:
                modes[mode] = bench_scan_mode(base_dir, mode, path, args.repeat)
                entry = modes[mode]
                if entry["items"] != reference["items"]:
                    raise SystemExit(f"{mode}: items differ from the reference")
                entry["speedup_vs_reference"] = (
                    entry["items_per_second"] / reference["items_per_second"]
                    if reference["items_per_second"]
                    else None
                )
                print(
                    f"scan/{projection}/{mode}: "
                    f"uncached {entry['uncached_seconds']:.3f}s "
                    f"({entry['items_per_second']:.0f} items/s), "
                    f"cold {entry['cache_cold_seconds']:.3f}s, "
                    f"warm {entry['cache_warm_seconds']:.3f}s "
                    f"({entry['warm_speedup_vs_cold']:.1f}x)"
                )
            # Every mode must navigate alike: its matched/skipped counts
            # are the text skipper's, the canonical ones.
            text_counts = (modes["text"]["matched"], modes["text"]["skipped"])
            for mode, entry in modes.items():
                counts = (entry["matched"], entry["skipped"])
                if counts != text_counts:
                    raise SystemExit(
                        f"scan/{projection}/{mode}: matched/skipped {counts} "
                        f"differ from text's {text_counts}"
                    )
            report["projections"][projection] = {
                "queries": queries,
                "reference": reference,
                "modes": modes,
            }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--scan-out", default="BENCH_scan.json")
    parser.add_argument(
        "--scan",
        action="store_true",
        help="benchmark scan modes / segment cache instead of backends",
    )
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument(
        "--mib-per-partition",
        type=float,
        default=4,
        help="may be fractional: 0.0625 is perfbench's 64 KiB partition",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--backends",
        default=",".join(name for name in BACKENDS if name != "sequential"),
        help="comma-separated backends to compare against sequential",
    )
    args = parser.parse_args(argv)
    args.backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if args.scan:
        report = run_scan(args)
        out = args.scan_out
    else:
        report = run(args)
        out = args.out
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
