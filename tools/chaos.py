#!/usr/bin/env python
"""Chaos harness: crash/stall schedules across every execution backend.

Sweeps a battery of named fault schedules — worker kills (``os._exit``
under the process backend), stalled partitions, and combinations with
transient partition failures — across the paper-shaped query set on
every backend, and asserts every disturbed run's result is
byte-identical to an undisturbed sequential baseline.  This is the CI
gate that worker-loss recovery and the degradation ladder are
semantics-preserving, and that a slow partition (waited for, never
duplicated) still answers byte-identically.

Writes ``BENCH_chaos.json`` and exits nonzero on any mismatch.

Usage::

    PYTHONPATH=src python tools/chaos.py \
        [--out BENCH_chaos.json] [--max-workers 2] \
        [--schedule NAME] [--backend NAME]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro import (
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    RecoveryPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.hyracks.backends import BACKENDS

PARTITIONS = 4
PER_PARTITION = 6

QUERIES = {
    "pipelined": 'for $r in collection("/events") return $r("v")',
    "count": 'count(for $r in collection("/events") return $r)',
    "group": (
        'for $r in collection("/events") '
        'group by $g := $r("g") return count($r("v"))'
    ),
    "join": (
        "avg( "
        'for $a in collection("/events") '
        'for $b in collection("/events") '
        'where $a("g") eq $b("g") and $a("side") eq "l" and $b("side") eq "r" '
        'return $b("v") - $a("v") )'
    ),
}

BACKEND_NAMES = tuple(BACKENDS)


def make_source() -> InMemorySource:
    collections = {
        "/events": [
            [
                "\n".join(
                    json.dumps(
                        {
                            "v": p * 100 + i,
                            "g": i % 3,
                            "side": "l" if i % 2 else "r",
                        }
                    )
                    for i in range(PER_PARTITION)
                )
            ]
            for p in range(PARTITIONS)
        ]
    }
    return InMemorySource(collections)


# ---------------------------------------------------------------------------
# Fault schedules
#
# Each schedule builds a fresh (FaultPlan, ResilienceConfig) pair.  Kill
# and stall faults key on (partition, unit-level attempt), so a
# rescheduled unit sees attempt 2 and a kill registered for attempt 1
# fires exactly once regardless of backend.
# ---------------------------------------------------------------------------


def schedule_kill_first():
    """Kill the worker running the first partition on its first attempt."""
    return FaultPlan().kill_worker(0, attempt=1), ResilienceConfig()


def schedule_kill_mid():
    """Two mid-query kills on different partitions."""
    plan = FaultPlan().kill_worker(1, attempt=1).kill_worker(2, attempt=1)
    return plan, ResilienceConfig()


def schedule_kill_twice():
    """The same partition kills its worker twice, then succeeds."""
    plan = FaultPlan().kill_worker(1, attempt=1).kill_worker(1, attempt=2)
    return plan, ResilienceConfig()


def schedule_stall():
    """One straggling partition, waited for."""
    plan = FaultPlan().stall_partition(3, seconds=0.4)
    return plan, ResilienceConfig()


def schedule_kill_and_stall():
    """A worker kill and an unrelated straggler in the same query."""
    plan = (
        FaultPlan()
        .kill_worker(0, attempt=1)
        .stall_partition(2, seconds=0.3)
    )
    return plan, ResilienceConfig()


def schedule_cascade():
    """A worker kill plus a transient in-partition failure elsewhere.

    Exercises both recovery layers at once: the backend reschedules the
    killed unit while the partition retry policy absorbs the transient
    error on a different partition.
    """
    plan = FaultPlan(seed=7).kill_worker(1, attempt=1)
    plan.fail_partition(2, times=1)
    config = ResilienceConfig(
        partition_policy="retry", retry=RetryPolicy(max_attempts=3, seed=7)
    )
    return plan, config


def schedule_ladder():
    """Enough kills that the process backend steps down the ladder."""
    plan = (
        FaultPlan()
        .kill_worker(0, attempt=1)
        .kill_worker(1, attempt=1)
        .kill_worker(2, attempt=1)
    )
    config = ResilienceConfig(
        recovery=RecoveryPolicy(max_losses_per_tier=1)
    )
    return plan, config


SCHEDULES = {
    "kill-first": schedule_kill_first,
    "kill-mid": schedule_kill_mid,
    "kill-twice": schedule_kill_twice,
    "stall": schedule_stall,
    "kill+stall": schedule_kill_and_stall,
    "cascade": schedule_cascade,
    "ladder": schedule_ladder,
}


def canonical_items(result) -> str:
    return json.dumps(result.items, sort_keys=True)


def run_cell(query_text, backend, plan, config, max_workers):
    processor = JsonProcessor(
        source=make_source(),
        fault_plan=plan,
        resilience=config,
        backend=backend,
        max_workers=max_workers,
    )
    with processor:
        return processor.execute(query_text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", default="BENCH_chaos.json")
    parser.add_argument("--max-workers", type=int, default=2)
    parser.add_argument(
        "--schedule", choices=sorted(SCHEDULES), default=None,
        help="run only this schedule (default: all)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="run only this backend (default: all)",
    )
    args = parser.parse_args(argv)

    schedules = (
        {args.schedule: SCHEDULES[args.schedule]}
        if args.schedule
        else SCHEDULES
    )
    backends = (args.backend,) if args.backend else BACKEND_NAMES

    # Undisturbed sequential baselines, one per query.
    baselines = {
        name: canonical_items(
            run_cell(text, "sequential", None, None, max_workers=1)
        )
        for name, text in QUERIES.items()
    }

    cells = []
    mismatches = []
    for schedule_name, factory in schedules.items():
        for query_name, query_text in QUERIES.items():
            for backend in backends:
                plan, config = factory()
                cell = {
                    "schedule": schedule_name,
                    "query": query_name,
                    "backend": backend,
                }
                try:
                    result = run_cell(
                        query_text, backend, plan, config, args.max_workers
                    )
                except Exception as error:  # noqa: BLE001 - report, don't die
                    cell.update(ok=False, error=f"{type(error).__name__}: {error}")
                    mismatches.append(cell)
                    cells.append(cell)
                    print(f"FAIL {schedule_name}/{query_name}/{backend}: "
                          f"{cell['error']}")
                    continue
                got = canonical_items(result)
                ok = got == baselines[query_name]
                cell.update(
                    ok=ok,
                    worker_crashes=result.stats.worker_crashes,
                    pool_rebuilds=result.stats.pool_rebuilds,
                    ladder_steps=result.stats.ladder_steps,
                    worker_losses=len(result.degradation.worker_losses),
                )
                if not ok:
                    cell["error"] = (
                        f"result diverged from undisturbed sequential "
                        f"baseline ({got[:120]!r} != "
                        f"{baselines[query_name][:120]!r})"
                    )
                    mismatches.append(cell)
                    print(f"FAIL {schedule_name}/{query_name}/{backend}: "
                          f"{cell['error']}")
                else:
                    print(
                        f"OK   {schedule_name}/{query_name}/{backend}: "
                        f"crashes={cell['worker_crashes']} "
                        f"ladder={cell['ladder_steps']}"
                    )
                cells.append(cell)

    payload = {
        "schedules": sorted(schedules),
        "queries": sorted(QUERIES),
        "backends": list(backends),
        "max_workers": args.max_workers,
        "cells": cells,
        "cell_count": len(cells),
        "mismatch_count": len(mismatches),
        "ok": not mismatches,
        "host": {"python": platform.python_version()},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"chaos sweep: {len(cells)} cells, {len(mismatches)} mismatch(es); "
        f"wrote {args.out}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
