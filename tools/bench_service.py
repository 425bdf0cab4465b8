#!/usr/bin/env python
"""Concurrent-tenant soak benchmark for the query service.

Generates a synthetic partitioned sensor collection, computes one-shot
reference results for every paper query with a plain
:class:`~repro.JsonProcessor`, then soaks a
:class:`~repro.service.QueryService` per backend with several tenants
submitting the full query mix concurrently (two rounds, so the second
round exercises the warm plan cache).  The report asserts and records:

- **byte-identity**: every (tenant, query, backend) cell's items must
  serialize identically to the one-shot reference — the soak fails the
  run (exit 1) on any mismatch;
- **plan-cache warm hits**: per-query cold (compile) vs warm (cache
  hit) service latency, plus the hit/miss counters;
- **admission rejections**: a deliberately tiny-quota tenant floods
  the service and must collect at least one structured
  ``AdmissionError`` (reason counts are recorded).

Usage::

    PYTHONPATH=src python tools/bench_service.py \
        [--out BENCH_service.json] [--partitions 4] \
        [--mib-per-partition 2] [--backends sequential,process] \
        [--tenants 3] [--smoke]

``--smoke`` shrinks the dataset for CI.
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
from concurrent.futures import ThreadPoolExecutor

from repro import (
    AdmissionError,
    JsonProcessor,
    QueryService,
    SensorDataConfig,
    TenantQuota,
    write_sensor_collection,
)
from repro.data.catalog import CollectionCatalog
from repro.hyracks.backends import BACKENDS, usable_cores
from repro.bench.queries import q0, q0b, q1, q1b, q2

QUERIES = {"Q0": q0, "Q0b": q0b, "Q1": q1, "Q1b": q1b, "Q2": q2}

#: Seconds one ticket, or the drain before a close, may take: a request
#: stranded in flight fails the run with a message instead of hanging it.
WAIT_SECONDS = 300.0


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def canonical(items) -> str:
    """Byte-comparable serialization of a result item list."""
    return json.dumps(items, sort_keys=False, separators=(",", ":"))


def shut(service) -> None:
    """``close()`` after a bounded drain (close itself drains unbounded)."""
    if not service.drain(WAIT_SECONDS):
        stats = service.stats()
        raise RuntimeError(
            f"service did not drain within {WAIT_SECONDS:g}s: "
            f"{stats['queued']} queued, {stats['running']} running"
        )
    service.close()


def one_shot_references(base_dir: str) -> dict[str, str]:
    """Reference serialization of every query from a one-shot processor."""
    references = {}
    with JsonProcessor.from_directory(base_dir, backend="sequential") as proc:
        for name, query_fn in QUERIES.items():
            references[name] = canonical(proc.evaluate(query_fn()))
    return references


def soak_backend(
    base_dir: str,
    backend: str,
    references: dict[str, str],
    tenants: int,
    rounds: int,
    max_workers: int,
) -> dict:
    """Soak one backend: concurrent tenants × all queries × *rounds*."""
    catalog = CollectionCatalog(base_dir)
    service = QueryService(
        catalog,
        backend=backend,
        max_concurrent_queries=min(3, max(2, tenants)),
        max_workers=max_workers,
        max_queue_depth=tenants * len(QUERIES) * rounds + 4,
        result_cache_size=0,  # every cell must really execute
        plan_cache_size=32,
    )
    tenant_names = [f"tenant-{i}" for i in range(tenants)]
    cells = []
    latencies: dict[str, dict[str, list[float]]] = {
        name: {"cold": [], "warm": []} for name in QUERIES
    }

    def run_tenant(tenant: str) -> list[dict]:
        rows = []
        for round_index in range(rounds):
            for name, query_fn in QUERIES.items():
                started = time.perf_counter()
                response = service.submit(query_fn(), tenant=tenant).result(
                    timeout=WAIT_SECONDS
                )
                elapsed = time.perf_counter() - started
                rows.append(
                    {
                        "tenant": tenant,
                        "query": name,
                        "round": round_index,
                        "identical": canonical(response.items)
                        == references[name],
                        "plan_cache_hit": response.plan_cache_hit,
                        "wall_seconds": round(elapsed, 6),
                        "queue_seconds": round(response.queue_seconds, 6),
                        "strategy": response.strategy,
                    }
                )
                bucket = "warm" if response.plan_cache_hit else "cold"
                latencies[name][bucket].append(elapsed)
        return rows

    with ThreadPoolExecutor(max_workers=tenants) as pool:
        for rows in pool.map(run_tenant, tenant_names):
            cells.extend(rows)
    stats = service.stats()
    shut(service)
    mismatches = [c for c in cells if not c["identical"]]
    latency_summary = {
        name: {
            bucket: (
                round(sum(values) / len(values), 6) if values else None
            )
            for bucket, values in buckets.items()
        }
        for name, buckets in latencies.items()
    }
    return {
        "backend": backend,
        "cells": cells,
        "cell_count": len(cells),
        "mismatches": len(mismatches),
        "plan_cache": stats["plan_cache"],
        "mean_latency_seconds": latency_summary,
        "service_counters": {
            key: stats[key]
            for key in ("submitted", "completed", "failed", "rejected")
        },
    }


def admission_rejections(base_dir: str) -> dict:
    """Flood a tiny-quota tenant; every structured rejection is recorded.

    The greedy tenant may run one query and queue none, so a burst of
    back-to-back submissions deterministically rejects everything after
    the first admitted query (queries take milliseconds; submissions
    take microseconds).
    """
    catalog = CollectionCatalog(base_dir)
    service = QueryService(
        catalog,
        backend="sequential",
        max_concurrent_queries=1,
        quotas={
            "greedy": TenantQuota(
                max_concurrent=1,
                max_queued=0,
                memory_budget_bytes=64 * 1024 * 1024,
                deadline_ceiling_seconds=300.0,
            )
        },
    )
    rejections: dict[str, int] = {}
    tickets = []
    burst = 5
    for _ in range(burst):
        try:
            tickets.append(service.submit(q1(), tenant="greedy"))
        except AdmissionError as error:
            rejections[error.reason] = rejections.get(error.reason, 0) + 1
    # Over-budget and over-deadline submissions reject regardless of load.
    for kwargs in (
        {"memory_budget_bytes": 512 * 1024 * 1024},
        {"deadline_seconds": 3600.0},
    ):
        try:
            tickets.append(service.submit(q0(), tenant="greedy", **kwargs))
        except AdmissionError as error:
            rejections[error.reason] = rejections.get(error.reason, 0) + 1
    for ticket in tickets:
        ticket.result(timeout=WAIT_SECONDS)
    stats = service.stats()
    shut(service)
    return {
        "burst_size": burst,
        "rejections_by_reason": dict(sorted(rejections.items())),
        "total_rejected": stats["rejected"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--mib-per-partition", type=float, default=2.0)
    parser.add_argument("--backends", default=",".join(BACKENDS))
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny dataset for CI"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.partitions = min(args.partitions, 2)
        args.mib_per_partition = min(args.mib_per_partition, 1.0)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    base_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        write_sensor_collection(
            base_dir,
            "sensors",
            partitions=args.partitions,
            bytes_per_partition=int(args.mib_per_partition * 1024 * 1024),
            config=SensorDataConfig(),
        )
        references = one_shot_references(base_dir)
        per_backend = [
            soak_backend(
                base_dir,
                backend,
                references,
                tenants=args.tenants,
                rounds=args.rounds,
                max_workers=min(4, usable_cores()),
            )
            for backend in backends
        ]
        admission = admission_rejections(base_dir)
        report = {
            "host": host_info(),
            "config": {
                "partitions": args.partitions,
                "mib_per_partition": args.mib_per_partition,
                "tenants": args.tenants,
                "rounds": args.rounds,
                "backends": backends,
                "smoke": args.smoke,
            },
            "soak": per_backend,
            "admission": admission,
        }
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    total_cells = sum(b["cell_count"] for b in per_backend)
    mismatches = sum(b["mismatches"] for b in per_backend)
    warm_hits = sum(b["plan_cache"]["hits"] for b in per_backend)
    rejected = admission["total_rejected"]
    print(
        f"{args.out}: {total_cells} cells over {len(backends)} backends, "
        f"{mismatches} mismatches, {warm_hits} plan-cache hits, "
        f"{rejected} admission rejections"
    )
    if mismatches:
        print("FAIL: service results diverged from one-shot execution")
        return 1
    if not warm_hits:
        print("FAIL: no warm plan-cache hits were exercised")
        return 1
    if not rejected:
        print("FAIL: no admission rejection was exercised")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
