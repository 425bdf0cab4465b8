#!/usr/bin/env python
"""Service chaos harness: slot death, cache corruption, disk-full, storms.

Builds a small on-disk catalog in a tempdir, then sweeps disturbance
scenarios across every execution backend through the long-lived
``QueryService`` — the *service-level* counterpart of ``tools/chaos.py``
(which disturbs a single ``JsonProcessor`` run):

* ``slot-death``    — an injected worker-slot death before every query;
  the supervisor must respawn the slot and the query must retry to an
  answer byte-identical to the undisturbed baseline, with zero
  abandoned slots.
* ``slot-storm``    — several deaths queued across the sweep on a
  two-slot service; queries bounce between slots and every slot must
  end the sweep live.
* ``cache-corrupt`` — prime the segment cache, bit-flip every stored
  segment, re-run; CRC32 validation must detect each corrupt segment,
  fall back to a rescan, and repair the cache, with structured
  ``corrupt`` events on the response.
* ``disk-full``     — every segment-cache I/O raises ``ENOSPC`` via
  ``FaultPlan.fail_cache_io``; the cache must degrade to cache-off
  (structured ``disabled`` event) without touching results.

Every disturbed cell's items must be byte-identical to the undisturbed
sequential baseline, and no slot may end a scenario abandoned.  Writes
``BENCH_servicechaos.json`` and exits nonzero on any divergence,
unrecovered slot, or missing recovery event.

Usage::

    PYTHONPATH=src python tools/chaos_service.py \
        [--budget small|full] [--out BENCH_servicechaos.json] \
        [--backend NAME] [--scenario NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

from repro import FaultPlan, QueryService
from repro.data.catalog import CollectionCatalog
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
}

# Scan-shaped queries that actually exercise the segment cache.
CACHE_QUERIES = ("pipelined", "count")

#: Seconds one ticket, or the drain before a close, may take: a request
#: stranded in flight fails its scenario with a message instead of
#: hanging the sweep.
WAIT_SECONDS = 120.0

BACKEND_NAMES = tuple(BACKENDS)


def build_data(root: str) -> str:
    """Lay out ``<root>/data/events/partition<i>/part.json`` and return it."""
    data_dir = os.path.join(root, "data")
    for p in range(PARTITIONS):
        pdir = os.path.join(data_dir, "events", f"partition{p}")
        os.makedirs(pdir)
        with open(os.path.join(pdir, "part.json"), "w", encoding="utf-8") as f:
            for i in range(PER_PARTITION):
                f.write(
                    json.dumps({"v": p * 100 + i, "g": i % 3}) + "\n"
                )
    return data_dir


def make_service(data_dir, backend, cache_dir=None, plan=None, **kwargs):
    source = CollectionCatalog(data_dir, segment_cache_dir=cache_dir)
    if plan is not None:
        source = plan.wrap(source)
    kwargs.setdefault("max_concurrent_queries", 1)
    return QueryService(
        source,
        backend=backend,
        result_cache_size=0,
        **kwargs,
    )


def canonical(items) -> str:
    return json.dumps(items, sort_keys=True)


def run_one(service, query_text):
    return service.submit(query_text).result(timeout=WAIT_SECONDS)


def shut(service) -> None:
    """``close()`` after a bounded drain (close itself drains unbounded)."""
    if not service.drain(WAIT_SECONDS):
        stats = service.stats()
        raise RuntimeError(
            f"service did not drain within {WAIT_SECONDS:g}s: "
            f"{stats['queued']} queued, {stats['running']} running"
        )
    service.close()


def sequential_baselines(data_dir) -> dict:
    service = make_service(data_dir, "sequential")
    try:
        return {
            name: canonical(run_one(service, text).items)
            for name, text in QUERIES.items()
        }
    finally:
        shut(service)


# ---------------------------------------------------------------------------
# Scenarios.  Each yields cell dicts; a cell without ``ok: True`` is a
# failure.  ``check`` collects per-cell invariant violations so one bad
# invariant doesn't hide the rest of the sweep.
# ---------------------------------------------------------------------------


def _finish_cell(cell, items, baseline, problems):
    got = canonical(items)
    if got != baseline:
        problems.append(
            f"result diverged from baseline "
            f"({got[:100]!r} != {baseline[:100]!r})"
        )
    cell["ok"] = not problems
    if problems:
        cell["error"] = "; ".join(problems)
    return cell


def scenario_slot_death(data_dir, backend, baselines, budget):
    """One injected slot death immediately before every query."""
    service = make_service(data_dir, backend)
    cells = []
    try:
        for name, text in QUERIES.items():
            cell = {"scenario": "slot-death", "query": name, "backend": backend}
            problems = []
            service.inject_slot_failure(0)
            response = run_one(service, text)
            if response.retries < 1:
                problems.append("query did not record a retry")
            cell["retries"] = response.retries
            cells.append(
                _finish_cell(cell, response.items, baselines[name], problems)
            )
        stats = service.stats()
        summary = {
            "scenario": "slot-death",
            "query": "__slots__",
            "backend": backend,
            "slot_restarts": stats["slot_restarts_total"],
            "query_retries": stats["retried"],
            "slots": stats["slots"],
        }
        problems = []
        if stats["slots"]["abandoned"]:
            problems.append(
                f"{stats['slots']['abandoned']} slot(s) never recovered"
            )
        if stats["slot_restarts_total"] < len(QUERIES):
            problems.append("missing slot-restart events")
        summary["ok"] = not problems
        if problems:
            summary["error"] = "; ".join(problems)
        cells.append(summary)
    finally:
        shut(service)
    return cells


def scenario_slot_storm(data_dir, backend, baselines, budget):
    """Deaths queued on both slots of a two-slot service, twice over."""
    service = make_service(
        data_dir,
        backend,
        max_concurrent_queries=2,
        max_query_retries=2,
        max_slot_restarts=4,
    )
    cells = []
    try:
        rounds = 2 if budget == "full" else 1
        for round_index in range(rounds):
            for slot in (0, 1):
                service.inject_slot_failure(slot)
            for name, text in QUERIES.items():
                cell = {
                    "scenario": "slot-storm",
                    "query": f"{name}#r{round_index}",
                    "backend": backend,
                }
                response = run_one(service, text)
                cell["retries"] = response.retries
                cells.append(
                    _finish_cell(cell, response.items, baselines[name], [])
                )
        stats = service.stats()
        summary = {
            "scenario": "slot-storm",
            "query": "__slots__",
            "backend": backend,
            "slot_restarts": stats["slot_restarts_total"],
            "slots": stats["slots"],
            "ok": not stats["slots"]["abandoned"],
        }
        if stats["slots"]["abandoned"]:
            summary["error"] = (
                f"{stats['slots']['abandoned']} slot(s) never recovered"
            )
        cells.append(summary)
    finally:
        shut(service)
    return cells


def scenario_cache_corrupt(data_dir, backend, baselines, budget):
    """Prime the cache, bit-flip every segment, re-run, expect repair."""
    cells = []
    for name in CACHE_QUERIES:
        text = QUERIES[name]
        cache_dir = tempfile.mkdtemp(prefix="repro-servicechaos-cache-")
        try:
            primer = make_service(data_dir, backend, cache_dir=cache_dir)
            try:
                run_one(primer, text)
            finally:
                shut(primer)
            segments = [
                entry
                for entry in os.listdir(cache_dir)
                if entry.endswith(".seg")
            ]
            cell = {
                "scenario": "cache-corrupt",
                "query": name,
                "backend": backend,
                "segments_corrupted": len(segments),
            }
            problems = []
            if not segments:
                problems.append("priming run stored no segments")
            for entry in segments:
                path = os.path.join(cache_dir, entry)
                with open(path, "rb") as handle:
                    raw = bytearray(handle.read())
                raw[-1] ^= 0xFF
                with open(path, "wb") as handle:
                    handle.write(bytes(raw))

            reader = make_service(data_dir, backend, cache_dir=cache_dir)
            try:
                response = run_one(reader, text)
            finally:
                shut(reader)
            corrupt_events = [
                event
                for event in response.degradation.cache_events
                if event.kind == "corrupt"
            ]
            cell["corrupt_events"] = len(corrupt_events)
            if not corrupt_events:
                problems.append("no corrupt cache events surfaced")
            if response.is_partial:
                problems.append("response marked partial")
            litter = [
                entry
                for entry in os.listdir(cache_dir)
                if entry.endswith(".tmp")
            ]
            if litter:
                problems.append(f"temp-file litter left behind: {litter}")
            cells.append(
                _finish_cell(cell, response.items, baselines[name], problems)
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return cells


def scenario_disk_full(data_dir, backend, baselines, budget):
    """Every cache I/O fails with ENOSPC; results must be untouched."""
    cells = []
    cache_dir = tempfile.mkdtemp(prefix="repro-servicechaos-enospc-")
    plan = FaultPlan().fail_cache_io(permanent=True)
    service = make_service(data_dir, backend, cache_dir=cache_dir, plan=plan)
    try:
        for index, name in enumerate(CACHE_QUERIES):
            text = QUERIES[name]
            cell = {
                "scenario": "disk-full",
                "query": name,
                "backend": backend,
            }
            problems = []
            response = run_one(service, text)
            kinds = {
                event.kind for event in response.degradation.cache_events
            }
            cell["cache_event_kinds"] = sorted(kinds)
            # The first query must surface the degradation; later queries
            # on the same service may be silent — the cache is already
            # off, which is exactly the intended steady state.
            if index == 0 and not kinds:
                problems.append("no cache events surfaced")
            if not kinds <= {"io-error", "disabled"}:
                problems.append(f"unexpected cache event kinds: {kinds}")
            if response.is_partial:
                problems.append("response marked partial")
            cells.append(
                _finish_cell(cell, response.items, baselines[name], problems)
            )
        published = [
            entry
            for entry in os.listdir(cache_dir)
            if entry.endswith(".seg")
        ]
        if published:
            cells.append({
                "scenario": "disk-full",
                "query": "__cache_dir__",
                "backend": backend,
                "ok": False,
                "error": f"full disk still published segments: {published}",
            })
    finally:
        shut(service)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return cells


SCENARIOS = {
    "slot-death": scenario_slot_death,
    "slot-storm": scenario_slot_storm,
    "cache-corrupt": scenario_cache_corrupt,
    "disk-full": scenario_disk_full,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", default="BENCH_servicechaos.json")
    parser.add_argument("--budget", choices=("small", "full"), default="small")
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default=None,
        help="run only this scenario (default: all)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="run only this backend (default: all)",
    )
    args = parser.parse_args(argv)

    scenarios = (
        {args.scenario: SCENARIOS[args.scenario]}
        if args.scenario
        else SCENARIOS
    )
    backends = (args.backend,) if args.backend else BACKEND_NAMES

    root = tempfile.mkdtemp(prefix="repro-servicechaos-")
    cells = []
    failures = []
    try:
        data_dir = build_data(root)
        baselines = sequential_baselines(data_dir)
        for scenario_name, scenario in scenarios.items():
            for backend in backends:
                try:
                    batch = scenario(data_dir, backend, baselines, args.budget)
                except Exception as error:  # noqa: BLE001 - report, don't die
                    batch = [{
                        "scenario": scenario_name,
                        "query": "__scenario__",
                        "backend": backend,
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    }]
                for cell in batch:
                    cells.append(cell)
                    label = (
                        f"{cell['scenario']}/{cell['query']}/{cell['backend']}"
                    )
                    if cell["ok"]:
                        print(f"OK   {label}")
                    else:
                        failures.append(cell)
                        print(f"FAIL {label}: {cell['error']}")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    payload = {
        "scenarios": sorted(scenarios),
        "backends": list(backends),
        "budget": args.budget,
        "queries": sorted(QUERIES),
        "cells": cells,
        "cell_count": len(cells),
        "failure_count": len(failures),
        "ok": not failures,
        "host": {"python": platform.python_version()},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"service chaos sweep: {len(cells)} cells, "
        f"{len(failures)} failure(s); wrote {args.out}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
