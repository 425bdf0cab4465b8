#!/usr/bin/env python
"""Check that fault-injected executions degrade deterministically.

Runs a battery of fault-injection scenarios twice each and diffs the
serialized degradation reports, result items and the scan and exchange
accounting (``items_scanned``, ``scanned_item_bytes``,
``exchange_tuples``, ``exchange_bytes``): under a fixed seed, both runs
must be byte-identical.  Each partition is longer than the frame
DATASCAN cuts a scan into, so retries and corrupt records land inside
frames.  Every scenario is then replayed on the ``process`` backend at
``max_workers`` 1, 2 and 3 (its 4 partitions cut into one run of four,
2 + 2 and 2 + 1 + 1) and diffed against ``sequential``'s payload: how
the backend cuts the units into runs must never show.  The two join
scenarios (``/keys`` against ``/events``, over rows with a missing key,
a null key and one hot key on one side; ``/events`` against itself under
one projection, which the exchange reads once for both inputs) are
replayed once more under a memory budget that sends their buckets down
the grace path, and the two GROUP-BY scenarios (a
``count`` and a ``sum`` folded a frame at a time over rows with a
missing key and a null key) under one that makes their tables shed
groups to disk, with spill events, run files and recursion depth in the
payload.  Exits non-zero on any mismatch.

``--chaos`` switches to the worker-crash battery: seeded kill/stall
schedules replayed twice with ``max_workers=1`` (serialized pool
execution makes crash batches — and therefore worker-loss event order —
deterministic), diffing items, the degradation report, the accounting,
and the deterministic recovery counters.  Pool rebuilds, a
timing-dependent counter, are excluded from the payload.

Usage::

    PYTHONPATH=src python tools/check_determinism.py [--chaos]
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys

from repro import (
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    RecoveryPolicy,
    ResilienceConfig,
    RetryPolicy,
)

PARTITIONS = 4
RECORDS = 300
QUERY = 'for $r in collection("/events") return $r("v")'
COUNT_QUERY = 'count(for $r in collection("/events") return $r)'
JOIN_QUERY = (
    'for $a in collection("/keys") for $b in collection("/events") '
    'where $a("v") eq $b("v") + 1 return $b("v")'
)
#: both inputs read /events under one projection: the exchange scans
#: each partition once and feeds both
SELF_JOIN_QUERY = (
    'for $a in collection("/events")("v") for $b in collection("/events")("v") '
    "where $a eq $b + 2 return $a"
)
GROUP_QUERY = (
    'for $r in collection("/groups")() group by $g := $r("g") '
    'return {function}($r("v"))'
)
#: rows per partition of ``/keys`` that share the one hot key
HOT_ROWS = 25
#: a query budget under which the join scenario's buckets overflow into
#: the grace path (the replay checks that they did)
GRACE_BUDGET = 2048
#: a query budget under which the GROUP-BY scenarios' tables shed their
#: groups to disk and merge the buckets recursively
GROUP_BUDGET = 96 * 32
#: rows per line of ``/groups``: each line is one JSON array, which the
#: query's ``()`` step unnests inside the scan, so the GROUP-BY sits on
#: the DATASCAN and takes its frames a column at a time
GROUP_ROWS_PER_LINE = 10


def make_source(
    on_malformed: str, keys: bool = False, groups: bool = False
) -> InMemorySource:
    """``/events``, and with *keys* the join's other side ``/keys``: per
    partition, keys that unify with an event's ``v + 1`` (every third a
    float), a missing key, a null key and ``HOT_ROWS`` rows on one key.
    With *groups*, ``/groups``: per partition ``RECORDS`` rows over 50
    group keys (every third a float that unifies with its integer), a
    row with no key and one with a null key, ``GROUP_ROWS_PER_LINE``
    rows to a line."""
    collections = {
        "/events": [
            ["\n".join(json.dumps({"v": p * 1000 + i}) for i in range(RECORDS))]
            for p in range(PARTITIONS)
        ]
    }
    if groups:
        collections["/groups"] = []
        for p in range(PARTITIONS):
            rows = [
                {"g": (i * 7 + p) % 50 * (1.0 if i % 3 == 0 else 1), "v": i}
                for i in range(RECORDS)
            ]
            rows[p * 11] = {"v": -p}
            rows[p * 13 + 1] = {"g": None, "v": p}
            lines = [
                json.dumps(rows[i:i + GROUP_ROWS_PER_LINE])
                for i in range(0, RECORDS, GROUP_ROWS_PER_LINE)
            ]
            collections["/groups"].append(["\n".join(lines)])
    if keys:
        collections["/keys"] = []
        for p in range(PARTITIONS):
            rows = [
                {"v": (p * 1000 + i + 1) * (1.0 if i % 3 == 0 else 1)}
                for i in range(0, RECORDS, 2)
            ]
            rows += [{"w": p}, {"v": None}]
            rows += [{"v": 5, "w": i} for i in range(HOT_ROWS)]
            collections["/keys"].append(["\n".join(map(json.dumps, rows))])
    return InMemorySource(collections, on_malformed=on_malformed)


def scenario_retry_and_corruption(seed: int):
    plan = FaultPlan(seed=seed)
    plan.fail_partition(2, times=2)
    plan.corrupt_records(1, fraction=0.02)
    config = ResilienceConfig(
        partition_policy="retry", retry=RetryPolicy(max_attempts=3, seed=seed)
    )
    return make_source("skip_record"), plan, config, QUERY


def scenario_skip_partition(seed: int):
    plan = FaultPlan(seed=seed)
    plan.fail_partition(0, permanent=True)
    config = ResilienceConfig(partition_policy="skip_partition")
    return make_source("fail"), plan, config, COUNT_QUERY


def scenario_exhausted_degrades(seed: int):
    plan = FaultPlan(seed=seed)
    plan.fail_partition(3, times=10)
    plan.delay_partition(1, 0.25)
    config = ResilienceConfig(
        partition_policy="retry",
        retry=RetryPolicy(max_attempts=3, seed=seed),
        on_exhausted="skip",
    )
    return make_source("skip_record"), plan, config, QUERY


def scenario_join_exchange(seed: int):
    plan = FaultPlan(seed=seed)
    plan.fail_partition(1, times=1)
    plan.corrupt_records(3, fraction=0.02)
    config = ResilienceConfig(
        partition_policy="retry", retry=RetryPolicy(max_attempts=3, seed=seed)
    )
    return make_source("skip_record", keys=True), plan, config, JOIN_QUERY


def scenario_self_join_exchange(seed: int):
    plan = FaultPlan(seed=seed)
    plan.fail_partition(2, times=1)
    plan.corrupt_records(0, fraction=0.02)
    config = ResilienceConfig(
        partition_policy="retry", retry=RetryPolicy(max_attempts=3, seed=seed)
    )
    return make_source("skip_record"), plan, config, SELF_JOIN_QUERY


def scenario_group_by(function: str):
    """A GROUP-BY folding *function* a frame at a time over rows with a
    missing and a null key, one partition retried, one corrupted."""

    def scenario(seed: int):
        plan = FaultPlan(seed=seed)
        plan.fail_partition(2, times=1)
        plan.corrupt_records(1, fraction=0.03)
        config = ResilienceConfig(
            partition_policy="retry", retry=RetryPolicy(max_attempts=3, seed=seed)
        )
        query = GROUP_QUERY.replace("{function}", function)
        return make_source("skip_record", groups=True), plan, config, query

    return scenario


SCENARIOS = {
    "retry+corruption": scenario_retry_and_corruption,
    "skip_partition": scenario_skip_partition,
    "retry-exhausted+straggler": scenario_exhausted_degrades,
    "join-exchange+retry+corruption": scenario_join_exchange,
    "self-join-exchange+retry+corruption": scenario_self_join_exchange,
    "group-by-count+retry+corruption": scenario_group_by("count"),
    "group-by-sum+retry+corruption": scenario_group_by("sum"),
}
#: the scenarios replayed once more under a budget that makes them spill
SPILL_BUDGETS = {
    "join-exchange+retry+corruption": GRACE_BUDGET,
    "self-join-exchange+retry+corruption": GRACE_BUDGET,
    "group-by-count+retry+corruption": GROUP_BUDGET,
    "group-by-sum+retry+corruption": GROUP_BUDGET,
}


# ---------------------------------------------------------------------------
# Chaos scenarios (--chaos): worker kills and stalls.
#
# Kill/stall faults key on (partition, unit-level attempt) — pure
# functions of the schedule — and with max_workers=1 the pool runs one
# unit at a time, so crash attribution and worker-loss event order are
# fully deterministic even under the process backend's real os._exit.
# ---------------------------------------------------------------------------


def chaos_kill(seed: int):
    plan = FaultPlan(seed=seed)
    plan.kill_worker(0, attempt=1)
    plan.kill_worker(2, attempt=1).kill_worker(2, attempt=2)
    return make_source("fail"), plan, ResilienceConfig(), QUERY


def chaos_kill_and_stall(seed: int):
    plan = FaultPlan(seed=seed)
    plan.kill_worker(1, attempt=1)
    plan.stall_partition(3, seconds=0.2)
    return make_source("fail"), plan, ResilienceConfig(), COUNT_QUERY


def chaos_kill_ladder(seed: int):
    plan = FaultPlan(seed=seed)
    for partition in (0, 1, 2):
        plan.kill_worker(partition, attempt=1)
    config = ResilienceConfig(
        recovery=RecoveryPolicy(max_losses_per_tier=1)
    )
    return make_source("fail"), plan, config, QUERY


CHAOS_SCENARIOS = {
    "kill-schedule": chaos_kill,
    "kill+stall": chaos_kill_and_stall,
    "kill-ladder": chaos_kill_ladder,
}


#: worker counts the data-fault battery replays on ``process``
WORKER_COUNTS = (1, 2, 3)


def run_once(
    factory,
    seed: int,
    chaos: bool = False,
    backend=None,
    max_workers=None,
    budget: int | None = None,
) -> tuple[str, str]:
    """The payloads of two executions of the scenario's query on one
    processor: the first compiles (a plan-cache miss), the second reuses
    the compiled plan (a hit) and meets the same faults."""
    source, plan, config, query = factory(seed)
    if chaos:
        max_workers = 1
    processor = JsonProcessor(
        source=source,
        fault_plan=plan,
        resilience=config,
        backend=backend,
        max_workers=max_workers,
        memory_budget_bytes=budget,
    )
    with processor:
        miss = processor.execute(query)
        plan.reset()
        hit = processor.execute(query)
        if processor.plan_cache.stats()["hits"] != 1:
            raise SystemExit("the second execution compiled the query again")
    return describe(miss, budget, chaos), describe(hit, budget, chaos)


def describe(result, budget: int | None, chaos: bool) -> str:
    """The serialized payload the scenarios diff."""
    payload = {
        "items": result.items,
        "strategy": result.strategy,
        "injected_seconds": result.injected_seconds,
        "degradation": result.degradation.to_dict(),
        "items_scanned": result.stats.items_scanned,
        "scanned_item_bytes": result.stats.scanned_item_bytes,
        "exchange_tuples": result.stats.exchange_tuples,
        "exchange_bytes": result.stats.exchange_bytes,
    }
    if budget is not None:
        if not result.stats.spill_events:
            raise SystemExit(f"a budget of {budget} bytes spilled nothing")
        # spill_bytes stays out: the pickled size of the same runs
        # differs between backends (bench_spill's Q2 writes more bytes
        # on process than on sequential), so only the counts are diffed.
        payload["spill_events"] = result.stats.spill_events
        payload["spill_run_files"] = result.stats.spill_run_files
        payload["spill_recursion_depth"] = result.stats.spill_recursion_depth
    if chaos:
        # The pool-rebuild counter is timing-dependent; only the
        # serialized-execution-deterministic counters go in.
        payload["worker_crashes"] = result.stats.worker_crashes
        payload["ladder_steps"] = result.stats.ladder_steps
    return json.dumps(payload, sort_keys=True, indent=2)


def differ(label: str, first: str, second: str, names) -> bool:
    """Print the verdict (and the head of the diff); True on a mismatch."""
    if first == second:
        print(f"OK   {label}: report and accounting byte-identical")
        return False
    print(f"FAIL {label}: reports differ")
    diff = difflib.unified_diff(
        first.splitlines(), second.splitlines(), *names, lineterm=""
    )
    for line in list(diff)[:40]:
        print(f"  {line}")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument(
        "--chaos", action="store_true",
        help="replay seeded worker kill/stall schedules instead of the "
             "data-fault battery",
    )
    args = parser.parse_args(argv)
    scenarios = CHAOS_SCENARIOS if args.chaos else SCENARIOS

    failures = 0
    for name, factory in scenarios.items():
        first, first_hit = run_once(factory, seed=7, chaos=args.chaos)
        second, _ = run_once(factory, seed=7, chaos=args.chaos)
        failures += differ(name, first, second, ("run1", "run2"))
        failures += differ(
            f"{name} [plan-cache hit vs miss]", first, first_hit,
            ("miss", "hit"),
        )
        if args.chaos:
            continue
        # the join and the GROUP-BYs are replayed once more, spilling
        budgets = (None, SPILL_BUDGETS[name]) if name in SPILL_BUDGETS else (None,)
        for budget in budgets:
            label = name if budget is None else f"{name} under {budget} bytes"
            reference, _ = run_once(
                factory, seed=7, backend="sequential", budget=budget
            )
            for workers in WORKER_COUNTS:
                replay, _ = run_once(
                    factory,
                    seed=7,
                    backend="process",
                    max_workers=workers,
                    budget=budget,
                )
                failures += differ(
                    f"{label} [process x{workers} vs sequential]",
                    reference,
                    replay,
                    ("sequential", f"process x{workers}"),
                )
    if failures:
        print(f"{failures} scenario(s) were non-deterministic")
        return 1
    print("all scenarios deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
