"""The traced pass: where an op's time goes, layer by layer.

Every span and count here is taken by the benchmark, around a public
call into one layer; the program itself is not instrumented.  An op is
performed stage by stage (parse, translate, rewrite, cost-plan,
execute, serialize) and must return the same items as
``JsonProcessor.execute``.  Untraced, traced and profiled rounds are
interleaved so drift on the host hits all three alike.  Counts are
reported per round, so a seed repeats them exactly however many rounds
fit in the run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time

from repro import CollectionCatalog, JsonProcessor, RewriteConfig
from repro.algebra.operators import DataScan
from repro.algebra.rules import rule_pipeline
from repro.errors import ReproError
from repro.hyracks.executor import PartitionedExecutor
from repro.jsoniq.parser import parse_query
from repro.jsoniq.translator import translate
from repro.jsonlib import dumps
from repro.jsonlib.textscan import ScanCounters
from repro.observability.rewrite_audit import RewriteAudit
from repro.stats.cost import apply_cost_planning

from perfbench import calibrate, reference
from perfbench.client import closed_loop
from perfbench.endtoend import (
    Measured,
    check_answers,
    prepare_data,
    record_response,
    service_telemetry,
    start_server,
)
from perfbench.hermetic import OUT_DIR, directory_bytes, op_timeout
from perfbench.spec import median, usable_cores
from perfbench.workloads import OUTSTANDING, BatchWorkload

#: The traced pass runs at least and at most this many rounds.
MIN_ROUNDS, MAX_ROUNDS = 3, 30

#: Each probe of a single layer (a drain, a sampling) runs this often.
PROBE_REPEATS = 3

#: Operator kinds whose self time is a catalogued metric; the profile's
#: full breakdown goes to the envelope's detail.
OPERATORS = (
    "DATASCAN", "SELECT", "ASSIGN", "UNNEST", "GROUP-BY", "JOIN",
    "AGGREGATE", "SUBPLAN", "DISTRIBUTE-RESULT",
)

#: Requests put through the in-process service for ``service.submit_ms``.
SUBMIT_REQUESTS = 100


class Tracer:
    """Spans kept in memory: ``{trace_id, span_id, parent_id, name,
    start_ns, end_ns}``; spans of one op share a trace id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None):
        parent = self._open[-1] if self._open else None
        span = {
            "trace_id": trace_id if parent is None else parent["trace_id"],
            "span_id": next(self._ids),
            "parent_id": None if parent is None else parent["span_id"],
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self._open.append(span)
        try:
            yield span
        finally:
            span["end_ns"] = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(span)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times_ms(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its children cover."""
    own = {s["span_id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for span in spans:
        if span["parent_id"] is not None:
            own[span["parent_id"]] -= span["end_ns"] - span["start_ns"]
    return {span_id: ns / 1e6 for span_id, ns in own.items()}


def duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


# -- one op, stage by stage ---------------------------------------------------


def traced_op(tracer, trace_id, query, catalog, executor):
    """What ``JsonProcessor.execute`` plus ``dumps`` does, one public
    call per layer; returns ``(result, serialized, rule fires)``."""
    config = RewriteConfig.all()
    audit = RewriteAudit()
    with tracer.span("op", trace_id):
        with tracer.span("compiler.compile"):
            with tracer.span("jsoniq.parse"):
                ast = parse_query(query.text)
            with tracer.span("jsoniq.translate"):
                plan = translate(ast)
            with tracer.span("algebra.rewrite"):
                plan = rule_pipeline(config).rewrite(plan, trace=[], audit=audit)
            with tracer.span("stats.cost_plan"):
                plan = apply_cost_planning(
                    plan, catalog.stats_snapshot(), audit=audit, trace=[]
                )
        with tracer.span("hyracks.execute"):
            result = executor.run(plan)
        with tracer.span("jsonlib.serialize"):
            serialized = dumps(result.items)
    return result, serialized, audit.total_firings


def operator_self_ms(profile) -> dict[str, float]:
    """Self time per operator kind of one profiled execution."""
    totals: dict[str, float] = {}

    def walk(node) -> None:
        totals[node.operator] = (
            totals.get(node.operator, 0.0) + node.exclusive_seconds * 1000.0
        )
        for child in [*node.nested, *node.children]:
            walk(child)

    walk(profile.root)
    return totals


def class_rounds(
    workload, queries, processor, base_dir, seconds, tracer, measured
):
    """Interleaved untraced, traced and profiled rounds of *queries*,
    each followed by a drain of the DATASCAN projections under the
    workload's own cache state.

    Fills the compile-stage, ``hyracks.*`` and overhead metrics and
    returns the distinct ``(collection, projection)`` pairs scanned.
    """
    catalog = processor.source
    executor = PartitionedExecutor(
        catalog, backend=workload.backend, max_workers=workload.workers
    )
    scans = [
        [
            (scan.collection, scan.project_path)
            for scan in processor.compile(query.text).plan.operators_of(DataScan)
        ]
        for query in queries
    ]
    projections = sorted({scan for query in scans for scan in query}, key=str)
    gate = reference.AnswerGate()
    expected = []  # what JsonProcessor.execute serializes to, per query
    with op_timeout():
        for query in queries:  # warm-up: stats, pools, segment cache
            expected.append(dumps(processor.execute(query.text).items))
            traced_op(Tracer(), None, query, catalog, executor)

    results = []  # per round: the untraced QueryResult of every query
    fires = []  # per round: rule firings
    operators: list[dict] = []  # per round: self ms per operator kind
    cache = {"hits": 0, "probes": 0}  # of the first profiled round
    drained = {projection: [] for projection in projections}

    def untraced_round(round_index: int) -> None:
        round_results = []
        for query in queries:
            result = processor.execute(query.text)
            dumps(result.items)
            round_results.append(result)
        results.append(round_results)

    def traced_round(round_index: int) -> None:
        fired = 0
        for index, query in enumerate(queries):
            measured.attempted += 1
            result, serialized, op_fired = traced_op(
                tracer, f"{workload.name}-{round_index}-{index}",
                query, catalog, executor,
            )
            fired += op_fired
            gate.record(query, serialized, result.items)
            if serialized != expected[index]:
                measured.failed += 1
        fires.append(fired)

    def profiled_round(round_index: int) -> None:
        self_ms: dict[str, float] = {}
        for query in queries:
            result = processor.execute(query.text, profile="wall")
            dumps(result.items)
            for name, ms in operator_self_ms(result.profile).items():
                self_ms[name] = self_ms.get(name, 0.0) + ms
            if round_index == 0:
                for scan in result.profile.find("DATASCAN"):
                    cache["hits"] += scan.counters.get("cache_hits", 0)
                    cache["probes"] += scan.counters.get("cache_hits", 0)
                    cache["probes"] += scan.counters.get("cache_misses", 0)
        operators.append(self_ms)

    passes = [
        ("untraced", untraced_round),
        ("traced", traced_round),
        ("profiled", profiled_round),
    ]
    wall = {kind: [] for kind, _ in passes}
    deadline = time.perf_counter() + seconds
    try:
        for round_index in range(MAX_ROUNDS):
            if round_index >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            # the three passes take turns going first, so that no pass
            # always runs on the caches the drain left behind
            turn = round_index % len(passes)
            for kind, run_round in passes[turn:] + passes[:turn]:
                started = time.perf_counter()
                with op_timeout():
                    run_round(round_index)
                wall[kind].append(time.perf_counter() - started)
            for projection in projections:
                drained[projection].append(drain(catalog, *projection) * 1000.0)
    finally:
        executor.close()

    check_answers(gate, base_dir, measured)
    metrics = measured.metrics
    metrics["algebra.rule_fires"] = (fires[0], 1)
    probes = cache["probes"]
    metrics["cache.probes"] = (probes, 1)
    metrics["cache.hit_ratio"] = (
        cache["hits"] / probes if probes else None, probes,
    )
    _span_metrics(tracer.spans, metrics)
    _round_metrics(wall, operators, measured)
    _result_metrics(workload, results, metrics)
    _scan_metrics(workload, queries, scans, drained, tracer.spans, metrics)
    return projections


def _span_metrics(spans, metrics) -> None:
    """Compile-stage and serialize medians over the traced ops, and the
    share of an op that no layer span covers."""
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(duration_ms(span))
    for name, metric in (
        ("jsoniq.parse", "jsoniq.parse_ms"),
        ("jsoniq.translate", "jsoniq.translate_ms"),
        ("algebra.rewrite", "algebra.rewrite_ms"),
        ("stats.cost_plan", "stats.cost_plan_ms"),
        ("compiler.compile", "compiler.compile_ms"),
        ("jsonlib.serialize", "jsonlib.serialize_ms"),
    ):
        metrics[metric] = (median(by_name[name]), len(by_name[name]))
    own = self_times_ms(spans)
    ops = [span for span in spans if span["name"] == "op"]
    metrics["bench.unattributed_ratio"] = (
        median(own[op["span_id"]] / duration_ms(op) for op in ops), len(ops),
    )


def _round_metrics(wall, operators, measured) -> None:
    """What tracing and profiling cost a round, and the profile's self
    time per operator kind."""
    metrics = measured.metrics
    rounds = len(operators)
    # paired within a round, so a slow stretch of the host cancels out
    for metric, kind in (
        ("bench.trace_overhead_ratio", "traced"),
        ("observability.profile_overhead_ratio", "profiled"),
    ):
        metrics[metric] = (
            median(
                instrumented / plain - 1.0
                for instrumented, plain in zip(wall[kind], wall["untraced"])
            ),
            rounds,
        )
    measured.detail["round_ms"] = {
        kind: median(samples) * 1000.0 for kind, samples in wall.items()
    }
    self_ms = {
        name: median(round_.get(name, 0.0) for round_ in operators)
        for name in sorted({name for round_ in operators for name in round_})
    }
    for name in OPERATORS:
        if name in self_ms:
            metrics[f"hyracks.op_self_ms.{name}"] = (self_ms[name], rounds)
    measured.detail["op_self_ms"] = self_ms


def _scan_metrics(workload, queries, scans, drained, spans, metrics) -> None:
    """Per class: execute time from the traced ops' ``hyracks.execute``
    spans, and what is left of it above the scan.

    A query's scan time is the drain time of its DATASCANs; partitions
    scan concurrently on the process backend, hence the worker count.
    """
    executes = [span for span in spans if span["name"] == "hyracks.execute"]
    rounds = len(executes) // len(queries)
    execute_ms = [
        median(duration_ms(span) for span in executes[index::len(queries)])
        for index in range(len(queries))
    ]
    scan_ms = [
        sum(median(drained[scan]) for scan in query) / workload.workers
        for query in scans
    ]
    metrics["hyracks.scan_share"] = (sum(scan_ms) / sum(execute_ms), rounds)
    for cls in {query.cls for query in queries}:
        mine = [i for i, query in enumerate(queries) if query.cls == cls]
        metrics[f"hyracks.execute_ms.{cls}"] = (
            sum(execute_ms[i] for i in mine) / len(mine), rounds,
        )
        metrics[f"hyracks.above_scan_ms.{cls}"] = (
            sum(execute_ms[i] - scan_ms[i] for i in mine) / len(mine), rounds,
        )


def _result_metrics(workload, results, metrics) -> None:
    """Metrics read from ``QueryResult`` fields of the untraced rounds."""
    rounds = len(results)

    def per_round(read) -> list:
        return [sum(read(r) for r in round_results) for round_results in results]

    first = results[0]
    metrics["hyracks.items_scanned"] = (
        sum(r.stats.items_scanned for r in first), 1,
    )
    metrics["hyracks.exchange_tuples"] = (
        sum(r.stats.exchange_tuples for r in first), 1,
    )
    metrics["hyracks.exchange_bytes"] = (
        sum(r.stats.exchange_bytes for r in first), 1,
    )
    metrics["hyracks.peak_memory_bytes"] = (
        max(r.peak_memory_bytes for r in first), 1,
    )
    parallel_wall = per_round(lambda r: r.parallel_wall_seconds)
    partition_cpu = per_round(lambda r: sum(r.partition_seconds))
    metrics["hyracks.parallel_wall_ms"] = (
        median(parallel_wall) * 1000.0, rounds,
    )
    metrics["hyracks.partition_cpu_s"] = (median(partition_cpu), rounds)
    metrics["hyracks.global_ms"] = (
        median(per_round(lambda r: r.global_seconds)) * 1000.0, rounds,
    )
    skews = [
        max(r.partition_seconds) * len(r.partition_seconds)
        / sum(r.partition_seconds)
        for round_results in results
        for r in round_results
        if r.partition_seconds
    ]
    metrics["hyracks.partition_skew"] = (median(skews), len(skews))
    metrics["hyracks.worker_efficiency"] = (
        median(
            cpu / (workload.workers * wall)
            for cpu, wall in zip(partition_cpu, parallel_wall)
        ),
        rounds,
    )


# -- single-layer probes ------------------------------------------------------


def drain(catalog, collection: str, path, counters=None) -> float:
    """Scan one projection of a collection to the end, every partition;
    seconds taken."""
    catalog.attach_scan_counters(counters)
    started = time.perf_counter()
    try:
        for partition in range(catalog.partition_count(collection)):
            for _ in catalog.scan_collection(collection, path, partition):
                pass
    finally:
        catalog.attach_scan_counters(None)
    return time.perf_counter() - started


def scan_probes(base_dir, run_dir, projections, metrics) -> dict:
    """Drain every distinct DATASCAN projection with the cache off, with
    an empty cache, and with a warm one.

    Fills ``data.*``, ``jsonlib.tape_*`` and the ``cache.*`` timings and
    returns the three times in ms per projection, for the envelope.
    """
    raw = CollectionCatalog(base_dir, scan_mode="ondemand", segment_cache_dir="")
    counted = ScanCounters()
    per_projection = {}
    raw_bytes = 0
    for collection, path in projections:
        raw_bytes += raw.total_bytes(collection)
        raw_s = [drain(raw, collection, path, counted)]
        raw_s += [drain(raw, collection, path) for _ in range(PROBE_REPEATS - 1)]
        fill_s, warm_s = [], []
        for repeat in range(PROBE_REPEATS):
            cache_dir = os.path.join(run_dir, f"probe-segments-{repeat}")
            cached = CollectionCatalog(
                base_dir, scan_mode="ondemand", segment_cache_dir=cache_dir
            )
            fill_s.append(drain(cached, collection, path))
            warm_s.append(drain(cached, collection, path))
        per_projection[f"{collection}{path}"] = {
            "raw": median(raw_s) * 1000.0,
            "fill": median(fill_s) * 1000.0,
            "warm": median(warm_s) * 1000.0,
        }
    files, size = directory_bytes(os.path.join(run_dir, "probe-segments-0"))
    total = {
        kind: sum(p[kind] for p in per_projection.values())
        for kind in ("raw", "fill", "warm")
    }
    count = len(projections)
    metrics["data.scan_ms"] = (total["raw"], PROBE_REPEATS)
    metrics["data.scan_mib_per_s"] = (
        raw_bytes / 2**20 / (total["raw"] / 1000.0), PROBE_REPEATS,
    )
    metrics["data.items_matched"] = (counted.matched, count)
    metrics["data.items_skipped"] = (counted.skipped, count)
    metrics["jsonlib.tape_records"] = (counted.tape_records, count)
    metrics["jsonlib.tape_tokens"] = (counted.tape_tokens, count)
    metrics["jsonlib.tokens_per_item"] = (
        counted.tape_tokens / counted.matched, count,
    )
    metrics["cache.fill_ms"] = (total["fill"], PROBE_REPEATS)
    metrics["cache.warm_scan_ms"] = (total["warm"], PROBE_REPEATS)
    metrics["cache.segment_files"] = (files, 1)
    metrics["cache.bytes_per_raw_byte"] = (size / raw_bytes, 1)
    return per_projection


def sample_probe(base_dir, metrics) -> None:
    """``stats.sample_s``: the first snapshot on a fresh catalog."""
    samples = []
    for _ in range(PROBE_REPEATS):
        catalog = CollectionCatalog(base_dir)
        started = time.perf_counter()
        catalog.stats_snapshot()
        samples.append(time.perf_counter() - started)
    metrics["stats.sample_s"] = (median(samples), len(samples))


# -- the service's own layers -------------------------------------------------


def service_layers(
    workload, seed, seconds, base_dir, cache_dir, tracer, measured
) -> None:
    """``service.*``: a shorter closed loop against ``tools/serve.py``
    for the telemetry, then an in-process ``QueryService`` with the same
    settings for the admission span."""
    gate = reference.AnswerGate()
    server, _ = start_server(workload, base_dir, cache_dir, gate)
    with server:
        exchanges = closed_loop(
            server, workload.requests(seed), OUTSTANDING, seconds
        )
        server_stats = server.ask({"op": "stats"})["stats"]
    measured.attempted += len(exchanges)
    measured.failed += sum(
        not (e.response and record_response(gate, e.query, e.response))
        for e in exchanges
    )
    measured.metrics.update(service_telemetry(exchanges, server_stats))

    service = workload.in_process_service(base_dir, cache_dir)
    try:
        stream = workload.requests(seed)
        for index in range(SUBMIT_REQUESTS):
            tenant, query = next(stream)
            measured.attempted += 1
            try:
                with tracer.span("service.request", f"submit-{index}"):
                    with tracer.span("service.submit"):
                        ticket = service.submit(query.text, tenant=tenant)
                    with tracer.span("service.await"):
                        response = ticket.result(timeout=60)
            except (ReproError, TimeoutError):
                measured.failed += 1
                continue
            gate.record(query, dumps(response.items), response.items)
    finally:
        service.close(cancel_pending=True)
    submits = [
        duration_ms(s) for s in tracer.spans if s["name"] == "service.submit"
    ]
    measured.metrics["service.submit_ms"] = (median(submits), len(submits))
    check_answers(gate, base_dir, measured)


# -- the pass -----------------------------------------------------------------


def run_traced(workload, seed, seconds, run_dir, tiny=False) -> Measured:
    base_dir, measured = prepare_data(workload, seed, run_dir, tiny)
    metrics = measured.metrics
    tracer = Tracer()
    first_probe = calibrate.probe()
    cache_dir = os.path.join(run_dir, "segments")
    batch = isinstance(workload, BatchWorkload)
    if not batch:
        service_layers(
            workload, seed, seconds * 0.3, base_dir, cache_dir, tracer, measured
        )

    queries = workload.queries()
    with workload.processor(base_dir, cache_dir) as processor:
        projections = class_rounds(
            workload, queries, processor, base_dir,
            seconds * (0.7 if batch else 0.4), tracer, measured,
        )
    sample_probe(base_dir, metrics)
    measured.detail["scan_ms_by_projection"] = scan_probes(
        base_dir, run_dir, projections, metrics
    )

    if workload.backend == "process" and usable_cores() > 1:
        metrics["hyracks.speedup_vs_sequential"] = (
            _sequential_round_ms(base_dir, queries)
            / measured.detail["round_ms"]["untraced"],
            PROBE_REPEATS,
        )
    # traced times are as the clock read them; this is the factor that
    # would scale them like the end-to-end ones
    metrics["bench.host_speed"] = (
        calibrate.speed(first_probe, calibrate.probe()), 2,
    )
    metrics["bench.datagen_s"] = (measured.detail["bench.datagen_s"], 1)
    metrics["bench.reference_s"] = (measured.detail["bench.reference_s"], 1)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
    return measured


def _sequential_round_ms(base_dir, queries) -> float:
    """Median round of the same queries on the sequential backend."""
    rounds = []
    with JsonProcessor.from_directory(
        base_dir, backend="sequential", scan_mode="ondemand", segment_cache_dir=""
    ) as processor:
        for _ in range(PROBE_REPEATS + 1):
            started = time.perf_counter()
            for query in queries:
                dumps(processor.execute(query.text).items)
            rounds.append((time.perf_counter() - started) * 1000.0)
    return median(rounds[1:])
