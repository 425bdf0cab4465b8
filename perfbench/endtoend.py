"""The untraced pass: the end-to-end metrics of one workload.

An op runs from query text in to serialized items out.  Set-up is
repeated and its median reported; the last instance set up is the one
the timed phase measures.  Answers are checked after the phase, so the
references' CPU and memory stay out of the measurement.  Times are
scaled by the host speed probed around them
(``perfbench/calibrate.py``): between rounds for the batch workloads,
from a background thread while the service loop runs.
``detail["unscaled"]`` keeps them as the clock read them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.jsonlib import dumps

from perfbench import calibrate, reference
from perfbench.client import ServeProcess, closed_loop, query_payload
from perfbench.hermetic import (
    OpTimeout,
    cpu_between,
    cpu_snapshot,
    directory_digest,
    op_timeout,
    peak_rss_mib,
)
from perfbench.spec import median, percentile
from perfbench.workloads import (
    OUTSTANDING,
    BatchWorkload,
    ServiceWorkload,
    write_collections,
)

#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Measured:
    """What one pass produced: ``metrics`` maps a catalog name to
    ``(value, sample count)``; ``detail`` is uncatalogued context."""

    data_digest: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def prepare_data(workload, seed: int, run_dir: str, tiny: bool):
    """Generate the workload's collections; returns ``(base_dir,
    Measured)`` with the generation time and data digest recorded."""
    base_dir = os.path.join(run_dir, "data")
    started = time.perf_counter()
    write_collections(base_dir, workload.collections, seed, tiny)
    datagen_s = time.perf_counter() - started
    measured = Measured(directory_digest(base_dir))
    measured.detail["bench.datagen_s"] = datagen_s
    return base_dir, measured


def check_answers(gate, base_dir: str, measured: Measured) -> None:
    """Run the references and count wrong ops as failed; a pass with
    two gates adds up."""
    started = time.perf_counter()
    wrong = gate.wrong_ops(reference.load_documents(base_dir))
    detail = measured.detail
    detail["bench.reference_s"] = (
        detail.get("bench.reference_s", 0.0) + time.perf_counter() - started
    )
    detail["wrong_answers"] = detail.get("wrong_answers", 0) + wrong
    measured.failed += wrong


def record_end_to_end(
    measured: Measured, setups, latencies, rates, cpu_seconds, host_speed
) -> None:
    """Turn a run's samples into the end-to-end metrics.

    *setups* (seconds) and *latencies* (ms) are ``(scaled, unscaled)``
    pairs; *rates* and *cpu_seconds* are already scaled.
    """
    setup_s, unscaled_setup_s = zip(*setups)
    scaled_ms, unscaled_ms = zip(*latencies)
    metrics = measured.metrics
    metrics["setup_s"] = (median(setup_s), len(setup_s))
    metrics["ops_per_s"] = (median(rates), len(rates))
    metrics["op_p50_ms"] = (median(scaled_ms), len(scaled_ms))
    metrics["op_p90_ms"] = (percentile(scaled_ms, 0.90), len(scaled_ms))
    metrics["cpu_ms_per_op"] = (
        cpu_seconds * 1000.0 / measured.attempted, measured.attempted,
    )
    metrics["peak_rss_mib"] = (peak_rss_mib(), 1)
    measured.detail["host_speed"] = host_speed
    measured.detail["unscaled"] = {
        "setup_s": median(unscaled_setup_s),
        "op_p50_ms": median(unscaled_ms),
        "op_p90_ms": percentile(unscaled_ms, 0.90),
    }


def run_end_to_end(workload, seed, seconds, run_dir, tiny=False) -> Measured:
    base_dir, measured = prepare_data(workload, seed, run_dir, tiny)
    if isinstance(workload, BatchWorkload):
        _run_batch(workload, seconds, run_dir, base_dir, measured)
    else:
        _run_service(workload, seed, seconds, run_dir, base_dir, measured)
    return measured


# -- batch --------------------------------------------------------------------


def timed_op(processor, query, gate) -> float | None:
    """One op; its latency in ms, or ``None`` when it errored.

    The answer is handed to *gate* after the clock stops.
    """
    started = time.perf_counter()
    try:
        result = processor.execute(query.text)
        serialized = dumps(result.items)
    except ReproError:
        return None
    elapsed = time.perf_counter() - started
    gate.record(query, serialized, result.items)
    return elapsed * 1000.0


def _run_batch(
    workload: BatchWorkload, seconds, run_dir, base_dir, measured: Measured
) -> None:
    queries = workload.queries()
    gate = reference.AnswerGate()
    setups = []
    processor = None
    for repeat in range(SETUP_REPEATS):
        if processor is not None:
            processor.close()
        before = calibrate.probe()
        started = time.perf_counter()
        processor = workload.processor(
            base_dir, os.path.join(run_dir, f"segments-{repeat}")
        )
        with op_timeout():
            for query in queries:
                timed_op(processor, query, gate)
        setup_s = time.perf_counter() - started
        setups.append(
            (setup_s * calibrate.speed(before, calibrate.probe()), setup_s)
        )

    latencies, round_rates = [], []
    cpu_seconds = 0.0
    probes = [calibrate.probe()]
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            round_ms = []
            cpu_before = cpu_snapshot()
            round_started = time.perf_counter()
            for query in queries:
                measured.attempted += 1
                with op_timeout():
                    elapsed = timed_op(processor, query, gate)
                if elapsed is None:
                    measured.failed += 1
                else:
                    round_ms.append(elapsed)
            round_seconds = time.perf_counter() - round_started
            round_cpu = cpu_between(cpu_before, cpu_snapshot())
            probes.append(calibrate.probe())
            speed = calibrate.speed(*probes[-2:])
            round_rates.append(len(queries) / (round_seconds * speed))
            cpu_seconds += round_cpu * speed
            latencies.extend((ms * speed, ms) for ms in round_ms)
    except OpTimeout:
        # The processor's state is unknown after an interrupted op: the
        # phase stops here and the op counts as failed.
        measured.failed += 1
    finally:
        processor.close()

    record_end_to_end(
        measured, setups, latencies, round_rates, cpu_seconds,
        calibrate.speed(*probes),
    )
    check_answers(gate, base_dir, measured)


# -- service ------------------------------------------------------------------


def start_server(workload: ServiceWorkload, base_dir, cache_dir, gate):
    """Spawn ``tools/serve.py`` and run the warm-up round, which fills
    the segment cache; returns ``(server, seconds it took)``."""
    started = time.perf_counter()
    server = ServeProcess(workload.serve_arguments(base_dir), cache_dir)
    try:
        for query in workload.queries():
            response = server.ask(query_payload("warmup", query))
            record_response(gate, query, response)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - started


def record_response(gate, query, response: dict) -> bool:
    """Hand a served answer to the gate; False when the server refused
    or failed the request."""
    if not response.get("ok"):
        return False
    items = response["items"]
    gate.record(query, json.dumps(items), items)
    return True


def service_telemetry(exchanges, server_stats: dict) -> dict:
    """The ``service.*`` layer metrics, from what the server itself says
    about each request and from its ``stats`` op."""
    answered = [e for e in exchanges if e.response and e.response.get("ok")]
    telemetry = [(e, e.response["telemetry"]) for e in answered]
    queue_ms = [t["queue_seconds"] * 1000.0 for _, t in telemetry]
    executed = [
        t["wall_seconds"] * 1000.0
        for _, t in telemetry
        if not t["result_cache_hit"]
    ]
    result_hits = [
        e.latency * 1000.0 for e, t in telemetry if t["result_cache_hit"]
    ]
    protocol = [
        (e.latency - t["queue_seconds"] - t["wall_seconds"]) * 1000.0
        for e, t in telemetry
    ]
    count = len(telemetry)
    metrics = {
        "service.queue_wait_p50_ms": (median(queue_ms), count),
        "service.queue_wait_p90_ms": (percentile(queue_ms, 0.90), count),
        "service.exec_p50_ms": (median(executed), len(executed)),
        "service.protocol_ms": (median(protocol), count),
        "service.plan_cache_hit_ratio": (
            sum(t["plan_cache_hit"] for _, t in telemetry) / count, count,
        ),
        "service.result_cache_hit_ratio": (len(result_hits) / count, count),
        "service.result_hit_p50_ms": (
            median(result_hits) if result_hits else None, len(result_hits),
        ),
        "service.rejected": (server_stats["rejected"], 1),
        "service.retried": (server_stats["retried"], 1),
        "service.slot_restarts": (len(server_stats["slot_restarts"]), 1),
    }
    for tenant in sorted({e.tenant for e in answered}):
        mine = [e.latency * 1000.0 for e in answered if e.tenant == tenant]
        metrics[f"service.tenant_p50_ms.{tenant}"] = (median(mine), len(mine))
        metrics[f"service.tenant_p90_ms.{tenant}"] = (
            percentile(mine, 0.90), len(mine),
        )
    return metrics


def _run_service(
    workload: ServiceWorkload, seed, seconds, run_dir, base_dir, measured
) -> None:
    gate = reference.AnswerGate()
    setups = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        started_at = time.perf_counter()
        with calibrate.Monitor() as monitor:
            server, setup_s = start_server(
                workload, base_dir, os.path.join(run_dir, f"segments-{repeat}"), gate
            )
        setups.append(
            (setup_s * monitor.speed(started_at, started_at + setup_s), setup_s)
        )

    with server:
        cpu_before = cpu_snapshot([server.pid])
        started_at = time.perf_counter()
        with calibrate.Monitor() as monitor:
            exchanges = closed_loop(
                server, workload.requests(seed), OUTSTANDING, seconds
            )
        ended_at = time.perf_counter()
        cpu_seconds = (
            cpu_between(cpu_before, cpu_snapshot([server.pid]))
            - monitor.cpu_seconds
        )
        if all(exchange.response for exchange in exchanges):
            server_stats = server.ask({"op": "stats"})["stats"]
        else:
            server_stats = None

    measured.attempted = len(exchanges)
    measured.failed = sum(
        not (e.response and record_response(gate, e.query, e.response))
        for e in exchanges
    )
    answered = [e for e in exchanges if e.latency is not None]
    # throughput per whole second in which the loop was kept full
    window_rates = []
    for second in range(max(int(seconds), 1)):
        window = (started_at + second, started_at + second + 1)
        completions = sum(
            window[0] <= e.completed_at < window[1] for e in answered
        )
        window_rates.append(completions / monitor.speed(*window))
    overall_speed = monitor.speed(started_at, ended_at)
    latencies = [
        (
            e.latency * 1000.0 * monitor.speed(e.sent_at, e.completed_at),
            e.latency * 1000.0,
        )
        for e in answered
    ]
    record_end_to_end(
        measured, setups, latencies, window_rates,
        cpu_seconds * overall_speed, overall_speed,
    )
    if server_stats is not None:
        measured.detail["service"] = {
            name: value
            for name, (value, _) in service_telemetry(
                exchanges, server_stats
            ).items()
        }
    check_answers(gate, base_dir, measured)
