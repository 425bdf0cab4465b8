#!/usr/bin/env python
"""JSON-lines front end for the long-lived query service.

Reads one JSON request per line on stdin, writes one JSON response per
line on stdout (responses are written as queries *complete*, so they
can interleave across tenants — match them up by ``id``).  Protocol::

    {"op": "query", "id": 1, "tenant": "alice", "query": "1 + 1",
     "profile": "counter", "memory_budget_bytes": 1048576,
     "deadline_seconds": 5.0}
    {"op": "stats", "id": 2}
    {"op": "shutdown"}

Responses::

    {"id": 1, "ok": true, "items": [2], "telemetry": {...}}
    {"id": 3, "ok": false, "error": "AdmissionError", "reason":
     "tenant-quota", "message": "..."}

An admission rejection answers immediately (the query never queues);
other failures answer when the query unwinds.  EOF on stdin behaves
like ``shutdown``: the queue drains, then the process exits.

``SIGTERM`` and ``SIGINT`` shut down gracefully: the server stops
accepting new requests, drains in-flight queries for up to
``--drain-timeout`` seconds (cancelling whatever remains), and emits a
final structured shutdown line before exiting::

    {"id": null, "ok": true, "shutdown": true, "signal": "SIGTERM",
     "drained": true}

Usage::

    PYTHONPATH=src python tools/serve.py --data /path/to/collections \
        [--backend process] [--max-concurrent 4] [--result-cache 64] \
        [--max-running 2] [--max-queued 8] [--drain-timeout 30]
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro import AdmissionError, QueryService, TenantQuota
from repro.data.catalog import CollectionCatalog


def response_payload(response) -> dict:
    """The JSON-friendly telemetry subset of a ServiceResponse."""
    payload = {
        "id": response.request_id,
        "ok": True,
        "items": response.items,
        "telemetry": {
            "tenant": response.tenant,
            "backend": response.backend,
            "strategy": response.strategy,
            "wall_seconds": round(response.wall_seconds, 6),
            "queue_seconds": round(response.queue_seconds, 6),
            "plan_cache_hit": response.plan_cache_hit,
            "result_cache_hit": response.result_cache_hit,
            "is_partial": response.is_partial,
            "warnings": response.warnings,
        },
    }
    if response.deadline_slack_seconds is not None:
        payload["telemetry"]["deadline_slack_seconds"] = round(
            response.deadline_slack_seconds, 6
        )
    if response.degradation is not None:
        payload["telemetry"]["degradation"] = response.degradation.to_dict()
    if response.profile is not None:
        payload["telemetry"]["profile"] = response.profile.to_dict()
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="collection base dir")
    parser.add_argument("--backend", default=None)
    parser.add_argument("--max-concurrent", type=int, default=2)
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument("--plan-cache", type=int, default=128)
    parser.add_argument("--result-cache", type=int, default=0)
    parser.add_argument(
        "--max-running", type=int, default=2, help="per-tenant concurrency"
    )
    parser.add_argument(
        "--max-queued", type=int, default=8, help="per-tenant queue depth"
    )
    parser.add_argument("--memory-budget-bytes", type=int, default=None)
    parser.add_argument("--deadline-ceiling", type=float, default=None)
    parser.add_argument(
        "--on-malformed", default="fail",
        choices=("fail", "skip_record", "skip_file"),
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight queries on SIGTERM/SIGINT "
             "before cancelling them",
    )
    args = parser.parse_args(argv)

    service = QueryService(
        CollectionCatalog(args.data, on_malformed=args.on_malformed),
        backend=args.backend,
        max_concurrent_queries=args.max_concurrent,
        max_workers=args.max_workers,
        plan_cache_size=args.plan_cache,
        result_cache_size=args.result_cache,
        default_quota=TenantQuota(
            max_concurrent=args.max_running,
            max_queued=args.max_queued,
            memory_budget_bytes=args.memory_budget_bytes,
            deadline_ceiling_seconds=args.deadline_ceiling,
        ),
    )
    write_lock = threading.Lock()

    def emit(payload: dict) -> None:
        with write_lock:
            sys.stdout.write(json.dumps(payload) + "\n")
            sys.stdout.flush()

    def await_ticket(ticket, client_id) -> None:
        answer_id = client_id if client_id is not None else ticket.request_id
        try:
            payload = response_payload(ticket.result())
            payload["id"] = answer_id
            emit(payload)
        except Exception as error:  # noqa: BLE001 - protocol boundary
            payload = {
                "id": answer_id,
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }
            reason = getattr(error, "reason", None)
            if reason:
                payload["reason"] = reason
            emit(payload)

    # Graceful termination: the handler raises out of the (possibly
    # blocked-on-stdin) request loop — signal handlers run on the main
    # thread, so the raise lands exactly there — and the tail below
    # drains + emits the structured shutdown line.
    class _ShutdownSignal(Exception):
        def __init__(self, name: str):
            super().__init__(name)
            self.name = name

    def request_shutdown(signum, frame):
        raise _ShutdownSignal(signal.Signals(signum).name)

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, request_shutdown)
        except ValueError:
            pass  # not the main thread (embedded use); no handlers

    stop_signal = None
    waiters = []
    try:
        lines = iter(sys.stdin)
        while True:
            try:
                line = next(lines)
            except StopIteration:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                emit({"id": None, "ok": False, "error": "ProtocolError",
                      "message": f"bad JSON: {error}"})
                continue
            op = request.get("op", "query")
            request_id = request.get("id")
            if op == "shutdown":
                emit({"id": request_id, "ok": True, "shutdown": True})
                break
            if op == "stats":
                emit({"id": request_id, "ok": True, "stats": service.stats()})
                continue
            if op != "query" or "query" not in request:
                emit({"id": request_id, "ok": False, "error": "ProtocolError",
                      "message": f"unsupported request: {op!r}"})
                continue
            try:
                ticket = service.submit(
                    request["query"],
                    tenant=request.get("tenant", "default"),
                    profile=request.get("profile"),
                    memory_budget_bytes=request.get("memory_budget_bytes"),
                    deadline_seconds=request.get("deadline_seconds"),
                )
            except AdmissionError as error:
                emit({
                    "id": request_id,
                    "ok": False,
                    "error": "AdmissionError",
                    "reason": error.reason,
                    "tenant": error.tenant,
                    "message": str(error),
                })
                continue
            # Keep only the waiters of requests still in flight: a
            # long-lived server must not hold one dead Thread per query
            # ever served.  Shutdown joins whatever is left.
            waiters = [waiter for waiter in waiters if waiter.is_alive()]
            waiter = threading.Thread(
                target=await_ticket, args=(ticket, request_id)
            )
            waiter.start()
            waiters.append(waiter)
    except _ShutdownSignal as sig:
        stop_signal = sig.name
    if stop_signal is not None:
        # Signal-initiated: stop accepting, drain bounded, cancel the
        # rest, and tell the client exactly how the shutdown went.
        drained = service.drain(timeout=args.drain_timeout)
        service.close(cancel_pending=not drained)
        for waiter in waiters:
            waiter.join()
        emit({
            "id": None,
            "ok": True,
            "shutdown": True,
            "signal": stop_signal,
            "drained": drained,
        })
        return 0
    for waiter in waiters:
        waiter.join()
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
