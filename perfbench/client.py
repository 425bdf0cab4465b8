"""A ``tools/serve.py`` child process and the closed loop that loads it.

One thread, one stdin/stdout connection: the loop keeps a fixed number
of requests outstanding and each response line triggers the next
request, so a slower server receives less load.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass

from perfbench.hermetic import OP_TIMEOUT_SECONDS
from perfbench.spec import ROOT


class ServerGone(Exception):
    """The server closed its output or stayed silent past the watchdog."""


@dataclass
class Exchange:
    """One request and what came back for it."""

    tenant: str
    query: object
    sent_at: float
    completed_at: float | None = None
    response: dict | None = None

    @property
    def latency(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.sent_at


class ServeProcess:
    """``python tools/serve.py`` as a child, spoken to in JSON lines."""

    def __init__(self, arguments: list[str], segment_cache_dir: str):
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            REPRO_SEGMENT_CACHE=segment_cache_dir,
        )
        self._child = subprocess.Popen(
            [sys.executable, *arguments],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._buffer = b""
        self._next_id = 0

    @property
    def pid(self) -> int:
        return self._child.pid

    def send(self, payload: dict) -> int:
        self._next_id += 1
        payload = dict(payload, id=self._next_id)
        self._child.stdin.write(json.dumps(payload).encode() + b"\n")
        self._child.stdin.flush()
        return self._next_id

    def receive(self, timeout: float = OP_TIMEOUT_SECONDS) -> dict:
        """The next response line; :class:`ServerGone` after *timeout*."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            ready = left > 0 and select.select([self._child.stdout], [], [], left)[0]
            chunk = os.read(self._child.stdout.fileno(), 1 << 16) if ready else b""
            if not chunk:
                raise ServerGone("no response line from tools/serve.py")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def ask(self, payload: dict) -> dict:
        """Send one request and wait for its answer."""
        request_id = self.send(payload)
        response = self.receive()
        if response.get("id") != request_id:
            raise ServerGone(f"unexpected response {response!r}")
        return response

    def close(self) -> None:
        """Ask for shutdown, then make sure the child is gone and reaped."""
        try:
            if self._child.poll() is None:
                self._child.stdin.write(b'{"op": "shutdown"}\n')
                self._child.stdin.close()
                self._child.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self._child.poll() is None:
                self._child.kill()
            self._child.wait()
            self._child.stdout.close()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def query_payload(tenant: str, query) -> dict:
    return {"op": "query", "tenant": tenant, "query": query.text}


def closed_loop(
    server: ServeProcess,
    requests,
    outstanding: int,
    seconds: float,
) -> list[Exchange]:
    """Keep *outstanding* requests in flight for *seconds*, then drain.

    Returns every exchange in completion order; one the server never
    answered keeps ``completed_at = None``.
    """
    in_flight: dict[int, Exchange] = {}
    done: list[Exchange] = []

    def issue() -> None:
        tenant, query = next(requests)
        exchange = Exchange(tenant, query, time.perf_counter())
        in_flight[server.send(query_payload(tenant, query))] = exchange

    deadline = time.perf_counter() + seconds
    for _ in range(outstanding):
        issue()
    while in_flight:
        try:
            response = server.receive()
        except ServerGone:
            done.extend(in_flight.values())
            break
        now = time.perf_counter()
        exchange = in_flight.pop(response["id"])
        exchange.completed_at = now
        exchange.response = response
        done.append(exchange)
        if now < deadline:
            issue()
    return done
