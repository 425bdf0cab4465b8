"""Host-speed calibration for the end-to-end times.

The hosts this benchmark runs on are small shared VMs whose effective
speed moves by tens of percent for tens of seconds at a time: more than
any bound in ``BENCHMARK.json``, and longer than a run, so no statistic
inside one run removes it.  A fixed pure-Python loop, timed several
times a second, follows that drift.  End-to-end times are scaled by
``speed = REFERENCE_SECONDS / loop time`` of the probes around them and
so read as on the reference host in a quiet phase; the unscaled values
go to the envelope's detail.  Measured on this host, spread between
runs, unscaled against scaled: 31% against 2.5% for 16 s of raw_scan
rounds, 15-20% against 4-6% for 20 s of the service_mix loop.  Probes
must be dense: one every 2 s left the service_mix spread at 11-14%.

The loop touches nothing of the program under test, so no change to the
program can move it.
"""

from __future__ import annotations

import bisect
import json
import threading
import time

#: What the loop takes on the reference host (2 cores, Python 3.11) in a
#: quiet phase.  Only ratios between commits matter; changing this
#: constant or the loop rescales every end-to-end time and invalidates
#: baselines.
REFERENCE_SECONDS = 0.018

_TEXT = json.dumps(
    [
        {
            "date": "20031225T00:00",
            "dataType": "TMIN",
            "station": f"GSW{number:06d}",
            "value": number / 10,
        }
        for number in range(300)
    ]
)


def probe() -> float:
    """Seconds one pass of the calibration loop takes right now.

    A character scan that tracks nesting, then building and filtering
    small dicts: the kind of interpreter work the program's scanner and
    operators do, in a few hundred KiB of memory.  Of the loops tried,
    this one followed the workloads' drift best.
    """
    started = time.perf_counter()
    for _ in range(8):
        depth = 0
        quotes: dict[int, int] = {}
        for char in _TEXT:
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
            elif char == '"':
                quotes[depth] = quotes.get(depth, 0) + 1
        items = [{"k": number, "v": str(number)} for number in range(3000)]
        sum(len(item["v"]) for item in items if item["k"] % 3)
    return time.perf_counter() - started


def speed(*probe_seconds: float) -> float:
    """Host speed relative to the reference (below 1 = slower), from
    the probes around a stretch of work."""
    return REFERENCE_SECONDS * len(probe_seconds) / sum(probe_seconds)


class Monitor:
    """Probes the host speed from a background thread while the main
    thread waits on a server: ``with Monitor() as monitor: ...``.

    Only for a process that does little Python work of its own
    meanwhile (a probe holds the interpreter lock) and does not fork;
    the batch workloads probe inline between rounds instead.  Read the
    results after the ``with`` block, when the thread has ended.
    """

    def __init__(self, interval_seconds: float = 0.2):
        self._interval = interval_seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed")
        self._started_at: list[float] = []
        self._seconds: list[float] = []
        #: CPU the probes used, to take off the process's account
        self.cpu_seconds = 0.0

    def _run(self) -> None:
        while not self._stop.is_set():
            self._started_at.append(time.perf_counter())
            self._seconds.append(probe())
            self._stop.wait(self._interval)
        self.cpu_seconds = time.thread_time()

    def __enter__(self) -> "Monitor":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, started_at: float, ended_at: float) -> float:
        """Host speed over a stretch of ``time.perf_counter`` time: from
        the probes inside it and the one on either side."""
        first = max(bisect.bisect_left(self._started_at, started_at) - 1, 0)
        last = bisect.bisect_right(self._started_at, ended_at) + 1
        return speed(*self._seconds[first:last])
