"""Shared fixtures for the query-service suite.

CI runs a ``REPRO_PROFILE=counter`` leg, but profiled requests bypass
the result cache (a cached response cannot carry a fresh execution
profile), which would flip this suite's cache-hit assertions.  The
autouse fixture pins the variable to the *explicitly off* value —
exactly the set-but-empty semantics :mod:`repro.envutil` documents.
"""

import json
import threading

import pytest

from repro.data.catalog import InMemorySource


@pytest.fixture(autouse=True)
def _profiling_off(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "")


def make_rows(count: int, offset: int = 0):
    return [
        {
            "date": f"d{(offset + i) % 7}",
            "dataType": "TMIN" if i % 2 == 0 else "TMAX",
            "station": f"S{i % 5}",
            "value": (offset + i * 13) % 101,
        }
        for i in range(count)
    ]


def make_source(records_per_partition: int = 60, partitions: int = 2):
    texts = [
        json.dumps(
            {"root": [{"results": make_rows(records_per_partition, p * 1000)}]}
        )
        for p in range(partitions)
    ]
    return InMemorySource(collections={"/s": [[t] for t in texts]})


class GatedSource(InMemorySource):
    """An InMemorySource whose scans block until :meth:`release`.

    Lets tests hold a query *running* deterministically: the worker
    thread parks inside the scan until the test releases the gate, so
    queue/cancel/quota behaviour can be asserted without sleeps.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._gate = threading.Event()
        self._entered = threading.Event()

    def release(self):
        self._gate.set()

    def wait_entered(self, timeout: float = 10.0):
        assert self._entered.wait(timeout), "no scan reached the gate"

    def _units(self, name, partition):
        self._entered.set()
        assert self._gate.wait(30.0), "test never released the gate"
        return super()._units(name, partition)


def close_within(service, seconds: float = 10.0) -> bool:
    """Close *service* on a helper thread; False if close() is still
    blocked after *seconds* (a request stranded in flight)."""
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


GROUP_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") return count($r("station"))'
)
COUNT_QUERY = (
    'count(for $r in collection("/s")("root")()("results")() return $r)'
)
FILTER_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'where $r("dataType") eq "TMIN" return $r("value")'
)
