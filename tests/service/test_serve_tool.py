"""``tools/serve.py`` driven in process through ``main()``.

The server starts one waiter thread per admitted query.  A long-lived
server must hold those threads only while their requests are in flight;
this drives a few hundred queries through the protocol loop and counts
the ``Thread`` objects the server still references.
"""

import gc
import importlib.util
import json
import pathlib
import threading
import types
import weakref

import pytest

SERVE_PATH = pathlib.Path(__file__).resolve().parents[2] / "tools" / "serve.py"


@pytest.fixture
def serve():
    spec = importlib.util.spec_from_file_location("repro_tools_serve", SERVE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ClosedLoop:
    """stdin and stdout of the server at once: hands out the next request
    line only while fewer than *window* requests are unanswered."""

    def __init__(self, requests, window, before_each):
        self._requests = iter(requests)
        self._window = window
        self._before_each = before_each
        self._changed = threading.Condition()
        self._outstanding = 0
        self.responses = []

    # -- stdin ---------------------------------------------------------------
    def __iter__(self):
        return self

    def __next__(self):
        with self._changed:
            assert self._changed.wait_for(
                lambda: self._outstanding < self._window, timeout=60
            ), "the server stopped answering"
            self._outstanding += 1
        self._before_each()
        return next(self._requests)  # StopIteration reads as EOF

    # -- stdout --------------------------------------------------------------
    def write(self, text):
        for line in text.splitlines():
            self.responses.append(json.loads(line))
            with self._changed:
                self._outstanding -= 1
                self._changed.notify_all()

    def flush(self):
        pass


@pytest.mark.parametrize("window", [1, 4])
def test_finished_waiters_are_not_retained(serve, tmp_path, monkeypatch, window):
    partition = tmp_path / "events" / "partition0"
    partition.mkdir(parents=True)
    (partition / "data.json").write_text('{"v": 1}\n{"v": 2}\n')
    total = 300

    created = []  # weak references to every waiter thread ever started

    class TrackedThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(weakref.ref(self))

    # Only the server module sees the tracked class; the service's own
    # slot threads are not waiters.
    monkeypatch.setattr(
        serve,
        "threading",
        types.SimpleNamespace(Thread=TrackedThread, Lock=threading.Lock),
    )

    retained = []

    def sample():
        if len(created) % 25 == 0:
            gc.collect()
            retained.append(sum(ref() is not None for ref in created))

    requests = [
        json.dumps(
            {
                "op": "query",
                "id": number,
                "tenant": f"t{number % 3}",
                "query": 'for $r in collection("/events") return $r("v")',
            }
        )
        + "\n"
        for number in range(total)
    ]
    loop = ClosedLoop(requests, window, sample)
    monkeypatch.setattr(serve.sys, "stdin", loop)
    monkeypatch.setattr(serve.sys, "stdout", loop)

    assert serve.main(["--data", str(tmp_path), "--backend", "sequential"]) == 0

    assert len(loop.responses) == total
    assert all(r["ok"] and r["items"] == [1, 2] for r in loop.responses)
    assert sorted(r["id"] for r in loop.responses) == list(range(total))
    assert len(created) == total
    # Referenced threads stay within the requests in flight, however
    # many were served before.  The slack is for waiters that have
    # answered but not yet exited when the next request arrives (seen:
    # up to `window` of them); without the pruning this reads `total`.
    assert len(retained) >= total // 25
    assert max(retained) <= window + 16, retained
