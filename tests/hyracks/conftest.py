"""Fixtures shared by the join tests."""

import os

import pytest

import repro.hyracks.operators as physical
from repro.hyracks.backends import ExchangeWork, JoinBucketWork


@pytest.fixture
def keying(monkeypatch, tmp_path):
    """Log what a join keys and sizes, tuple by tuple: ``join_key`` calls,
    rows through the column kernel (``frame_keys``, with the row count),
    ``canonical_atomic`` and ``sizeof_tuple`` calls in the operators
    module, each with the join phase it ran in ("1" the exchange, "2" a
    bucket's join, "-" neither) and whether that was this process.

    Patched before a pool forks, so workers log too.
    """
    log = tmp_path / "keying.log"
    phase = ["-"]

    def note(event, amount=1):
        with open(log, "a") as handle:
            handle.write(f"{event} {amount} {phase[0]} {os.getpid()}\n")

    def counted(name, amount=lambda *args: 1):
        real = getattr(physical, name)

        def spy(*args, **kwargs):
            note(name.strip("_"), amount(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(physical, name, spy)

    counted("join_key")
    counted("canonical_atomic")
    counted("sizeof_tuple")
    counted("_frame_keys", lambda frame, columns: len(frame[None]))

    for work, name in ((ExchangeWork, "1"), (JoinBucketWork, "2")):
        def call(self, ctx, real=work.__call__, name=name):
            phase[0] = name
            try:
                return real(self, ctx)
            finally:
                phase[0] = "-"

        monkeypatch.setattr(work, "__call__", call)

    return KeyingLog(log)


class KeyingLog:
    def __init__(self, path):
        self.path = path

    def take(self) -> list:
        """The events so far, cleared: (event, amount, phase, in this
        process)."""
        lines = self.path.read_text().split("\n")[:-1] if self.path.exists() else []
        self.path.write_text("")
        return [
            (event, int(amount), where, int(pid) == os.getpid())
            for event, amount, where, pid in map(str.split, lines)
        ]

    @staticmethod
    def keyed(events, phase=None) -> int:
        """Tuples keyed in *events*: one per ``join_key`` call and one per
        row through the column kernel (which calls ``join_key`` for none)."""
        return sum(
            amount
            for event, amount, where, _ in events
            if event in ("join_key", "frame_keys") and phase in (None, where)
        )
