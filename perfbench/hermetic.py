"""Keeping a run inside its own directory, time limit and accounts."""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import resource
import shutil
import signal
import tempfile
import time

from perfbench.spec import ROOT

OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: An op that runs longer than this is counted as failed.
OP_TIMEOUT_SECONDS = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def scrub_environment() -> None:
    """Drop every ``REPRO_*`` variable: the workload's configuration is
    the arguments the benchmark passes, nothing inherited."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


@contextlib.contextmanager
def run_directory():
    """A fresh directory under ``perfbench/out`` holding data, caches and
    every temp file the product makes; removed on every exit path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    saved_env, saved_default = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    try:
        yield path
    finally:
        tempfile.tempdir = saved_default
        if saved_env is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)


class OpTimeout(Exception):
    """An op outlived :data:`OP_TIMEOUT_SECONDS`."""


@contextlib.contextmanager
def op_timeout(seconds: float = OP_TIMEOUT_SECONDS):
    """Raise :class:`OpTimeout` in the main thread after *seconds*.

    An interval timer, not a thread: the process backend forks, and a
    fork from a multi-threaded parent is unsafe.
    """

    def fire(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _process_cpu_seconds(pid: int) -> float:
    """User plus system CPU of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_snapshot(extra_pids=()) -> dict[int, float]:
    """CPU seconds so far of this process, its live multiprocessing
    children (pool workers) and *extra_pids* (the ``serve.py`` child).

    ``RUSAGE_CHILDREN`` only counts children already reaped, so live
    ones are read from ``/proc``.
    """
    snapshot = {0: time.process_time()}
    pids = [child.pid for child in multiprocessing.active_children()]
    for pid in [*pids, *extra_pids]:
        snapshot[pid] = _process_cpu_seconds(pid)
    return snapshot


def cpu_between(before: dict[int, float], after: dict[int, float]) -> float:
    return sum(
        seconds - before.get(pid, 0.0) for pid, seconds in after.items()
    )


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def directory_digest(base_dir: str) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for folder, folders, files in os.walk(base_dir):
        folders.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, base_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def directory_bytes(base_dir: str) -> tuple[int, int]:
    """(file count, total size) of everything under *base_dir*."""
    count = size = 0
    for folder, _, files in os.walk(base_dir):
        for name in files:
            count += 1
            size += os.path.getsize(os.path.join(folder, name))
    return count, size
