"""Worker-loss recovery: crash rescheduling, the degradation ladder,
slow workers waited for, and error plumbing."""

import json
import os
import pickle
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BackendError,
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    ProcessBackend,
    RecoveryExhaustedError,
    RecoveryPolicy,
    ResilienceConfig,
    WorkerCrashError,
)
from repro.hyracks.recovery import cut_runs

BACKEND_NAMES = ["sequential", "process"]

QUERY = 'for $r in collection("/events") return $r("v")'
GROUP_QUERY = (
    'for $r in collection("/events") '
    'group by $g := $r("g") return count($r("v"))'
)

PARTITIONS = 4


def make_source(partitions=PARTITIONS, per_partition=6):
    collections = {
        "/events": [
            [
                "\n".join(
                    json.dumps({"v": p * 100 + i, "g": i % 3})
                    for i in range(per_partition)
                )
            ]
            for p in range(partitions)
        ]
    }
    return InMemorySource(collections)


def run_backend(backend, query=QUERY, plan=None, config=None, **kwargs):
    processor = JsonProcessor(
        source=make_source(),
        fault_plan=plan,
        resilience=config,
        backend=backend,
        **kwargs,
    )
    with processor:
        return processor.execute(query)


class TestCrashRecovery:
    @pytest.mark.parametrize("query", [QUERY, GROUP_QUERY])
    def test_kill_recovers_byte_identical_across_backends(self, query):
        """The acceptance scenario: >= 4 partitions, a worker killed
        mid-partition, result byte-identical to an undisturbed
        sequential run, recovery on the report — every backend."""
        baseline = run_backend("sequential", query)
        for name in BACKEND_NAMES:
            plan = FaultPlan().kill_worker(1, attempt=1)
            result = run_backend(name, query, plan=plan)
            assert result.items == baseline.items
            assert result.strategy == baseline.strategy
            assert result.stats.worker_crashes == 1
            report = result.degradation
            assert [
                (loss.partition, loss.attempt) for loss in report.worker_losses
            ] == [(1, 1)]
            assert report.is_degraded and not report.is_partial
            assert any("died" in line for line in report.warnings)

    def test_crash_reports_identical_across_backends(self):
        """The WorkerLossEvent is backend-neutral, so the whole
        serialized report matches across backends (max_workers=1 keeps
        pooled crash batches deterministic)."""
        dicts = {}
        for name in BACKEND_NAMES:
            plan = FaultPlan().kill_worker(2, attempt=1)
            result = run_backend(name, plan=plan, max_workers=1)
            dicts[name] = result.degradation.to_dict()
        assert dicts["process"] == dicts["sequential"]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_kill_twice_then_succeed(self, name):
        plan = FaultPlan().kill_worker(1, attempt=1).kill_worker(1, attempt=2)
        baseline = run_backend("sequential")
        result = run_backend(name, plan=plan, max_workers=1)
        assert result.items == baseline.items
        assert [
            (loss.partition, loss.attempt)
            for loss in result.degradation.worker_losses
        ] == [(1, 1), (1, 2)]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_deterministic_crasher_exhausts_instead_of_looping(self, name):
        plan = (
            FaultPlan()
            .kill_worker(2, attempt=1)
            .kill_worker(2, attempt=2)
            .kill_worker(2, attempt=3)
        )
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            run_backend(name, plan=plan, max_workers=1)
        error = excinfo.value
        assert error.partitions == (2,)
        assert error.attempts == (3,)
        assert error.backend == name
        assert "recovery exhausted" in str(error)

    def test_exhausted_error_survives_pickle(self):
        plan = (
            FaultPlan()
            .kill_worker(2, attempt=1)
            .kill_worker(2, attempt=2)
            .kill_worker(2, attempt=3)
        )
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            run_backend("sequential", plan=plan)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.partitions == (2,)
        assert clone.attempts == (3,)
        assert clone.backend == "sequential"
        assert str(clone) == str(excinfo.value)
        assert isinstance(clone.__cause__, WorkerCrashError)
        assert clone.__cause__.partition == 2

    def test_exhausted_recovery_leaves_no_broken_pool_behind(self):
        """A backend outlives its queries (a processor across executes,
        a service slot): the query after an exhausted one must start on
        a fresh pool, not inherit the dead one and report its loss."""
        plan = (
            FaultPlan()
            .kill_worker(2, attempt=1)
            .kill_worker(2, attempt=2)
            .kill_worker(2, attempt=3)
        )
        backend = ProcessBackend(max_workers=1)
        try:
            doomed = JsonProcessor(
                source=make_source(), fault_plan=plan, backend=backend
            )
            with pytest.raises(RecoveryExhaustedError):
                doomed.execute(QUERY)
            assert backend._pool is None
            result = JsonProcessor(
                source=make_source(), backend=backend
            ).execute(QUERY)
        finally:
            backend.close()
        assert result.items == run_backend("sequential").items
        assert result.degradation.worker_losses == []
        assert not result.degradation.is_degraded
        assert result.stats.worker_crashes == 0
        assert result.stats.pool_rebuilds == 0


JOIN_QUERY = (
    'for $a in collection("/events") for $b in collection("/events") '
    'where $a("v") eq $b("v") return $b("g")'
)


class CountingSource:
    """Logs one file per scan of a partition, so a test can see how often
    each unit really ran (workers share nothing else with the test)."""

    def __init__(self, inner, log_dir: str):
        self.inner = inner
        self.log_dir = log_dir

    def partition_count(self, name):
        return self.inner.partition_count(name)

    def scan_collection(self, name, path, partition=None, report=None):
        fd, _ = tempfile.mkstemp(prefix=f"scan-{partition}-", dir=self.log_dir)
        os.close(fd)
        return self.inner.scan_collection(name, path, partition, report=report)

    def scans(self) -> dict:
        counts: dict = {}
        for name in os.listdir(self.log_dir):
            partition = int(name.split("-")[1])
            counts[partition] = counts.get(partition, 0) + 1
        return counts


def accounting(result):
    stats = result.stats
    return (
        stats.items_scanned,
        stats.scanned_item_bytes,
        stats.exchange_tuples,
        stats.exchange_bytes,
    )


def losses(result):
    return [
        (loss.partition, loss.attempt)
        for loss in result.degradation.worker_losses
    ]


class TestRunGranularity:
    """The process backend hands each worker one run of units; the
    recovery contract stays per unit."""

    @given(n=st.integers(1, 40), workers=st.integers(1, 8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cut_keeps_every_unit_once_in_order(self, n, workers):
        runs = cut_runs(list(range(n)), workers)
        assert [unit for run in runs for unit in run] == list(range(n))
        assert len(runs) == min(n, workers)
        lengths = [len(run) for run in runs]
        assert max(lengths) - min(lengths) <= 1

    @pytest.mark.parametrize("query", [QUERY, JOIN_QUERY])
    def test_units_finished_inside_a_lost_run_are_counted_once(
        self, query, tmp_path
    ):
        """One run of four, killed at its third unit: the first two had
        finished inside the worker, run again (their offsets unchanged),
        and the answer and the accounting are sequential's.  (A join
        maps twice, and the kill fires in each phase on every backend.)"""
        baseline = run_backend(
            "sequential", query, plan=FaultPlan().kill_worker(2, attempt=1)
        )
        source = CountingSource(make_source(), str(tmp_path))
        processor = JsonProcessor(
            source=FaultPlan().kill_worker(2, attempt=1).wrap(source),
            backend="process",
            max_workers=1,
        )
        with processor:
            result = processor.execute(query)
        assert result.items == baseline.items
        assert losses(result) == losses(baseline)
        assert losses(result)[0] == (2, 1)
        assert accounting(result) == accounting(baseline)
        assert result.stats.pool_rebuilds == len(losses(result))
        scans = source.scans()
        # the killed unit never reached its scan on attempt 1
        assert scans[0] == scans[1] == 2 * scans[2] == 2 * scans[3]

    def test_two_kills_in_one_run_fire_once_each_in_partition_order(self):
        plan = FaultPlan().kill_worker(3, attempt=1).kill_worker(0, attempt=1)
        baseline = run_backend("sequential")
        result = run_backend("process", plan=plan, max_workers=1)
        assert result.items == baseline.items
        assert losses(result) == [(0, 1), (3, 1)]
        assert accounting(result) == accounting(baseline)
        assert result.degradation.ladder_steps == []

    def test_a_stalled_unit_runs_once(self, tmp_path):
        """Runs [0, 1] and [2, 3]; partition 3 stalls for a second and a
        half.  No worker died, so the stall is waited for: every unit's
        work runs exactly once, and the answer is sequential's."""
        source = CountingSource(make_source(), str(tmp_path))
        processor = JsonProcessor(
            source=FaultPlan().stall_partition(3, seconds=1.5).wrap(source),
            backend="process",
            max_workers=2,
        )
        with processor:
            result = processor.execute(QUERY)
        assert result.items == run_backend("sequential").items
        assert source.scans() == {partition: 1 for partition in range(PARTITIONS)}
        assert result.stats.worker_crashes == result.stats.pool_rebuilds == 0
        assert not result.degradation.is_degraded


class TestDegradationLadder:
    @pytest.mark.parametrize(
        "kills",
        [
            # two pool losses step down; partition 2's first-attempt kill
            # then fires on the sequential tier
            [(0, 1), (1, 1), (2, 1)],
            # partition 1 is pending with one crash at the step-down: its
            # attempt offset is carried, so the kill scheduled for its
            # attempt 2 fires on the sequential tier, once
            [(0, 1), (1, 1), (1, 2)],
        ],
        ids=["process-first-attempts", "process-carried-offset"],
    )
    def test_repeated_loss_steps_down_the_ladder(self, kills):
        plan = FaultPlan()
        for partition, attempt in kills:
            plan.kill_worker(partition, attempt=attempt)
        config = ResilienceConfig(
            recovery=RecoveryPolicy(max_losses_per_tier=1)
        )
        baseline = run_backend("sequential")
        result = run_backend(
            "process", plan=plan, config=config, max_workers=1
        )
        assert result.items == baseline.items
        report = result.degradation
        assert [
            (loss.partition, loss.attempt) for loss in report.worker_losses
        ] == kills
        assert [
            (step.from_backend, step.to_backend)
            for step in report.ladder_steps
        ] == [("process", "sequential")]
        assert result.stats.ladder_steps == 1
        assert any("degraded backend" in line for line in report.warnings)

    def test_sequential_has_no_ladder(self):
        plan = FaultPlan().kill_worker(0, attempt=1).kill_worker(1, attempt=1)
        config = ResilienceConfig(
            recovery=RecoveryPolicy(max_losses_per_tier=0)
        )
        result = run_backend("sequential", plan=plan, config=config)
        assert result.degradation.ladder_steps == []
        assert len(result.degradation.worker_losses) == 2


class TestErrorPlumbing:
    def test_backend_error_carries_partitions_and_cause_through_pickle(self):
        cause = ValueError("pool fell over")
        error = BackendError(
            "process pool broke", partitions=(1, 3), attempts=(2, 1),
            cause=cause,
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.partitions == (1, 3)
        assert clone.attempts == (2, 1)
        assert str(clone) == str(error)
        assert isinstance(clone.__cause__, ValueError)
        assert str(clone.__cause__) == "pool fell over"

    def test_worker_crash_error_round_trip(self):
        error = WorkerCrashError(3, 2, "injected")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.partition == 3
        assert clone.attempt == 2
        assert clone.retryable is False
        assert "partition 3" in str(clone)


class BuggyWrapper:
    """A source wrapper with a bug: scanning partition 0 raises an error
    that is neither ``ReproError`` nor ``OSError``, so it escapes the
    work unit.  Every other partition logs when its (slow) scan starts
    and finishes; partition 0 waits for one of them to be in flight."""

    def __init__(self, inner, log_dir: str):
        self.inner = inner
        self.log_dir = log_dir

    def partition_count(self, name):
        return self.inner.partition_count(name)

    def _log(self, event: str, partition: int) -> None:
        open(os.path.join(self.log_dir, f"{event}-{partition}"), "w").close()

    def logged(self, event: str) -> set:
        """The partitions that logged *event*."""
        return {
            int(name.split("-")[1])
            for name in os.listdir(self.log_dir)
            if name.startswith(event)
        }

    def scan_collection(self, name, path, partition=None, report=None):
        if partition == 0:
            give_up = time.monotonic() + 10.0
            while not self.logged("started") and time.monotonic() < give_up:
                time.sleep(0.005)
            raise ValueError("bug in the source wrapper")
        self._log("started", partition)
        time.sleep(0.2)
        items = list(
            self.inner.scan_collection(name, path, partition, report=report)
        )
        self._log("finished", partition)
        return iter(items)


class TestLegacyPathDrain:
    def test_abandoned_generator_leaves_pool_reusable(self):
        """An error escaping one unit abandons the others mid-flight: the
        engine must cancel what never started and wait out what did, so
        no orphan runs on under a query that has already failed (and
        whose spill scope is gone) or ahead of the next query's units."""
        baseline = run_backend("sequential").items
        backend = ProcessBackend(max_workers=2)
        try:
            with tempfile.TemporaryDirectory() as log_dir:
                source = BuggyWrapper(make_source(), log_dir)
                with pytest.raises(ValueError, match="bug in the source"):
                    JsonProcessor(source=source, backend=backend).execute(QUERY)
                started = source.logged("started")
                finished = source.logged("finished")
            assert started  # the error surfaced with a unit in flight
            assert finished == started
            result = JsonProcessor(
                source=make_source(), backend=backend
            ).execute(QUERY)
            assert result.items == baseline
        finally:
            backend.close()
