"""Execution backends: parity, picklability, and distribution."""

import json
import os
import pickle

import pytest

from repro import (
    FaultPlan,
    InMemorySource,
    JsonProcessor,
    ProcessBackend,
    ResilienceConfig,
    RetryPolicy,
    SequentialBackend,
)
from repro.data.catalog import CollectionCatalog
from repro.errors import BackendError, PartitionExecutionError
from repro.hyracks.backends import (
    BACKENDS,
    Parcel,
    PipelinedWork,
    WorkUnit,
    execute_work_unit,
    resolve_backend,
)
from repro.hyracks.cluster import ClusterSpec
from repro.hyracks.executor import QueryResult
from repro.hyracks.spill import stable_bucket
from repro.resilience import TransientFaultError

BACKEND_NAMES = ["sequential", "process"]

QUERY = 'for $r in collection("/events") return $r("v")'
COUNT_QUERY = 'count(for $r in collection("/events") return $r)'
GROUP_QUERY = (
    'for $r in collection("/events") '
    'group by $g := $r("g") return count($r("v"))'
)
JOIN_QUERY = (
    "avg( "
    'for $a in collection("/events") '
    'for $b in collection("/events") '
    'where $a("g") eq $b("g") and $a("side") eq "l" and $b("side") eq "r" '
    'return $b("v") - $a("v") )'
)


def make_source(on_malformed="fail", partitions=4, per_partition=6):
    collections = {
        "/events": [
            [
                "\n".join(
                    json.dumps(
                        {
                            "v": p * 100 + i,
                            "g": i % 3,
                            "side": "l" if i % 2 else "r",
                        }
                    )
                    for i in range(per_partition)
                )
            ]
            for p in range(partitions)
        ]
    }
    return InMemorySource(collections, on_malformed=on_malformed)


def run_backend(backend, query=QUERY, plan=None, config=None, **kwargs):
    processor = JsonProcessor(
        source=make_source(**{k: kwargs.pop(k) for k in list(kwargs) if k == "on_malformed"}),
        fault_plan=plan,
        resilience=config,
        backend=backend,
        **kwargs,
    )
    with processor:
        return processor.execute(query)


def fingerprint(result: QueryResult) -> dict:
    """Everything that must be byte-identical across backends."""
    return {
        "items": result.items,
        "strategy": result.strategy,
        "injected": result.injected_seconds,
        "stats": (
            result.stats.items_scanned,
            result.stats.scanned_item_bytes,
            result.stats.exchange_tuples,
            result.stats.exchange_bytes,
        ),
        "degradation": result.degradation.to_dict(),
    }


class TestCleanParity:
    @pytest.mark.parametrize(
        "query", [QUERY, COUNT_QUERY, GROUP_QUERY, JOIN_QUERY]
    )
    def test_backends_agree_on_clean_runs(self, query):
        reference = fingerprint(run_backend("sequential", query))
        assert fingerprint(run_backend("process", query)) == reference

    def test_result_records_backend_and_parallel_wall(self):
        for name in BACKEND_NAMES:
            result = run_backend(name)
            assert result.backend == name
            assert result.parallel_wall_seconds > 0.0
            assert result.parallel_wall_seconds <= result.wall_seconds

    def test_max_workers_cap(self):
        result = run_backend("process", max_workers=1)
        assert result.items == run_backend("sequential").items

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_a_deeply_nested_item_crosses_the_pool(self, backend):
        # 600 levels parse on either backend; a worker's outcome holding
        # such an item is pickled with room for two levels per level
        deep = "[" * 600 + "]" * 600
        source = InMemorySource(
            {"/c": [['{"k": %s}\n{"k": 1}' % deep], ['{"k": 2}']]}
        )
        with JsonProcessor(source=source, backend=backend, max_workers=2) as processor:
            items = processor.execute('for $r in collection("/c") return $r("k")').items
            count = processor.execute('count(for $r in collection("/c") return $r)')
        assert items[1:] == [1, 2] and count.items == [3]
        depth, item = 0, items[0]
        while item:
            depth, (item,) = depth + 1, item
        assert depth == 599


class TestFaultParity:
    """Identical degradation under a fixed fault seed, every backend."""

    def scenario_retry(self):
        plan = FaultPlan(seed=7).fail_partition(1, times=2).delay_partition(3, 0.5)
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=3, seed=7),
        )
        return plan, config

    def scenario_skip_partition(self):
        plan = FaultPlan(seed=11).fail_partition(2, permanent=True)
        config = ResilienceConfig(partition_policy="skip_partition")
        return plan, config

    def scenario_retry_then_skip(self):
        plan = FaultPlan(seed=13).fail_partition(0, permanent=True)
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=4, seed=13),
            on_exhausted="skip",
        )
        return plan, config

    def scenario_corruption(self):
        plan = FaultPlan(seed=5).corrupt_records(1, fraction=0.5)
        config = ResilienceConfig(partition_policy="fail_fast")
        return plan, config

    def scenario_retries_and_worker_loss(self):
        # The parity gap satellite: retries on two partitions, a seeded
        # delay, and a worker kill in one run — the merged report
        # (retry ordering AND the backend-neutral worker-loss event)
        # must come out identical on every backend.
        plan = (
            FaultPlan(seed=17)
            .fail_partition(1, times=2)
            .fail_partition(3, times=1)
            .delay_partition(0, 0.25)
            .kill_worker(2, attempt=1)
        )
        config = ResilienceConfig(
            partition_policy="retry",
            retry=RetryPolicy(max_attempts=3, seed=17),
        )
        return plan, config

    @pytest.mark.parametrize(
        "scenario",
        [
            "retry",
            "skip_partition",
            "retry_then_skip",
            "corruption",
            "retries_and_worker_loss",
        ],
    )
    @pytest.mark.parametrize("query", [QUERY, GROUP_QUERY])
    def test_degradation_identical_across_backends(self, scenario, query):
        make_scenario = getattr(self, f"scenario_{scenario}")
        on_malformed = "skip_record" if scenario == "corruption" else "fail"
        results = {}
        for name in BACKEND_NAMES:
            plan, config = make_scenario()
            results[name] = fingerprint(
                run_backend(
                    name,
                    query,
                    plan=plan,
                    config=config,
                    on_malformed=on_malformed,
                )
            )
        assert results["process"] == results["sequential"]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_fail_fast_raises_first_partition_in_order(self, name):
        # Two failing partitions: the coordinator must surface the
        # lower-numbered one no matter which worker finishes first.
        plan = (
            FaultPlan(seed=3)
            .fail_partition(1, times=1)
            .fail_partition(3, times=1)
        )
        with pytest.raises(PartitionExecutionError) as excinfo:
            run_backend(name, plan=plan)
        error = excinfo.value
        assert error.partition == 1
        assert error.collections == ("/events",)
        assert isinstance(error.__cause__, TransientFaultError)


class TestPicklability:
    def test_work_unit_round_trip_with_catalog(self, tmp_path):
        collection = tmp_path / "events" / "partition0"
        collection.mkdir(parents=True)
        (collection / "data.json").write_text('{"v": 1}\n{"v": 2}')
        catalog = CollectionCatalog(str(tmp_path))
        processor = JsonProcessor(source=catalog)
        plan = processor.compile(QUERY).plan
        unit = WorkUnit(
            plan=plan,
            partition=0,
            work=PipelinedWork(plan),
            source=catalog,
            memory_budget=None,
            resilience=ResilienceConfig(),
        )
        clone = pickle.loads(pickle.dumps(unit))
        direct = execute_work_unit(unit)
        via_pickle = execute_work_unit(clone)
        assert direct.value == via_pickle.value == [1, 2]
        assert via_pickle.stats.items_scanned == direct.stats.items_scanned

    def test_partition_error_survives_pickle_with_cause(self):
        cause = TransientFaultError("injected")
        error = PartitionExecutionError(
            2, cause, collections=("/events",), attempts=3
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.partition == 2
        assert clone.attempts == 3
        assert str(clone) == str(error)
        assert isinstance(clone.__cause__, TransientFaultError)

    def test_unpicklable_source_gets_clear_backend_error(self):
        source = make_source()
        source.poison = lambda: None  # lambdas cannot pickle
        processor = JsonProcessor(source=source, backend="process")
        with processor, pytest.raises(
            BackendError, match="not\\s+picklable"
        ) as excinfo:
            processor.execute(QUERY)
        # the advice names only a backend that exists
        assert "backend='sequential'" in str(excinfo.value)
        assert "thread" not in str(excinfo.value)


class TestResolution:
    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None).name == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None).name == "sequential"

    def test_retired_thread_backend_is_an_unknown_name(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            resolve_backend("thread")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            JsonProcessor(source=make_source())
        assert list(BACKENDS) == ["sequential", "process"]

    def test_instance_passthrough_rejects_max_workers(self):
        backend = SequentialBackend()
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError, match="max_workers"):
            resolve_backend(ProcessBackend(), max_workers=2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_max_workers_rejected_at_resolution(self, count):
        # not at the first query, from inside ProcessPoolExecutor
        for backend in BACKEND_NAMES:
            with pytest.raises(ValueError, match="max_workers"):
                JsonProcessor(
                    source=make_source(), backend=backend, max_workers=count
                )

    @pytest.mark.parametrize("backend_class", [ProcessBackend])
    def test_default_workers_follow_the_cpu_affinity(self, backend_class, monkeypatch):
        import os

        # a process pinned to 3 cores of a 64-core machine gets 3 workers
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False
        )
        assert backend_class()._max_workers == 3
        assert backend_class(max_workers=2)._max_workers == 2
        # where the platform has no affinity, the machine's count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert backend_class()._max_workers == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert backend_class()._max_workers == 1

    def test_backend_instances_are_context_managers(self):
        with ProcessBackend(max_workers=1) as backend:
            assert backend.run_units([], []) is not None

    def test_stable_bucket_is_deterministic(self):
        assert stable_bucket(("a", 1), 4) == stable_bucket(("a", 1), 4)
        assert 0 <= stable_bucket(("x",), 3) < 3


class TestSimulatedSeconds:
    def test_sequential_smooths_jitter(self):
        cluster = ClusterSpec(nodes=1, cores_per_node=2)
        result = QueryResult(
            [], partition_seconds=[1.0, 3.0], backend="sequential"
        )
        smoothed = result.simulated_seconds(cluster)
        raw = result.simulated_seconds(cluster, smooth=False)
        # Smoothing places two mean-sized (2.0s) partitions on two
        # cores; raw placement is bounded by the 3.0s straggler.
        assert smoothed == pytest.approx(cluster.makespan([2.0, 2.0]))
        assert raw == pytest.approx(cluster.makespan([1.0, 3.0]))
        assert smoothed < raw

    @pytest.mark.parametrize("name", ["process"])
    def test_parallel_backends_never_smooth(self, name):
        cluster = ClusterSpec(nodes=1, cores_per_node=2)
        result = QueryResult([], partition_seconds=[1.0, 3.0], backend=name)
        # Measured contention is real skew, not jitter: smooth is ignored.
        assert result.simulated_seconds(cluster) == pytest.approx(
            cluster.makespan([1.0, 3.0])
        )
        assert result.simulated_seconds(cluster) == result.simulated_seconds(
            cluster, smooth=False
        )


class TestDistribution:
    """Deterministic evidence that the process backend spreads a query
    over its partitions.  How much faster that makes it is a wall-clock
    matter and is measured by ``hyracks.speedup_vs_sequential`` on the
    ``parallel`` workload of ``perfbench``, never asserted in tier-1."""

    def test_process_backend_distributes_q0(self, tmp_path):
        from repro.data.generator import SensorDataConfig, write_sensor_collection

        partitions = 4
        write_sensor_collection(
            str(tmp_path),
            "sensors",
            partitions=partitions,
            bytes_per_partition=64 << 10,
            config=SensorDataConfig(seed=42),
        )
        query = (
            'for $r in collection("/sensors")("root")()("results")() '
            'where $r("dataType") eq "TMIN" return $r("value")'
        )

        def run(backend):
            with JsonProcessor.from_directory(
                str(tmp_path), backend=backend
            ) as processor:
                return processor.execute(query)

        sequential = run("sequential")
        process = run("process")
        assert process.items == sequential.items
        assert process.backend == "process"
        assert len(process.partition_seconds) == partitions

        # One work unit per partition through the pool itself: every
        # partition comes back as its own outcome, in partition order,
        # with its own scan count and measured time.
        catalog = CollectionCatalog(str(tmp_path))
        plan = JsonProcessor(source=catalog).compile(query).plan
        units = [
            WorkUnit(
                plan=plan,
                partition=partition,
                work=PipelinedWork(plan),
                source=catalog,
                memory_budget=None,
                resilience=ResilienceConfig(),
            )
            for partition in range(partitions)
        ]
        with ProcessBackend(max_workers=2) as backend:
            outcomes = list(backend.run_units(units, []))
        assert [o.partition for o in outcomes] == list(range(partitions))
        for outcome in outcomes:
            assert outcome.error is None and not outcome.skipped
            assert outcome.stats.items_scanned > 0
            assert outcome.measured_seconds > 0.0
        assert (
            sum(o.stats.items_scanned for o in outcomes)
            == sequential.stats.items_scanned
        )
        assert [v for o in outcomes for v in o.value] == sequential.items


class Counted:
    """A value that counts how often it is pickled and unpickled."""

    reduced = 0
    restored = 0

    def __init__(self, payload):
        self.payload = payload

    def __reduce__(self):
        Counted.reduced += 1
        return _restore_counted, (self.payload,)


def _restore_counted(payload):
    Counted.restored += 1
    return Counted(payload)


class TestParcel:
    def setup_method(self):
        Counted.reduced = Counted.restored = 0

    def test_a_parcel_that_never_crosses_is_never_pickled(self):
        value = Counted([1, 2])
        assert Parcel(value).open() is value
        assert (Counted.reduced, Counted.restored) == (0, 0)

    def test_value_is_walked_once_out_and_once_in_across_two_crossings(self):
        first = pickle.dumps(Parcel(Counted([1, 2])))
        assert (Counted.reduced, Counted.restored) == (1, 0)
        sealed = pickle.loads(first)
        again = pickle.dumps(sealed)
        assert again == first  # the same bytes, copied
        arrived = pickle.loads(again)
        assert (Counted.reduced, Counted.restored) == (1, 0)
        assert arrived.open().payload == [1, 2]
        assert arrived.open() is arrived.open()
        assert (Counted.reduced, Counted.restored) == (1, 1)


def sensor_q2(tmp_path):
    """(source factory, query): the paper's Q2 over 4 x 32 KiB of sensors."""
    from repro.bench.queries import q2
    from repro.data.generator import SensorDataConfig, write_sensor_collection

    base = tmp_path / "data"
    write_sensor_collection(
        str(base),
        "sensors",
        partitions=4,
        bytes_per_partition=32 << 10,
        config=SensorDataConfig(seed=42),
    )
    return (lambda: CollectionCatalog(str(base))), q2("/sensors")


def join_profile(result) -> dict:
    (join,) = result.profile.find("JOIN")
    return {
        "frames_emitted": join.counters["frames_emitted"],
        "left_buckets": join.details["left_buckets"],
        "right_buckets": join.details["right_buckets"],
    }


class TestParcelsThroughTheExchange:
    """A join's buckets cross the coordinator sealed: workers pickle
    each parcel's rows once and open them once; the coordinator only
    ever copies bytes, profiled or not."""

    @pytest.fixture
    def spy(self, monkeypatch, tmp_path):
        """Log every Parcel.open and every object-walking pickle with
        the pid it ran in (pool workers fork after the patch)."""
        log = tmp_path / "parcel.log"
        real_open, real_reduce = Parcel.open, Parcel.__reduce__

        def note(event):
            with open(log, "a") as handle:
                handle.write(f"{event} {os.getpid()}\n")

        def spy_open(parcel):
            note("open")
            return real_open(parcel)

        def spy_reduce(parcel):
            note("walk" if parcel._sealed is None else "copy")
            return real_reduce(parcel)

        monkeypatch.setattr(Parcel, "open", spy_open)
        monkeypatch.setattr(Parcel, "__reduce__", spy_reduce)

        def events():
            lines = log.read_text().split("\n")[:-1] if log.exists() else []
            log.write_text("")
            return [
                (event, int(pid) == os.getpid())
                for event, pid in map(str.split, lines)
            ]

        return events

    @pytest.mark.parametrize("profile", [None, "counter"])
    def test_the_coordinator_opens_no_parcel(self, profile, spy, tmp_path):
        make, query = sensor_q2(tmp_path)
        partitions = 4

        def run(backend):
            with JsonProcessor(
                source=make(), backend=backend, max_workers=2
            ) as processor:
                return processor.execute(query, profile=profile)

        sequential = run("sequential")
        in_process = spy()
        assert in_process and {event for event, _ in in_process} == {"open"}
        process = run("process")
        events = spy()
        assert process.items == sequential.items
        assert fingerprint(process) == fingerprint(sequential)
        if profile is not None:
            assert join_profile(process) == join_profile(sequential)
        # Every open and every object walk happened in a worker ...
        assert [e for e in events if e[1]] and all(
            event == "copy" for event, here in events if here
        )
        # ... each parcel's rows were pickled once, by the phase-1 unit
        # that made them, and opened once, by the bucket that holds it:
        # one parcel per partition and bucket.
        assert len([e for e in events if e[0] == "walk"]) == partitions * partitions
        assert len([e for e in events if e[0] == "open"]) == partitions * partitions


# Keys that unify (2 and 2.0), that never do (true, "2"), null, and none.
HOLES_A = (
    [{"k": i % 7, "v": i} for i in range(60)]
    + [{"v": 100 + i} for i in range(9)]
    + [{"k": None, "v": 200 + i} for i in range(5)]
    + [{"k": 2.0, "v": 300}, {"k": True, "v": 301}, {"k": "2", "v": 302}]
)
HOLES_B = (
    [{"k": i % 9, "w": i} for i in range(80)]
    + [{"w": 100 + i} for i in range(4)]
    + [{"k": None, "w": 200 + i} for i in range(3)]
    + [{"k": 1.0, "w": 300}, {"k": False, "w": 301}, {"k": "2", "w": 302}]
)


def rows_source(collections, partitions):
    data = {
        name: [[json.dumps(rows[p::partitions])] for p in range(partitions)]
        for name, rows in collections.items()
    }
    return InMemorySource(data, stats_sample=10_000)


KEYED_JOINS = {
    "missing-and-null": (
        lambda: rows_source({"/a": HOLES_A, "/b": HOLES_B}, 4),
        'for $a in collection("/a")() for $b in collection("/b")() '
        'where $a("k") eq $b("k") and $a("v") ge 3 return [$a("v"), $b("w")]',
        "[build=left]",  # the plan PARENT_VALUES pins
    ),
}

# What the commit before the keyed stream answered on ``sequential``
# (ISSUE 23): the numbers one keying and one sizing must not move.
PARENT_VALUES = {
    "Q2": {
        "exchange": (1604, 1029312),
        "peak_memory_bytes": 144675,
        "counters": {"build_tuples": 800, "frames_emitted": 33, "probe_tuples": 800},
        "left_buckets": [215, 181, 179, 225],
        "right_buckets": [215, 181, 179, 225],
    },
    "missing-and-null": {
        "exchange": (697, 388207),
        "peak_memory_bytes": 7382,
        "counters": {
            "build_tuples": 74,
            "frames_emitted": 13,
            "join_keys_dropped": 13,
            "probe_tuples": 90,
        },
        "left_buckets": [9, 17, 17, 22],
        "right_buckets": [26, 20, 18, 22],
    },
}


def join_values(result) -> dict:
    """What PARENT_VALUES pins, read off a profiled result."""
    (join,) = result.profile.find("JOIN")
    return {
        "exchange": (result.stats.exchange_tuples, result.stats.exchange_bytes),
        "peak_memory_bytes": result.peak_memory_bytes,
        "counters": dict(join.counters),
        "left_buckets": join.details["left_buckets"],
        "right_buckets": join.details["right_buckets"],
    }


class TestKeyedOnceSizedOnce:
    """Each tuple a partitioned join exchanges is keyed once, by the
    phase-1 unit that scanned it, and sized once, by the frame; phase 2
    joins from the keys and sizes that rode the parcel."""

    @pytest.mark.parametrize("shape", ["Q2", *KEYED_JOINS])
    def test_phase_two_keys_and_sizes_nothing(self, shape, keying, tmp_path):
        if shape == "Q2":
            make, query = sensor_q2(tmp_path)
            marker = "JOIN"
        else:
            make, query, marker = KEYED_JOINS[shape]

        def run(backend, profile):
            with JsonProcessor(
                source=make(), backend=backend, max_workers=2, cost=True
            ) as processor:
                assert marker in processor.explain(query)
                return processor.execute(query, profile=profile)

        reference = run("sequential", "counter")
        assert join_values(reference) == PARENT_VALUES[shape]
        counters = PARENT_VALUES[shape]["counters"]
        pulled = counters["build_tuples"] + counters["probe_tuples"]
        keying.take()
        for backend in BACKEND_NAMES:
            for profile in (None, "counter"):
                result = run(backend, profile)
                events = keying.take()
                assert fingerprint(result) == fingerprint(reference)
                assert result.peak_memory_bytes == reference.peak_memory_bytes
                if profile is not None:
                    assert join_values(result) == PARENT_VALUES[shape]
                # keyed once, where it was scanned; nothing after that
                assert keying.keyed(events, "1") == pulled == keying.keyed(events)
                assert not [e for e in events if e[2] == "2"]
                assert not [e for e in events if e[0] == "sizeof_tuple"]
                if backend == "process":
                    assert not [e for e in events if e[3]]
