"""DATASCAN's byte accounting is exact on every route.

A warm segment replays ``sizeof_item`` of each row as stored, a fill
hands DATASCAN the sizes it measured for the store, and every other
scan is cut into frames that ``sizeof_rows`` measures a column at a
time.  Whatever the route, ``items_scanned``, ``scanned_item_bytes`` and
the profile's ``bytes_scanned`` are the cache-off run's, also when the
consumer stops in the middle of a file or a frame, or the scan fails
there.
"""

import json
import os
from itertools import islice

import pytest

import repro.data.catalog as catalog_module
import repro.hyracks.operators as physical
import repro.jsonlib.items as items_module
from repro import SensorDataConfig, write_sensor_collection
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import VariableRef
from repro.algebra.operators import DataScan, DistributeResult
from repro.algebra.plan import LogicalPlan
from repro.bench.queries import ALL_QUERIES
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.errors import PartitionExecutionError, QueryCancelledError
from repro.hyracks.backends import PipelinedWork, WorkUnit, execute_work_unit
from repro.hyracks.executor import ExecutionStats
from repro.hyracks.limits import CHECK_STRIDE, CancellationToken, ExecutionLimits
from repro.jsonlib.items import sizeof_item, sizeof_rows
from repro.jsonlib.path import parse_path
from repro.observability.profile import ProfileCollector, ProfileConfig
from repro.processor import JsonProcessor
from repro.resilience.faults import FaultPlan
from repro.resilience.policies import ResilienceConfig

PATH = parse_path('("root")()("results")()')


@pytest.fixture(autouse=True)
def _pinned_scan_env(monkeypatch):
    # Cache-off baselines must stay cache-off under the CI cache legs.
    monkeypatch.delenv("REPRO_SEGMENT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SCAN_MODE", raising=False)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("accounting-data")
    write_sensor_collection(
        str(base), "sensors", 2, 40 * 1024,
        SensorDataConfig(seed=16, stations=20, target_file_bytes=16 * 1024),
    )
    # Every sensor row is the same size; these are not, the second
    # file's rows are not even the same shape, and the third's share a
    # shape but not the type of one column.
    for partition in range(2):
        directory = base / "varied" / f"partition{partition}"
        directory.mkdir(parents=True)
        shapes = (
            lambda i: {"k": "x" * (i % 17), "v": i * 1.5},
            lambda i: {"k": [1] * (i % 5)} if i % 7 else i,
            lambda i: {"k": "x" * (i % 3), "v": [i] if i % 2 else i},
        )
        for index, shape in enumerate(shapes):
            rows = [shape(i) for i in range(300)]
            (directory / f"f{index}.json").write_text(
                json.dumps({"root": [{"results": rows}]}), encoding="utf-8"
            )
    return str(base)


def make_source(kind, base_dir, cache_dir):
    if kind == "disk":
        return CollectionCatalog(base_dir, segment_cache_dir=cache_dir)
    disk = CollectionCatalog(base_dir, segment_cache_dir="")
    collections = {}
    for name in ("/sensors", "/varied"):
        collections[name] = []
        for partition in range(disk.partition_count(name)):
            collections[name].append([])
            for file_path in disk.files(name, partition):
                with open(file_path, encoding="utf-8") as handle:
                    collections[name][-1].append(handle.read())
    return InMemorySource(collections, segment_cache_dir=cache_dir)


def accounting(result):
    """Everything the scan accounted, and how the cache answered."""
    scans = result.profile.find("DATASCAN")
    exact = (
        result.stats.items_scanned,
        result.stats.scanned_item_bytes,
        [(s.counters["items_scanned"], s.counters["bytes_scanned"]) for s in scans],
    )
    cache = (
        sum(s.counters.get("cache_hits", 0) for s in scans),
        sum(s.counters.get("cache_misses", 0) for s in scans),
    )
    return exact, cache


@pytest.mark.parametrize("backend", ["sequential", "process"])
@pytest.mark.parametrize("kind", ["disk", "memory"])
def test_accounting_equal_cache_off_cold_and_warm(kind, backend, base_dir, tmp_path):
    cache_dir = tmp_path / "cache"
    with JsonProcessor(
        source=make_source(kind, base_dir, ""), backend=backend
    ) as plain, JsonProcessor(
        source=make_source(kind, base_dir, str(cache_dir)), backend=backend
    ) as cached:
        for name, build in ALL_QUERIES.items():
            query = build("/sensors")
            expected, off = accounting(plain.execute(query, profile="counter"))
            assert expected[0] > 0 and expected[1] > 0
            assert off == (0, 0)
            if cache_dir.exists():  # every query fills an empty cache
                for segment in os.listdir(cache_dir):
                    os.unlink(cache_dir / segment)
            cold, (hits, misses) = accounting(cached.execute(query, profile="counter"))
            assert cold == expected, name
            assert misses > 0
            warm, (hits, misses) = accounting(cached.execute(query, profile="counter"))
            assert warm == expected, name
            assert hits > 0 and misses == 0


# -- a scan abandoned in the middle of a file ----------------------------------


def run_datascan(source, pull, limits=None, collection="/varied"):
    """Pull *pull* tuples from a profiled DATASCAN (all of them if None)
    and give up; returns what it accounted."""
    op = DataScan(collection, "$r", PATH)
    stats = ExecutionStats()
    profile = ProfileCollector(LogicalPlan(op), ProfileConfig(clock="counter"))
    ctx = EvaluationContext(source=source, stats=stats, profile=profile, limits=limits)
    stream = physical.execute(op, ctx)
    pulled = 0
    try:
        for _ in stream:
            pulled += 1
            if pulled == pull:
                break
    finally:
        stream.close()
    counters = profile.data()[0]["counters"]
    assert counters["items_scanned"] == stats.items_scanned
    assert counters["bytes_scanned"] == stats.scanned_item_bytes
    return stats.items_scanned, stats.scanned_item_bytes


@pytest.fixture
def plain_and_warm(base_dir, tmp_path):
    def pair(kind):
        warm = make_source(kind, base_dir, str(tmp_path / kind))
        run_datascan(warm, None)  # fill
        return make_source(kind, base_dir, ""), warm

    return pair


@pytest.mark.parametrize("kind", ["disk", "memory"])
def test_closed_midway_accounts_only_what_was_yielded(kind, plain_and_warm):
    plain, warm = plain_and_warm(kind)
    total = run_datascan(plain, None)
    assert run_datascan(warm, None) == total
    rows_in_first_file = len(next(iter(warm.scan_units("/varied", PATH)))[0])
    assert rows_in_first_file == 300
    for pull in (1, 7, 300, 303):
        expected = run_datascan(plain, pull)
        assert expected[0] == pull and 0 < expected[1] < total[1]
        assert run_datascan(warm, pull) == expected


@pytest.mark.parametrize("kind", ["disk", "memory"])
def test_cancelled_midway_accounts_only_what_was_yielded(kind, plain_and_warm):
    plain, warm = plain_and_warm(kind)

    def cancelled_after(source, pull):
        token = CancellationToken()
        limits = ExecutionLimits(token=token)
        op = DataScan("/varied", "$r", PATH)
        stats = ExecutionStats()
        ctx = EvaluationContext(source=source, stats=stats, limits=limits)
        with pytest.raises(QueryCancelledError):
            for pulled, _ in enumerate(physical.execute(op, ctx), 1):
                if pulled == pull:
                    token.cancel("enough")
        return stats.items_scanned, stats.scanned_item_bytes

    expected = cancelled_after(plain, 5)
    # the strided checkpoint notices at its next boundary, mid-file
    assert expected[0] == CHECK_STRIDE - 1
    assert cancelled_after(warm, 5) == expected


# -- a frame edge, and a failure inside a frame -----------------------------------


def test_closed_around_a_frame_edge(plain_and_warm):
    plain, warm = plain_and_warm("disk")
    # one stream over every file, so the cuts fall inside files too
    wrapped = FaultPlan().wrap(plain)
    edge = physical._FRAME_ROWS
    assert edge < 300  # the first cut is inside the first file
    for pull in (edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge, 2 * edge + 1):
        rows = list(islice(plain.scan_collection("/varied", PATH), pull))
        expected = (pull, sum(map(sizeof_item, rows)))
        assert run_datascan(plain, pull) == expected
        assert run_datascan(warm, pull) == expected
        assert run_datascan(wrapped, pull) == expected


def broken_unit(base_dir, config):
    """A scan of ``/varied`` partition 0 whose record 350 is corrupt: one
    full frame goes by and the failure is in the middle of the next."""
    source = (
        FaultPlan(seed=5)
        .corrupt_records(0, 0.004, collection="/varied")
        .wrap(CollectionCatalog(base_dir, segment_cache_dir=""))
    )
    assert not source.plan.should_corrupt("/varied", 0, 349)
    assert source.plan.should_corrupt("/varied", 0, 350)
    plan = LogicalPlan(
        DistributeResult(DataScan("/varied", "$r", PATH), [VariableRef("$r")])
    )
    return WorkUnit(
        plan=plan,
        partition=0,
        work=PipelinedWork(plan),
        source=source,
        memory_budget=None,
        resilience=config,
        profile=ProfileConfig(clock="counter"),
    )


@pytest.mark.parametrize(
    "case,max_attempts,skipped",
    [("fail_fast", 1, False), ("retry", 3, False), ("skip_partition", 1, True)],
)
def test_a_scan_failing_inside_a_frame_accounts_the_rows_before_it(
    case, max_attempts, skipped, base_dir
):
    # 350 rows and 95327 bytes: recorded at the commit whose DATASCAN
    # measured each row as it yielded it.  A corrupt record fails every
    # attempt alike, so the unit runs once whatever max_attempts allows.
    assert physical._FRAME_ROWS < 350 < 2 * physical._FRAME_ROWS
    config = ResilienceConfig(
        max_attempts=max_attempts, on_exhausted="skip" if skipped else "fail"
    )
    outcome = execute_work_unit(broken_unit(base_dir, config))
    assert outcome.stats.items_scanned == 350
    assert outcome.stats.scanned_item_bytes == 95327
    assert outcome.skipped is skipped
    assert (outcome.error is None) is skipped
    if not skipped:
        assert isinstance(outcome.error, PartitionExecutionError)
        assert "injected corrupt record 350" in str(outcome.error)
    # the last attempt's profile: every row before the failure went
    # through the operator above the scan
    scan_counters = [
        node["counters"]
        for node in outcome.profile.values()
        if "items_scanned" in node["counters"]
    ]
    assert scan_counters == [
        {"tuples_out": 350, "items_scanned": 350, "bytes_scanned": 95327}
    ]


# -- who measures, and how often ------------------------------------------------


@pytest.fixture
def measured(monkeypatch):
    """Counts rows sized a frame at a time, by DATASCAN and by the fill,
    and values the kernel could only measure one by one."""
    calls = {"datascan": 0, "fill": 0, "one by one": 0}

    def rows_spy(where):
        def counted(rows):
            assert len(rows) <= physical._FRAME_ROWS or where == "fill"
            calls[where] += len(rows)
            return sizeof_rows(rows)

        return counted

    def item_spy(item):
        calls["one by one"] += 1
        return sizeof_item(item)

    monkeypatch.setattr(physical, "sizeof_rows", rows_spy("datascan"))
    monkeypatch.setattr(catalog_module, "sizeof_rows", rows_spy("fill"))
    monkeypatch.setattr(items_module, "sizeof_item", item_spy)

    def take():
        taken = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        return taken

    return take


@pytest.mark.parametrize("kind", ["disk", "memory"])
def test_rows_are_measured_once_on_a_fill_and_never_on_a_hit(
    kind, base_dir, tmp_path, measured
):
    plain = make_source(kind, base_dir, "")
    cached = make_source(kind, base_dir, str(tmp_path / "cache"))
    # Uniform rows: a frame at a time, no row or value on its own.
    items, expected_bytes = run_datascan(plain, None, collection="/sensors")
    assert measured() == {"datascan": items, "fill": 0, "one by one": 0}
    assert run_datascan(cached, None, collection="/sensors") == (items, expected_bytes)
    assert measured() == {"datascan": 0, "fill": items, "one by one": 0}
    assert run_datascan(cached, None, collection="/sensors") == (items, expected_bytes)
    assert measured() == {"datascan": 0, "fill": 0, "one by one": 0}  # replayed
    # Of the three shapes of /varied the first is uniform, the second
    # falls back row by row, and the third measures one column's values.
    items, expected_bytes = run_datascan(plain, None)
    assert items == 2 * 3 * 300
    assert measured() == {"datascan": items, "fill": 0, "one by one": 2 * 2 * 300}
    assert run_datascan(cached, None) == (items, expected_bytes)
    assert measured() == {"datascan": 0, "fill": items, "one by one": 2 * 2 * 300}
    assert run_datascan(cached, None) == (items, expected_bytes)
    assert measured() == {"datascan": 0, "fill": 0, "one by one": 0}


def test_sources_without_frames_keep_the_per_item_loop(base_dir, tmp_path, measured):
    # The fault wrapper exposes only scan_collection, so even over a
    # warm cache DATASCAN measures what it is handed, and the same: it
    # runs the one loop every source gets, over frames it cuts itself.
    warm = make_source("disk", base_dir, str(tmp_path / "cache"))
    wrapped = FaultPlan().wrap(warm)
    assert not hasattr(wrapped, "scan_units")
    for collection in ("/varied", "/sensors"):
        expected = run_datascan(warm, None, collection=collection)
        measured()
        assert run_datascan(wrapped, None, collection=collection) == expected
        taken = measured()
        assert (taken["datascan"], taken["fill"]) == (expected[0], 0)
    assert taken["one by one"] == 0  # the sensor rows are uniform


def test_nothing_is_measured_when_nobody_accounts(base_dir, measured):
    plain = make_source("disk", base_dir, "")
    op = DataScan("/varied", "$r", PATH)
    ctx = EvaluationContext(source=FaultPlan().wrap(plain))
    assert len(list(physical.execute(op, ctx))) == 2 * 3 * 300
    assert measured() == {"datascan": 0, "fill": 0, "one by one": 0}
