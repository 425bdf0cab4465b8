"""Spill-to-disk execution: run files, spilling operators, byte-identity.

Every test that spills runs inside the ``spill_root`` fixture, which
fails the test if any temp file survives — the leak check the issue's
cancellation-safety contract demands.
"""

import json
import os
import pickle

import pytest

from repro.errors import MemoryBudgetExceededError, SpillError
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import VariableRef
from repro.algebra.rules import RewriteConfig
from repro.compiler.pipeline import compile_query
from repro.data.catalog import InMemorySource
from repro.hyracks.executor import ExecutionStats, PartitionedExecutor
from repro.hyracks.memory import MemoryTracker
from repro.hyracks.spill import (
    SpillConfig,
    SpilledSequence,
    SpillManager,
    estimate_record_bytes,
    external_sort,
    resolve_spill_config,
    stable_bucket,
)
from repro.jsonlib.items import canonical_key


def partition_rows(p: int, records_per_partition: int = 120) -> list:
    """The rows of partition *p* of :func:`make_source`."""
    return [
        {
            "date": f"d{(p * records_per_partition + i) % 17}",
            "dataType": "TMIN" if i % 2 == 0 else "TMAX",
            "station": f"S{i % 5}",
            "value": (i * 13 + p * 7) % 101,
        }
        for i in range(records_per_partition)
    ]


def make_source(records_per_partition: int = 120, partitions: int = 2):
    """An InMemorySource with enough rows to overflow small budgets."""
    texts = [
        json.dumps({"root": [{"results": partition_rows(p, records_per_partition)}]})
        for p in range(partitions)
    ]
    return InMemorySource(collections={"/s": [[t] for t in texts]})


def multi_pass_sort(rows: list, specs: list) -> list:
    """*rows* sorted by *specs*, ``(sequence of a row, descending)``
    pairs, the way a stable sort composes: one pass per spec, least
    significant first, each ordering by the spec's canonical key."""
    rows = list(rows)
    for sequence_of, descending in reversed(specs):
        rows.sort(key=lambda row: canonical_key(sequence_of(row)), reverse=descending)
    return rows


GROUP_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") return count($r("station"))'
)
# Reads like a general nested plan, but it compiles to a GROUP-BY whose
# AGGREGATE collects a ``sequence`` and a SUBPLAN above it that sums that
# sequence: the incremental fold, like every GROUP-BY.
GROUP_GENERAL_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") '
    'return sum(for $i in $r return $i("value")) + count($r)'
)
# A ``sequence`` aggregate: each group's items live in a SpilledSequence
# that sheds to its own run files while the group table spills.
GROUP_SEQUENCE_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'group by $d := $r("date") return [$r("value")]'
)
SORT_QUERY = (
    'for $r in collection("/s")("root")()("results")() '
    'order by $r("value") descending, $r("station") return $r'
)
# No equality between the sides: a JOIN(true) with the ``lt`` above it,
# whose inner side is a SpilledSequence replayed per outer tuple.
NESTED_LOOP_QUERY = (
    'for $a in collection("/s")("root")()("results")() '
    'for $b in collection("/s")("root")()("results")() '
    'where $a("station") eq "S1" and $b("dataType") eq "TMAX" '
    'and $a("value") lt $b("value") return [$a("value"), $b("value")]'
)
JOIN_QUERY = (
    "avg( "
    'for $a in collection("/s")("root")()("results")() '
    'for $b in collection("/s")("root")()("results")() '
    'where $a("station") eq $b("station") and $a("date") eq $b("date") '
    'and $a("dataType") eq "TMIN" and $b("dataType") eq "TMAX" '
    'return $b("value") - $a("value") )'
)


@pytest.fixture
def spill_root(tmp_path):
    """Spill directory that must be empty once the test finishes."""
    root = tmp_path / "spill"
    root.mkdir()
    yield str(root)
    assert os.listdir(str(root)) == [], "spill run files leaked"


def run(source, query, spill_root=None, config=None, **kwargs):
    executor = PartitionedExecutor(
        source, spill_dir=spill_root, **kwargs
    )
    plan = compile_query(query, config or RewriteConfig.all()).plan
    return executor.run(plan)


class TestStableBucket:
    def test_deterministic(self):
        assert stable_bucket(("a", 1), 8) == stable_bucket(("a", 1), 8)

    def test_salt_decorrelates(self):
        keys = [(f"k{i}",) for i in range(64)]
        plain = [stable_bucket(k, 8) for k in keys]
        salted = [stable_bucket(k, 8, salt=3) for k in keys]
        assert plain != salted

    def test_within_range(self):
        for i in range(100):
            assert 0 <= stable_bucket((i,), 7) < 7


class TestEstimateRecordBytes:
    def test_scales_with_content(self):
        small = estimate_record_bytes(("k", [1, 2]))
        large = estimate_record_bytes(("k" * 100, list(range(50))))
        assert large > small > 0

    def test_handles_non_items(self):
        class Opaque:
            pass

        assert estimate_record_bytes({"x": Opaque()}) > 0


class TestRunFiles:
    def test_roundtrip_preserves_order_and_values(self, spill_root):
        manager = SpillManager(SpillConfig(directory=spill_root))
        records = [("key", i, {"v": [i]}) for i in range(500)]
        writer = manager.new_run("test")
        for record in records:
            writer.write(record)
        handle = writer.finish()
        assert list(handle) == records
        assert handle.records == len(records)
        assert handle.byte_size > 0
        manager.close()

    @pytest.mark.parametrize("cut", ["batch-boundary", "inside-batch", "10-bytes"])
    def test_short_run_fails_loudly(self, spill_root, cut):
        config = SpillConfig(directory=spill_root, frame_bytes=256)
        with SpillManager(config) as manager:
            writer = manager.new_run("short")
            for i in range(200):
                writer.write(("key", i))
            handle = writer.finish()
            with open(handle.path, "rb") as stream:
                boundaries = []
                while stream.tell() < handle.byte_size:
                    pickle.load(stream)
                    boundaries.append(stream.tell())
            assert len(boundaries) > 2, "the run must span several batches"
            middle = boundaries[len(boundaries) // 2 - 1]
            size = {
                "batch-boundary": middle,
                "inside-batch": middle + 5,
                "10-bytes": 10,
            }[cut]
            os.truncate(handle.path, size)
            with pytest.raises(SpillError, match="of 200 records"):
                list(handle)

    def test_deterministic_run_names(self, spill_root):
        manager = SpillManager(SpillConfig(directory=spill_root), partition=3)
        w1 = manager.new_run("sort")
        w2 = manager.new_run("group-b0")
        assert os.path.basename(w1._path) == "run-000001-sort.frames"
        assert os.path.basename(w2._path) == "run-000002-group-b0.frames"
        assert "repro-spill-p3-" in manager.directory
        manager.close()

    def test_close_removes_everything_even_unfinished(self, spill_root):
        manager = SpillManager(SpillConfig(directory=spill_root))
        writer = manager.new_run()
        writer.write(("unfinished", 1))
        assert manager.directory is not None
        manager.close()
        assert manager.directory is None
        # close is idempotent
        manager.close()

    def test_fold_stats(self, spill_root):
        manager = SpillManager(SpillConfig(directory=spill_root))
        manager.note_event()
        manager.note_recursion(4)
        writer = manager.new_run()
        writer.write((1,))
        writer.finish()
        stats = ExecutionStats()
        manager.fold_stats(stats)
        assert stats.spill_events == 1
        assert stats.spill_run_files == 1
        assert stats.spill_bytes > 0
        assert stats.spill_recursion_depth == 4
        manager.close()


class TestSpilledSequence:
    def test_iteration_is_append_order(self, spill_root):
        tracker = MemoryTracker(budget=256)
        with SpillManager(SpillConfig(directory=spill_root)) as manager:
            ctx = EvaluationContext(memory=tracker, spill=manager)
            seq = SpilledSequence(ctx, label="t")
            for i in range(100):
                seq.append(i, 64)
            assert manager.run_files > 0
            assert list(seq) == list(range(100))
            assert list(seq) == list(range(100))  # re-iterable
            seq.close()
            assert tracker.used == 0

    def test_without_spill_manager_raises(self):
        tracker = MemoryTracker(budget=256)
        ctx = EvaluationContext(memory=tracker)
        seq = SpilledSequence(ctx, label="t")
        with pytest.raises(MemoryBudgetExceededError):
            for i in range(100):
                seq.append(i, 64)


#: sort keys of every kind: numbers equal across int and float, strings,
#: booleans, null and the empty sequence
MIXED_KEYS = [[3], [1.0], [1], ["a"], [True], [None], [], [2.5], ["b"], [False]]


class TestExternalSort:
    TUPLES = [
        {"v": MIXED_KEYS[(i * 7) % len(MIXED_KEYS)], "s": [f"s{i % 3}"], "i": [i]}
        for i in range(200)
    ]
    SPECS = [(VariableRef("v"), True), (VariableRef("s"), False)]
    EXPECTED = multi_pass_sort(
        TUPLES, [(lambda tup: tup["v"], True), (lambda tup: tup["s"], False)]
    )

    def test_unbudgeted_is_the_multi_pass_order(self):
        tracker = MemoryTracker()
        ctx = EvaluationContext(memory=tracker)
        assert list(external_sort(self.SPECS, iter(self.TUPLES), ctx)) == self.EXPECTED
        assert tracker.used == 0

    def test_matches_in_memory_sort(self, spill_root):
        """The spilling sort yields the order of an in-memory multi-pass sort."""
        tracker = MemoryTracker(budget=512)
        with SpillManager(SpillConfig(directory=spill_root)) as manager:
            ctx = EvaluationContext(memory=tracker, spill=manager)
            got = list(external_sort(self.SPECS, iter(self.TUPLES), ctx))
            assert manager.events > 0
        assert got == self.EXPECTED
        assert tracker.used == 0


class TestQueryLevelByteIdentity:
    """Tiny budgets force spilling; results must match unlimited runs."""

    @pytest.mark.parametrize(
        "query, config",
        [
            (GROUP_QUERY, None),
            (GROUP_GENERAL_QUERY, None),
            (GROUP_SEQUENCE_QUERY, None),
            (SORT_QUERY, None),
            (JOIN_QUERY, None),
            (NESTED_LOOP_QUERY, None),
            # Without the group-by rules the GROUP-BY keeps the naive
            # ``sequence`` state of each group's members; with no rules
            # at all, collection() would charge what nothing can shed.
            (GROUP_QUERY, RewriteConfig.path_and_pipelining()),
        ],
        ids=[
            "group-incremental",
            "group-general",
            "group-sequence",
            "order-by",
            "join",
            "nested-loop-join",
            "naive-group-sequence",
        ],
    )
    def test_spilled_equals_unlimited(self, spill_root, query, config):
        source = make_source()
        unlimited = run(source, query, config=config)
        spilled = run(
            source, query, spill_root=spill_root, config=config,
            memory_budget_bytes=512,
        )
        assert spilled.items == unlimited.items
        assert spilled.stats.spill_events > 0
        assert spilled.stats.spill_run_files > 0
        assert spilled.stats.spill_bytes > 0

    @pytest.mark.parametrize("budget", [None, 512])
    def test_order_by_is_the_multi_pass_order(self, spill_root, budget):
        rows = partition_rows(0) + partition_rows(1)
        expected = multi_pass_sort(
            rows,
            [(lambda row: [row["value"]], True), (lambda row: [row["station"]], False)],
        )
        result = run(
            make_source(), SORT_QUERY, spill_root=spill_root,
            memory_budget_bytes=budget,
        )
        assert result.items == expected

    @pytest.mark.parametrize("max_recursion", [2, 6])
    @pytest.mark.parametrize("budget", [256, 512])
    @pytest.mark.parametrize(
        "query",
        [GROUP_QUERY, GROUP_SEQUENCE_QUERY, JOIN_QUERY],
        ids=["group", "group-sequence", "join"],
    )
    def test_recursion_reaches_its_bound(
        self, spill_root, query, budget, max_recursion
    ):
        # With two buckets per split, a budget this small keeps every
        # bucket overflowing until the recursion bound stops the split.
        source = make_source()
        unlimited = run(source, query)
        config = SpillConfig(
            directory=spill_root, fanout=2, max_recursion=max_recursion
        )
        spilled = run(
            source, query, spill_root=config, memory_budget_bytes=budget
        )
        assert spilled.items == unlimited.items
        assert spilled.stats.spill_recursion_depth == max_recursion

    def test_budget_without_spill_need_never_spills(self, spill_root):
        source = make_source(records_per_partition=10)
        result = run(
            source,
            GROUP_QUERY,
            spill_root=spill_root,
            memory_budget_bytes=10_000_000,
        )
        assert result.stats.spill_events == 0
        assert result.stats.spill_run_files == 0

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_match(self, spill_root, backend):
        source = make_source()
        unlimited = run(source, GROUP_QUERY)
        executor = PartitionedExecutor(
            source,
            memory_budget_bytes=512,
            spill_dir=spill_root,
            backend=backend,
            max_workers=2,
        )
        try:
            spilled = executor.run(
                compile_query(GROUP_QUERY, RewriteConfig.all()).plan
            )
        finally:
            executor.close()
        assert spilled.items == unlimited.items
        assert spilled.stats.spill_events > 0


class TestSpillConfig:
    def test_resolve_passthrough(self):
        config = SpillConfig(directory="/x", fanout=4)
        assert resolve_spill_config(config) is config
        assert resolve_spill_config("/y").directory == "/y"

    def test_env_var_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        assert SpillConfig().root_directory() == str(tmp_path)
        monkeypatch.delenv("REPRO_SPILL_DIR")
        assert SpillConfig().root_directory()  # system tmp

    def test_config_is_picklable(self):
        config = SpillConfig(directory="/x", fanout=4, max_recursion=3)
        assert pickle.loads(pickle.dumps(config)) == config


class TestQueryScopes:
    """Per-query spill scopes: concurrent queries can never collide."""

    def test_scopes_are_unique(self):
        from repro.hyracks.spill import new_query_scope

        scopes = {new_query_scope() for _ in range(100)}
        assert len(scopes) == 100

    def test_scoped_is_idempotent_and_picklable(self, spill_root):
        config = SpillConfig(directory=spill_root).scoped()
        assert config.scoped() is config
        assert pickle.loads(pickle.dumps(config)).scope == config.scope

    def test_same_partition_index_never_collides(self, spill_root):
        """Two queries spilling partition 3 land in disjoint scope dirs,
        and closing one query's manager leaves the other's files alone —
        the regression the per-query scope exists to prevent."""
        config_a = SpillConfig(directory=spill_root).scoped()
        config_b = SpillConfig(directory=spill_root).scoped()
        assert config_a.scope != config_b.scope
        manager_a = SpillManager(config_a, partition=3)
        manager_b = SpillManager(config_b, partition=3)
        writer_a = manager_a.new_run("sort")
        writer_b = manager_b.new_run("sort")
        records_a = [("a", i) for i in range(50)]
        records_b = [("b", i) for i in range(50)]
        for record in records_a:
            writer_a.write(record)
        for record in records_b:
            writer_b.write(record)
        handle_a = writer_a.finish()
        handle_b = writer_b.finish()
        assert manager_a.directory != manager_b.directory
        assert manager_a.directory.startswith(config_a.scope_directory())
        assert manager_b.directory.startswith(config_b.scope_directory())
        manager_a.close()
        # B's run file survives A's cleanup intact.
        assert list(handle_b) == records_b
        assert not os.path.exists(handle_a.path)  # A's file really is gone
        manager_b.close()
        for config in (config_a, config_b):
            scope_dir = config.scope_directory()
            if os.path.isdir(scope_dir):
                os.rmdir(scope_dir)

    def test_executor_removes_scope_directory(self, spill_root):
        """The executor stamps a scope per run and removes the whole
        scope tree when the query unwinds (spill_root fixture then
        asserts nothing leaked)."""
        source = make_source()
        executor = PartitionedExecutor(
            source, memory_budget_bytes=512, spill_dir=spill_root
        )
        result = executor.run(compile_query(GROUP_QUERY, RewriteConfig.all()).plan)
        assert result.stats.spill_events > 0
        assert os.listdir(spill_root) == []
        # the per-query scope is not pinned on the executor's base config
        assert executor._spill_config.scope is None

    def test_failing_manager_close_does_not_leak_scope(self, spill_root):
        """A manager whose cleanup itself raises (a cancelled query
        racing a spill-write error can leave run files already gone)
        must not skip the remaining managers or the scope-dir removal —
        the leak regression the executor's isolating finally fixes."""
        source = make_source()
        executor = PartitionedExecutor(
            source, memory_budget_bytes=512, spill_dir=spill_root
        )

        class BrokenManager:
            folded = False

            def fold_stats(self, stats):
                BrokenManager.folded = True
                raise OSError(5, "injected cleanup failure")

            def close(self):
                raise AssertionError("fold_stats already raised")

        original_context = executor._context

        def context_with_broken_manager(*args, **kwargs):
            ctx = original_context(*args, **kwargs)
            if not any(
                isinstance(m, BrokenManager) for m in executor._open_spills
            ):
                executor._open_spills.insert(0, BrokenManager())
            return ctx

        executor._context = context_with_broken_manager
        result = executor.run(
            compile_query(GROUP_QUERY, RewriteConfig.all()).plan
        )
        assert BrokenManager.folded
        assert result.stats.spill_events > 0
        assert os.listdir(spill_root) == []  # scope dir still removed

    def test_permanent_spill_fault_leaves_no_scope(self, spill_root):
        """A spill write that fails hard unwinds the query without
        leaking the per-query scope directory (the fixture asserts the
        root is empty afterwards)."""
        from repro.resilience import FaultPlan

        plan = FaultPlan().fail_spill(0, permanent=True)
        source = plan.wrap(make_source())
        with pytest.raises(Exception):
            run(
                source,
                GROUP_QUERY,
                spill_root=spill_root,
                memory_budget_bytes=512,
            )
        assert os.listdir(spill_root) == []

    def test_concurrent_queries_one_root(self, spill_root):
        """Many spilling queries through one spill root, concurrently —
        byte-identical results and an empty root afterwards."""
        from concurrent.futures import ThreadPoolExecutor

        source = make_source()
        expected = run(source, GROUP_QUERY).items

        def one_query(_):
            return run(
                source,
                GROUP_QUERY,
                spill_root=spill_root,
                memory_budget_bytes=512,
            ).items

        with ThreadPoolExecutor(max_workers=4) as pool:
            for items in pool.map(one_query, range(8)):
                assert items == expected


class TestTrackerDisciplines:
    def test_try_allocate_declines_without_charging(self):
        tracker = MemoryTracker(budget=100)
        assert tracker.try_allocate(60)
        assert not tracker.try_allocate(60)
        assert tracker.used == 60

    def test_force_allocate_records_overdraft(self):
        tracker = MemoryTracker(budget=100)
        tracker.force_allocate(150)
        assert tracker.used == 150
        assert tracker.overdraft_bytes == 50

    def test_release_flags_underflow(self):
        tracker = MemoryTracker()
        tracker.allocate(10)
        tracker.release(25)
        assert tracker.used == 0
        assert tracker.has_underflow
        assert tracker.underflow_bytes == 15

    def test_unbudgeted_try_allocate_always_succeeds(self):
        tracker = MemoryTracker()
        assert tracker.try_allocate(10**9)
        assert tracker.overdraft_bytes == 0
