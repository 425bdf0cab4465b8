"""Tests for the operator-level query profiles.

Covers the clock registry, profile-config resolution (including the
``REPRO_PROFILE`` environment variable), the collector's snapshot/absorb
round trip, and the headline guarantee: profiles of a seeded run are
byte-identical across the sequential and process backends.
"""

import json

import pytest

from repro import JsonProcessor
from repro.observability import (
    CLOCKS,
    ProfileConfig,
    make_clock,
    resolve_profile_config,
)
from repro.observability.profile import (
    PROFILE_ENV_VAR,
    ProfileCollector,
    iter_plan_operators,
)
from repro.compiler.pipeline import compile_query

SENSORS = [
    [
        '{"root": [{"results": ['
        '{"dataType": "TMIN", "value": 1, "station": "s1", "date": "2013-01-01T00:00:00"},'
        '{"dataType": "TMAX", "value": 9, "station": "s1", "date": "2013-01-01T00:00:00"},'
        '{"dataType": "TMIN", "value": 2, "station": "s2", "date": "2013-01-02T00:00:00"}'
        "]}]}"
    ],
    [
        '{"root": [{"results": ['
        '{"dataType": "TMIN", "value": 3, "station": "s2", "date": "2013-01-03T00:00:00"},'
        '{"dataType": "TMAX", "value": 8, "station": "s3", "date": "2013-01-03T00:00:00"}'
        "]}]}"
    ],
]

Q0 = (
    'for $r in collection("/sensors")("root")()("results")() '
    'where $r("dataType") eq "TMIN" return $r("value")'
)
Q1 = (
    'for $r in collection("/sensors")("root")()("results")() '
    'group by $s := $r("station") return {"station": $s, "n": count($r)}'
)
Q2 = (
    'avg(for $r in collection("/sensors")("root")()("results")() '
    'where $r("dataType") eq "TMIN" return $r("value"))'
)
QUERIES = [Q0, Q1, Q2]


@pytest.fixture(autouse=True)
def _pinned_scan_env(monkeypatch):
    # Golden profiles pin exact DATASCAN counter lines; the CI leg that
    # runs the suite under REPRO_SEGMENT_CACHE would add cache_hits /
    # cache_misses fields to them.
    monkeypatch.delenv("REPRO_SEGMENT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SCAN_MODE", raising=False)


def processor(**kwargs):
    return JsonProcessor.in_memory({"/sensors": SENSORS}, **kwargs)


class TestClocks:
    def test_registry_names(self):
        assert set(CLOCKS) == {"wall", "counter", "none"}

    def test_counter_clock_is_deterministic(self):
        clock = make_clock("counter")
        assert [clock(), clock(), clock()] == [1.0, 2.0, 3.0]
        # Each instance starts fresh.
        assert make_clock("counter")() == 1.0

    def test_null_clock_is_constant(self):
        clock = make_clock("none")
        assert clock() == clock() == 0.0

    def test_wall_clock_is_monotonic(self):
        clock = make_clock("wall")
        assert clock() <= clock()

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="unknown profile clock"):
            make_clock("sundial")


class TestConfigResolution:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        assert resolve_profile_config(None) is None
        assert resolve_profile_config(False) is None

    def test_explicit_forms(self):
        assert resolve_profile_config(True) == ProfileConfig(clock="wall")
        assert resolve_profile_config("counter") == ProfileConfig(clock="counter")
        config = ProfileConfig(clock="none")
        assert resolve_profile_config(config) is config

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "counter")
        assert resolve_profile_config(None) == ProfileConfig(clock="counter")
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        assert resolve_profile_config(None) == ProfileConfig(clock="wall")
        monkeypatch.setenv(PROFILE_ENV_VAR, "0")
        assert resolve_profile_config(None) is None

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ProfileConfig(clock="sundial")
        with pytest.raises(TypeError):
            resolve_profile_config(3.14)


class TestCollector:
    def test_snapshot_absorb_round_trip(self):
        plan = compile_query(Q0).plan
        config = ProfileConfig(clock="counter")
        worker = ProfileCollector(plan, config)
        ops = list(iter_plan_operators(plan))
        worker.add(ops[0], "tuples_out", 3)
        worker.set_detail(ops[0], "note", "x")
        coordinator = ProfileCollector(plan, config)
        coordinator.absorb(worker.data())
        coordinator.absorb(worker.data())
        merged = coordinator.node_data(0)
        assert merged["counters"] == {"tuples_out": 6}
        assert merged["details"] == {"note": "x"}

    def test_snapshot_is_plain_data(self):
        plan = compile_query(Q0).plan
        collector = ProfileCollector(plan, ProfileConfig(clock="counter"))
        collector.add(next(iter_plan_operators(plan)), "tuples_out")
        data = collector.data()
        # Snapshots cross process boundaries: plain picklable dicts only.
        import pickle

        assert pickle.loads(pickle.dumps(data)) == data

    def test_observe_counts_and_times(self):
        plan = compile_query(Q0).plan
        collector = ProfileCollector(plan, ProfileConfig(clock="counter"))
        op = next(iter_plan_operators(plan))
        assert list(collector.observe(op, iter([1, 2, 3]))) == [1, 2, 3]
        node = collector.node_data(collector._index[id(op)])
        assert node["counters"]["tuples_out"] == 3
        # counter clock: one tick per pull (including the StopIteration pull)
        assert node["seconds"] == 4.0


class TestQueryProfiles:
    def test_unprofiled_run_has_no_profile(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        with processor() as p:
            assert p.execute(Q0).profile is None

    def test_profile_shape_and_counters(self):
        with processor() as p:
            profile = p.profile(Q0)
        assert profile.strategy == "pipelined"
        assert profile.partitions == 2
        assert profile.clock == "counter"
        (scan,) = profile.find("DATASCAN")
        assert scan.counters["items_scanned"] == 5
        assert scan.counters["tuples_out"] == 5
        assert scan.counters["projection_hits"] == 5
        assert scan.counters["bytes_scanned"] > 0
        (select,) = profile.find("SELECT")
        assert select.counters["tuples_in"] == 5
        assert select.counters["tuples_out"] == 3
        assert profile.root.operator == "DISTRIBUTE-RESULT"
        assert profile.root.counters["tuples_out"] == 3

    def test_group_by_counters(self):
        with processor() as p:
            profile = p.profile(Q1)
        (group,) = profile.find("GROUP-BY")
        # Summed per-partition tables: {s1, s2} on partition 0, {s2, s3}
        # on partition 1.
        assert group.counters["groups"] == 4
        assert group.counters["tuples_in"] == 5
        assert group.counters["frames_emitted"] >= 1

    def test_rewrite_audit_attached(self):
        with processor() as p:
            profile = p.profile(Q0)
        assert profile.rewrite is not None
        assert profile.rewrite.total_firings > 0
        assert "introduce-datascan" in profile.rewrite.fire_counts()

    def test_exclusive_seconds_never_negative(self):
        with processor() as p:
            profile = p.profile(Q1)

        def walk(node):
            assert node.exclusive_seconds >= 0.0
            for child in node.children:
                walk(child)
            for nested in node.nested:
                walk(nested)

        walk(profile.root)

    def test_to_dict_is_json_serializable(self):
        with processor() as p:
            profile = p.profile(Q2)
        blob = json.dumps(profile.to_dict(), sort_keys=True)
        decoded = json.loads(blob)
        assert decoded["strategy"] == profile.strategy
        assert decoded["rewrite"]["total_firings"] == profile.rewrite.total_firings

    def test_env_variable_enables_profiling(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "counter")
        with processor() as p:
            result = p.execute(Q0)
        assert result.profile is not None
        assert result.profile.clock == "counter"

    def test_profile_overhead_only_when_enabled(self, monkeypatch):
        """The unprofiled path must not construct collectors or wrappers."""
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        with processor() as p:
            compiled = p.compile(Q0)
            result = p._executor.run(compiled.plan)
            assert result.profile is None
            assert p._executor._profile is None


class TestBackendParity:
    """Profiles must be byte-identical across every execution backend."""

    @pytest.mark.parametrize("query", QUERIES)
    def test_three_way_parity(self, query):
        blobs = {}
        for backend in ("sequential", "process"):
            with processor(backend=backend) as p:
                result = p.execute(query, profile="counter")
                blobs[backend] = json.dumps(
                    result.profile.to_dict(), sort_keys=True
                )
        assert blobs["sequential"] == blobs["process"]

    def test_repeated_runs_identical(self):
        with processor() as p:
            first = json.dumps(p.profile(Q1).to_dict(), sort_keys=True)
            second = json.dumps(p.profile(Q1).to_dict(), sort_keys=True)
        assert first == second


class TestGoldenExplain:
    def test_explain_profile_appends_rendered_profile(self):
        with processor() as p:
            report = p.explain(Q0, profile=True)
        expected = "\n".join(
            [
                "== query profile (strategy=pipelined, partitions=2, clock=counter) ==",
                # SELECT and ASSIGN run in the scan's frame gear, whose
                # spans tick once per operator per frame (one frame a
                # partition here), not per tuple
                "DISTRIBUTE-RESULT tuples_in=3 tuples_out=3 span=15",
                "  ASSIGN tuples_in=3 tuples_out=3 span=6",
                "    SELECT tuples_in=5 tuples_out=3 span=4",
                "      DATASCAN bytes_scanned=2740 items_scanned=5 "
                "projection_hits=5 projection_skips=0 "
                "tape_records=2 tape_tokens=8 tuples_out=5 span=2",
                "",
                "== rewrite audit ==",
            ]
        )
        assert expected in report
        assert "introduce-datascan" in report

    def test_explain_without_profile_unchanged(self):
        with processor() as p:
            report = p.explain(Q0)
        assert "query profile" not in report
        assert "== naive plan ==" in report
