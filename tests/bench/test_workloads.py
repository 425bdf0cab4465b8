"""Unit tests for the workload builders and predicates."""

import pytest

from repro.bench import workloads as W
from repro.errors import ReproError


class TestPredicate:
    @pytest.mark.parametrize(
        "date,expected",
        [
            ("20031225T00:00", True),
            ("20131225T00:00", True),
            ("20021225T00:00", False),  # year too early
            ("20031224T00:00", False),  # wrong day
            ("20031125T00:00", False),  # wrong month
            ("2003", False),  # malformed
        ],
    )
    def test_is_dec25_from_2003(self, date, expected):
        assert W.is_dec25_from_2003(date) is expected


class TestWorkloadBuilding:
    @pytest.fixture(scope="class")
    def workload(self):
        return W.sensor_workload(
            partitions=4, bytes_per_partition=8_000, file_bytes=2_000
        )

    def test_partitions_created(self, workload):
        assert workload.catalog.partition_count("/sensors") == 4
        assert workload.total_bytes >= 4 * 8_000

    def test_cache_returns_same_object(self, workload):
        again = W.sensor_workload(
            partitions=4, bytes_per_partition=8_000, file_bytes=2_000
        )
        assert again is workload

    def test_repartitioned_preserves_files(self, workload):
        original = sorted(workload.catalog.files("/sensors"))
        for count in (1, 2, 3, 8):
            catalog = workload.repartitioned(count)
            assert catalog.partition_count("/sensors") == count
            assert sorted(catalog.files("/sensors")) == original

    def test_repartitioned_balances(self, workload):
        catalog = workload.repartitioned(2)
        a = len(catalog.files("/sensors", 0))
        b = len(catalog.files("/sensors", 1))
        assert abs(a - b) <= 1

    def test_prefix_catalog_takes_prefix(self, workload):
        catalog = workload.prefix_catalog(2)
        assert catalog.partition_count("/sensors") == 2
        assert catalog.files("/sensors", 0) == workload.catalog.files(
            "/sensors", 0
        )

    def test_unwrapped_variant_differs(self):
        wrapped = W.sensor_workload(
            partitions=1, bytes_per_partition=4_000, file_bytes=2_000
        )
        unwrapped = W.sensor_workload(
            partitions=1,
            bytes_per_partition=4_000,
            file_bytes=2_000,
            wrapped=False,
        )
        assert wrapped.directory != unwrapped.directory
        text = open(unwrapped.catalog.files("/sensors")[0]).read()
        assert not text.lstrip().startswith('{"root"')

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert W.bench_scale() == 2.5
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert W.bench_scale() == 1.0

    def test_scale_env_empty_means_no_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "")
        assert W.bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "  ")
        assert W.bench_scale() == 1.0

    @pytest.mark.parametrize(
        "value", ["lots", "0", "0.0", "-2", "nan", "inf", "1e999"]
    )
    def test_scale_env_rejects_what_is_not_a_positive_number(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_BENCH_SCALE", value)
        with pytest.raises(ReproError, match="REPRO_BENCH_SCALE"):
            W.bench_scale()
