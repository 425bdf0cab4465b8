"""End-to-end integration tests: every engine agrees with ground truth.

The reference implementations in :mod:`repro.correctness.oracle` compute
the paper's queries directly over materialized items; here every engine
— VXQuery under all four rule configurations, the document store, the
SQL engine, and both ADM modes — must produce the same answers on a
generated dataset.
"""

import pytest

from repro import CollectionCatalog, JsonProcessor, RewriteConfig
from repro import SensorDataConfig, write_sensor_collection
from repro.baselines import AdmEngine, DocumentStore, InMemorySQLEngine
from repro.bench import queries, workloads
from repro.correctness.oracle import (
    reference_q0,
    reference_q0b,
    reference_q1,
    reference_q2,
)

CONFIGS = {
    "none": RewriteConfig.none(),
    "path": RewriteConfig.path_only(),
    "path+pipelining": RewriteConfig.path_and_pipelining(),
    "all": RewriteConfig.all(),
    "all-no-two-step": RewriteConfig(True, True, True, False),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base_dir = str(tmp_path_factory.mktemp("sensors"))
    config = SensorDataConfig(
        seed=99, start_year=2003, year_span=2, target_file_bytes=8 * 1024
    )
    write_sensor_collection(
        base_dir, "sensors", partitions=3, bytes_per_partition=25_000,
        config=config,
    )
    catalog = CollectionCatalog(base_dir)
    documents = catalog.read_collection("/sensors")
    return catalog, documents


class TestVXQueryAgainstReference:
    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_q0(self, dataset, config_name):
        catalog, documents = dataset
        processor = JsonProcessor(catalog, rewrite=CONFIGS[config_name])
        assert processor.evaluate(queries.q0()) == reference_q0(documents)

    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_q0b(self, dataset, config_name):
        catalog, documents = dataset
        processor = JsonProcessor(catalog, rewrite=CONFIGS[config_name])
        assert processor.evaluate(queries.q0b()) == reference_q0b(documents)

    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_q1(self, dataset, config_name):
        catalog, documents = dataset
        processor = JsonProcessor(catalog, rewrite=CONFIGS[config_name])
        expected = sorted(reference_q1(documents).values())
        assert sorted(processor.evaluate(queries.q1())) == expected

    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_q1b(self, dataset, config_name):
        catalog, documents = dataset
        processor = JsonProcessor(catalog, rewrite=CONFIGS[config_name])
        expected = sorted(reference_q1(documents).values())
        assert sorted(processor.evaluate(queries.q1b())) == expected

    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_q2(self, dataset, config_name):
        catalog, documents = dataset
        processor = JsonProcessor(catalog, rewrite=CONFIGS[config_name])
        expected = reference_q2(documents)
        (value,) = processor.evaluate(queries.q2())
        assert value == pytest.approx(expected)


class TestBaselinesAgainstReference:
    def test_document_store(self, dataset):
        catalog, documents = dataset
        store = DocumentStore()
        store.load_files("sensors", catalog.files("/sensors"))
        assert workloads.mongo_q0b(store, "sensors") == reference_q0b(documents)
        assert workloads.mongo_q1(store, "sensors") == reference_q1(documents)
        assert workloads.mongo_q2(store, "sensors") == pytest.approx(
            reference_q2(documents)
        )

    def test_document_store_rechunked(self, dataset):
        catalog, documents = dataset
        store = DocumentStore()
        store.load_files(
            "sensors", catalog.files("/sensors"), measurements_per_document=1
        )
        assert workloads.mongo_q1(store, "sensors") == reference_q1(documents)

    def test_sql_engine(self, dataset):
        catalog, documents = dataset
        engine = InMemorySQLEngine()
        engine.load_files("sensors", catalog.files("/sensors"))
        assert sorted(workloads.spark_q0b(engine, "sensors", True)) == sorted(
            reference_q0b(documents)
        )
        assert workloads.spark_q1(engine, "sensors", True) == reference_q1(
            documents
        )
        assert workloads.spark_q2(engine, "sensors", True) == pytest.approx(
            reference_q2(documents)
        )

    def test_adm_external(self, dataset):
        catalog, documents = dataset
        engine = AdmEngine(catalog, mode="external")
        expected = sorted(reference_q1(documents).values())
        assert sorted(engine.execute(queries.q1()).items) == expected

    def test_adm_load_mode(self, dataset, tmp_path):
        catalog, documents = dataset
        engine = AdmEngine(catalog, mode="load", storage_dir=str(tmp_path))
        report = engine.load("/sensors")
        assert report.documents > 0
        expected = sorted(reference_q1(documents).values())
        assert sorted(engine.execute(queries.q1()).items) == expected
        (q2_value,) = engine.execute(queries.q2()).items
        assert q2_value == pytest.approx(reference_q2(documents))


class TestUnwrappedStructure:
    def test_queries_on_unwrapped_files(self, tmp_path):
        config = SensorDataConfig(
            seed=5, start_year=2003, year_span=1, target_file_bytes=4 * 1024
        )
        write_sensor_collection(
            str(tmp_path), "sensors", partitions=2,
            bytes_per_partition=10_000, config=config, wrapped=False,
        )
        catalog = CollectionCatalog(str(tmp_path))
        documents = catalog.read_collection("/sensors")
        processor = JsonProcessor(catalog)
        assert processor.evaluate(
            queries.q0b(wrapped=False)
        ) == reference_q0b(documents)
        expected = sorted(reference_q1(documents).values())
        assert sorted(
            processor.evaluate(queries.q1(wrapped=False))
        ) == expected


class TestExplainOutput:
    def test_explain_shows_both_plans(self, dataset):
        catalog, _ = dataset
        processor = JsonProcessor(catalog)
        text = processor.explain(queries.q1(), show_trace=True)
        assert "naive plan" in text
        assert "rewritten plan" in text
        assert "DATASCAN" in text
        assert "rewrite trace" in text
