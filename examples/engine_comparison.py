"""Engine comparison: on-the-fly querying vs load-first systems.

Runs the paper's Q1 against all four engines of Section 5 on the same
synthetic sensor collection:

- **VXQuery** (this library): queries the raw files directly;
- **MongoDB-like document store**: must load (and compress) first;
- **SparkSQL-like engine**: must load everything into memory first —
  and fails outright when the data exceeds its budget;
- **AsterixDB-like engine**: same runtime as VXQuery but without the
  pipelining rules, in external and load modes.

Run:  python examples/engine_comparison.py
"""

import os
import tempfile
import time

from repro import CollectionCatalog, JsonProcessor, SensorDataConfig
from repro import write_sensor_collection
from repro.baselines import AdmEngine, DocumentStore, InMemorySQLEngine
from repro.bench import queries, workloads
from repro.correctness.oracle import reference_q1
from repro.errors import MemoryBudgetExceededError


def main() -> None:
    base_dir = tempfile.mkdtemp(prefix="repro-engines-")
    config = SensorDataConfig(
        seed=3, start_year=2003, year_span=2, target_file_bytes=32 * 1024
    )
    write_sensor_collection(
        base_dir, "sensors", partitions=2, bytes_per_partition=150_000,
        config=config,
    )
    catalog = CollectionCatalog(base_dir)
    expected = reference_q1(catalog.read_collection("/sensors"))
    print(f"dataset: {catalog.total_bytes('/sensors') // 1024}KB, "
          f"{len(expected)} groups expected\n")

    # VXQuery: no load phase at all.
    processor = JsonProcessor(catalog)
    result = processor.execute(queries.q1())
    assert sorted(result.items) == sorted(expected.values())
    print(f"VXQuery        load: {'—':>7}   query: {result.wall_seconds:.3f}s")

    # MongoDB-like: load, then query the compressed store.
    store = DocumentStore()
    load = store.load_files("sensors", catalog.files("/sensors"))
    started = time.perf_counter()
    counts = workloads.mongo_q1(store, "sensors")
    mongo_seconds = time.perf_counter() - started
    assert counts == expected
    print(f"DocumentStore  load: {load.seconds:.3f}s   query: {mongo_seconds:.3f}s"
          f"   (store {load.stored_bytes // 1024}KB compressed)")

    # SparkSQL-like: load everything into memory, then query.
    sql = InMemorySQLEngine()
    sql_load = sql.load_files("sensors", catalog.files("/sensors"))
    started = time.perf_counter()
    groups = workloads.spark_q1(sql, "sensors", wrapped=True)
    sql_seconds = time.perf_counter() - started
    assert groups == expected
    print(f"SQL engine     load: {sql_load.seconds:.3f}s   query: {sql_seconds:.3f}s"
          f"   (holds {sql_load.memory_bytes // 1024}KB in memory)")

    # ... and what happens when the data does not fit.
    tiny = InMemorySQLEngine(memory_budget_bytes=50_000)
    try:
        tiny.load_files("sensors", catalog.files("/sensors"))
    except MemoryBudgetExceededError as error:
        print(f"SQL engine (50KB budget): load fails — {error}")

    # AsterixDB-like: same runtime, no pipelining rules.
    adm = AdmEngine(catalog, mode="external")
    adm_result = adm.execute(queries.q1())
    assert sorted(adm_result.items) == sorted(expected.values())
    print(f"ADM (external) load: {'—':>7}   query: {adm_result.wall_seconds:.3f}s")

    loaded = AdmEngine(
        catalog, mode="load", storage_dir=os.path.join(base_dir, "adm")
    )
    adm_load = loaded.load("/sensors")
    adm_loaded_result = loaded.execute(queries.q1())
    assert sorted(adm_loaded_result.items) == sorted(expected.values())
    print(f"ADM (load)     load: {adm_load.seconds:.3f}s   "
          f"query: {adm_loaded_result.wall_seconds:.3f}s")


if __name__ == "__main__":
    main()
