"""One driver per table and figure of the paper's evaluation (Section 5).

Every driver builds a scaled dataset, runs the same systems the paper
ran, and returns an :class:`~repro.bench.harness.ExperimentResult` whose
rows mirror the paper's table/figure series.  Absolute numbers differ
(the paper used a 9-node cluster and up to 803 GB; we run MB-scale data
and a simulated cluster), but the *shape* — who wins, by what factor,
where crossovers fall — is the reproduction target.  EXPERIMENTS.md
records paper-vs-measured for each driver.
"""

from __future__ import annotations

from repro.errors import MemoryBudgetExceededError
from repro.algebra.rules import RewriteConfig
from repro.baselines.adm import AdmEngine
from repro.baselines.docstore import DocumentStore
from repro.baselines.sqlengine import InMemorySQLEngine
from repro.bench import queries as Q
from repro.bench import workloads as W
from repro.bench.harness import ExperimentResult, time_call
from repro.data.catalog import CollectionCatalog
from repro.hyracks.cluster import ClusterSpec
from repro.processor import JsonProcessor

_QUERY_NAMES = ("Q0", "Q0b", "Q1", "Q1b", "Q2")

# Node counts used by every cluster experiment (the paper's 1-9 nodes).
_NODE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9)

# Rule configurations, named as the paper's cumulative stages.
_CONFIG_NONE = RewriteConfig.none()
_CONFIG_PATH = RewriteConfig.path_only()
_CONFIG_PIPE = RewriteConfig.path_and_pipelining()
_CONFIG_ALL = RewriteConfig.all()


def _query_text(name: str, wrapped: bool = True) -> str:
    return Q.ALL_QUERIES[name](wrapped=wrapped)


def _run(catalog, query: str, config: RewriteConfig):
    """Execute a query, returning its QueryResult (wall time inside)."""
    return JsonProcessor(catalog, rewrite=config).execute(query)


def _best_run(catalog, query: str, config: RewriteConfig, repeats: int = 3):
    """Best-of-N execution: damps wall-clock noise on sub-second runs."""
    results = [_run(catalog, query, config) for _ in range(repeats)]
    return min(results, key=lambda result: result.wall_seconds)


# ---------------------------------------------------------------------------
# Single-node rule experiments (Figures 13-16)
# ---------------------------------------------------------------------------


def _rule_comparison(
    experiment: str,
    title: str,
    before: RewriteConfig,
    after: RewriteConfig,
    before_label: str,
    after_label: str,
) -> ExperimentResult:
    workload = W.sensor_workload(partitions=1, bytes_per_partition=400_000)
    rows = []
    for name in _QUERY_NAMES:
        query = _query_text(name)
        before_result = _best_run(workload.catalog, query, before)
        after_result = _best_run(workload.catalog, query, after)
        speedup = before_result.wall_seconds / max(
            after_result.wall_seconds, 1e-9
        )
        memory_ratio = before_result.peak_memory_bytes / max(
            after_result.peak_memory_bytes, 1
        )
        rows.append(
            [
                name,
                before_result.wall_seconds,
                after_result.wall_seconds,
                round(speedup, 2),
                before_result.peak_memory_bytes,
                after_result.peak_memory_bytes,
                round(memory_ratio, 1),
            ]
        )
    return ExperimentResult(
        experiment=experiment,
        title=title,
        columns=[
            "Query",
            f"{before_label} (s)",
            f"{after_label} (s)",
            "speedup",
            f"{before_label} mem (B)",
            f"{after_label} mem (B)",
            "mem ratio",
        ],
        rows=rows,
        notes="single node, one partition; paper used a 400MB collection. "
        "The paper's runtime gap is driven by the buffering the memory "
        "columns expose (see EXPERIMENTS.md on magnitudes)",
    )


def fig13() -> ExperimentResult:
    """Figure 13: execution time before/after the path expression rules."""
    return _rule_comparison(
        "fig13",
        "execution time before/after Path Expression Rules",
        _CONFIG_NONE,
        _CONFIG_PATH,
        "no rules",
        "path rules",
    )


def fig14() -> ExperimentResult:
    """Figure 14: before/after the pipelining rules (log scale in paper)."""
    return _rule_comparison(
        "fig14",
        "execution time before/after Pipelining Rules",
        _CONFIG_PATH,
        _CONFIG_PIPE,
        "path rules",
        "+pipelining",
    )


def fig15() -> ExperimentResult:
    """Figure 15: before/after the group-by rules (Q1/Q1b improve)."""
    return _rule_comparison(
        "fig15",
        "execution time before/after Group-by Rules",
        _CONFIG_PIPE,
        _CONFIG_ALL,
        "path+pipelining",
        "+group-by",
    )


def fig16() -> ExperimentResult:
    """Figure 16: Q1 vs collection size, before/after all rules."""
    rows = []
    for multiplier in (1, 2, 3, 4):
        workload = W.sensor_workload(
            partitions=1, bytes_per_partition=150_000 * multiplier
        )
        query = _query_text("Q1")
        before = _best_run(workload.catalog, query, _CONFIG_NONE)
        after = _best_run(workload.catalog, query, _CONFIG_ALL)
        rows.append(
            [
                f"{workload.total_bytes // 1024}KB",
                before.wall_seconds,
                after.wall_seconds,
                round(before.wall_seconds / max(after.wall_seconds, 1e-9), 2),
                before.peak_memory_bytes,
                after.peak_memory_bytes,
            ]
        )
    return ExperimentResult(
        experiment="fig16",
        title="Q1 execution time vs data size, before/after all rules",
        columns=[
            "collection",
            "before (s)",
            "after (s)",
            "speedup",
            "before mem (B)",
            "after mem (B)",
        ],
        rows=rows,
        notes="paper sizes were 100MB-400MB; both series scale ~linearly "
        "with data, the naive one also in memory",
    )


# ---------------------------------------------------------------------------
# Figure 17: single-node speed-up over partitions (hyperthread plateau)
# ---------------------------------------------------------------------------


def fig17() -> ExperimentResult:
    """Figure 17: single-node speed-up with 1/2/4/8 partitions."""
    workload = W.sensor_workload(partitions=8, bytes_per_partition=60_000)
    partition_counts = (1, 2, 4, 8)
    columns = ["Query"] + [
        f"{p} partition{'s' if p > 1 else ''}" + (" (HT)" if p == 8 else "")
        for p in partition_counts
    ]
    rows = []
    for name in _QUERY_NAMES:
        row = [name]
        for partitions in partition_counts:
            catalog = workload.repartitioned(partitions)
            cluster = ClusterSpec().single_node(partitions)
            # Best-of-2 damps scheduler jitter in the tiny partitions.
            row.append(
                min(
                    _run(catalog, _query_text(name), _CONFIG_ALL)
                    .simulated_seconds(cluster)
                    for _ in range(2)
                )
            )
        rows.append(row)
    return ExperimentResult(
        experiment="fig17",
        title="single-node speed-up (4 cores, 8 hyperthreads)",
        columns=columns,
        rows=rows,
        notes="simulated makespan from measured per-partition work; "
        "8 HT partitions serialize on 4 cores",
    )


# ---------------------------------------------------------------------------
# Figure 18 + Table 1: document-size sweep vs MongoDB / AsterixDB
# ---------------------------------------------------------------------------

_MEASUREMENTS_SWEEP = (30, 22, 15, 7, 1)
_sweep_cache: dict | None = None


def _document_size_sweep() -> dict:
    """Shared sweep behind fig18a, fig18b, and table1."""
    global _sweep_cache
    if _sweep_cache is not None:
        return _sweep_cache
    sweep: dict = {"measurements": list(_MEASUREMENTS_SWEEP), "rows": []}
    for measurements in _MEASUREMENTS_SWEEP:
        workload = W.sensor_workload(
            partitions=1,
            bytes_per_partition=250_000,
            measurements_per_array=measurements,
            wrapped=False,
        )
        query = _query_text("Q0b", wrapped=False)
        raw_bytes = workload.total_bytes

        vx_result = _best_run(workload.catalog, query, _CONFIG_ALL)

        store = DocumentStore()
        mongo_load = store.load_files(
            "sensors", workload.catalog.files("/sensors")
        )
        mongo_query_seconds = min(
            time_call(W.mongo_q0b, store, "sensors")[0] for _ in range(2)
        )

        adm_external = AdmEngine(workload.catalog, mode="external")
        adm_ext_result = min(
            (adm_external.execute(query) for _ in range(2)),
            key=lambda r: r.wall_seconds,
        )

        adm_loaded = AdmEngine(
            workload.catalog,
            mode="load",
            storage_dir=f"{workload.directory}/adm-m{measurements}",
        )
        adm_load = adm_loaded.load("/sensors")
        adm_load_result = min(
            (adm_loaded.execute(query) for _ in range(2)),
            key=lambda r: r.wall_seconds,
        )

        sweep["rows"].append(
            {
                "measurements": measurements,
                "raw_bytes": raw_bytes,
                "vx_seconds": vx_result.wall_seconds,
                "mongo_seconds": mongo_query_seconds,
                "mongo_load_seconds": mongo_load.seconds,
                "mongo_bytes": store.stored_bytes("sensors"),
                "adm_ext_seconds": adm_ext_result.wall_seconds,
                "adm_load_seconds": adm_load.seconds,
                "adm_loaded_seconds": adm_load_result.wall_seconds,
                "adm_bytes": adm_loaded.stored_bytes("/sensors"),
            }
        )
    _sweep_cache = sweep
    return sweep


def fig18a() -> ExperimentResult:
    """Figure 18a: Q0b time vs measurements/array, four systems."""
    rows = [
        [
            entry["measurements"],
            entry["vx_seconds"],
            entry["mongo_seconds"],
            entry["adm_ext_seconds"],
            entry["adm_loaded_seconds"],
        ]
        for entry in _document_size_sweep()["rows"]
    ]
    return ExperimentResult(
        experiment="fig18a",
        title="Q0b execution time vs measurements per array",
        columns=[
            "meas/array",
            "VXQuery (s)",
            "MongoDB (s)",
            "AsterixDB (s)",
            "AsterixDB(load) (s)",
        ],
        rows=rows,
        notes="paper dataset was 88GB; query times exclude loading",
    )


def fig18b() -> ExperimentResult:
    """Figure 18b: space consumption vs measurements/array."""
    rows = [
        [
            entry["measurements"],
            entry["raw_bytes"],
            entry["mongo_bytes"],
            entry["adm_bytes"],
        ]
        for entry in _document_size_sweep()["rows"]
    ]
    return ExperimentResult(
        experiment="fig18b",
        title="space consumption vs measurements per array",
        columns=[
            "meas/array",
            "VXQuery/AsterixDB raw (B)",
            "MongoDB stored (B)",
            "AsterixDB(load) stored (B)",
        ],
        rows=rows,
        notes="MongoDB compresses per document: bigger documents, "
        "smaller footprint",
    )


def table1() -> ExperimentResult:
    """Table 1: loading time, MongoDB vs AsterixDB(load)."""
    rows = [
        [
            entry["measurements"],
            entry["mongo_load_seconds"],
            entry["adm_load_seconds"],
        ]
        for entry in _document_size_sweep()["rows"]
    ]
    return ExperimentResult(
        experiment="table1",
        title="loading time for different measurements/array",
        columns=["meas/array", "MongoDB load (s)", "AsterixDB(load) load (s)"],
        rows=rows,
        notes="VXQuery and AsterixDB(external) have no loading phase",
    )


# ---------------------------------------------------------------------------
# Figure 19 + Tables 2-3: SparkSQL comparison
# ---------------------------------------------------------------------------

_SPARK_SIZES = (400_000, 800_000, 1_000_000)
_spark_cache: dict | None = None


def _spark_sweep() -> dict:
    global _spark_cache
    if _spark_cache is not None:
        return _spark_cache
    sweep: dict = {"rows": []}
    for size in _SPARK_SIZES:
        workload = W.sensor_workload(partitions=1, bytes_per_partition=size)
        vx = JsonProcessor(workload.catalog, rewrite=_CONFIG_ALL)
        vx_result = vx.execute(_query_text("Q1"))

        engine = InMemorySQLEngine()
        load = engine.load_files(
            "sensors", workload.catalog.files("/sensors")
        )
        query_seconds, _ = time_call(W.spark_q1, engine, "sensors", True)

        sweep["rows"].append(
            {
                "size_bytes": workload.total_bytes,
                "vx_seconds": vx_result.wall_seconds,
                "vx_memory": vx_result.peak_memory_bytes,
                "spark_query_seconds": query_seconds,
                "spark_load_seconds": load.seconds,
                "spark_memory": load.memory_bytes,
            }
        )
    _spark_cache = sweep
    return sweep


def fig19() -> ExperimentResult:
    """Figure 19: SparkSQL vs VXQuery on Q1 over growing data sizes."""
    rows = [
        [
            f"{entry['size_bytes'] // 1024}KB",
            entry["vx_seconds"],
            entry["spark_query_seconds"],
            entry["spark_query_seconds"] + entry["spark_load_seconds"],
        ]
        for entry in _spark_sweep()["rows"]
    ]
    return ExperimentResult(
        experiment="fig19",
        title="SparkSQL vs VXQuery, Q1 execution time",
        columns=[
            "data size",
            "VXQuery total (s)",
            "SparkSQL query (s)",
            "SparkSQL query+load (s)",
        ],
        rows=rows,
        notes="the paper's bars show VXQuery total vs Spark query-only; "
        "counting the load, VXQuery wins (paper sizes 400MB-1GB)",
    )


def table2() -> ExperimentResult:
    """Table 2: SparkSQL loading time per data size."""
    rows = [
        [f"{entry['size_bytes'] // 1024}KB", entry["spark_load_seconds"]]
        for entry in _spark_sweep()["rows"]
    ]
    return ExperimentResult(
        experiment="table2",
        title="SparkSQL loading time",
        columns=["data size", "loading (s)"],
        rows=rows,
    )


def table3() -> ExperimentResult:
    """Table 3: memory — Spark holds everything, VXQuery streams."""
    rows = [
        [
            f"{entry['size_bytes'] // 1024}KB",
            entry["spark_memory"],
            entry["vx_memory"],
        ]
        for entry in _spark_sweep()["rows"]
    ]
    return ExperimentResult(
        experiment="table3",
        title="data size to system memory",
        columns=["data size", "Spark memory (B)", "VXQuery memory (B)"],
        rows=rows,
        notes="Spark memory grows with input; VXQuery stays flat "
        "(only query-relevant state is held)",
    )


def spark_memory_failure(budget_bytes: int = 200_000) -> bool:
    """The paper's 'Spark cannot load >2GB on a 16GB node' behaviour.

    Returns True when loading the largest sweep size under a scaled
    budget raises the memory-budget error.
    """
    workload = W.sensor_workload(
        partitions=1, bytes_per_partition=_SPARK_SIZES[-1]
    )
    engine = InMemorySQLEngine(memory_budget_bytes=budget_bytes)
    try:
        engine.load_files("sensors", workload.catalog.files("/sensors"))
    except MemoryBudgetExceededError:
        return True
    return False


# ---------------------------------------------------------------------------
# Figures 20-21: cluster speed-up and scale-up
# ---------------------------------------------------------------------------


def _cluster_table(
    experiment: str,
    title: str,
    query_names,
    catalog_for_nodes,
    engine_factory=None,
    wrapped: bool = True,
    notes: str = "",
) -> ExperimentResult:
    """Generic node-count sweep; rows = queries, columns = node counts."""
    if engine_factory is None:
        engine_factory = lambda catalog: JsonProcessor(catalog, rewrite=_CONFIG_ALL)
    columns = ["Query"] + [f"{n} node{'s' if n > 1 else ''}" for n in _NODE_COUNTS]
    rows = []
    for name in query_names:
        row = [name]
        # Warm caches (regexes, files) so the first node count is not
        # biased by one-time costs.
        engine_factory(catalog_for_nodes(_NODE_COUNTS[0])).execute(
            _query_text(name, wrapped=wrapped)
        )
        for nodes in _NODE_COUNTS:
            catalog = catalog_for_nodes(nodes)
            engine = engine_factory(catalog)
            result = engine.execute(_query_text(name, wrapped=wrapped))
            cluster = ClusterSpec().with_nodes(nodes)
            row.append(result.simulated_seconds(cluster))
        rows.append(row)
    return ExperimentResult(
        experiment=experiment,
        title=title,
        columns=columns,
        rows=rows,
        notes=notes,
    )


def fig20() -> ExperimentResult:
    """Figure 20: cluster speed-up, fixed total data, 1-9 nodes."""
    workload = W.sensor_workload(
        partitions=36, bytes_per_partition=40_000, file_bytes=8_192
    )
    return _cluster_table(
        "fig20",
        "cluster speed-up, all queries (fixed total data)",
        _QUERY_NAMES,
        lambda nodes: workload.repartitioned(4 * nodes),
        notes="paper dataset was 803GB, evenly partitioned",
    )


def fig21() -> ExperimentResult:
    """Figure 21: cluster scale-up, fixed per-node data, 1-9 nodes."""
    workload = W.sensor_workload(
        partitions=36, bytes_per_partition=40_000, file_bytes=8_192
    )
    return _cluster_table(
        "fig21",
        "cluster scale-up, all queries (fixed data per node)",
        _QUERY_NAMES,
        lambda nodes: workload.prefix_catalog(4 * nodes),
        notes="paper added 88GB per node",
    )


# ---------------------------------------------------------------------------
# Figures 22-23: VXQuery vs AsterixDB on the cluster
# ---------------------------------------------------------------------------


def _versus_adm(experiment: str, title: str, catalog_builder) -> ExperimentResult:
    workload = W.sensor_workload(
        partitions=36,
        bytes_per_partition=15_000,
        measurements_per_array=1,
        wrapped=False,
        file_bytes=4_096,
    )
    columns = ["Query", "System"] + [
        f"{n} node{'s' if n > 1 else ''}" for n in _NODE_COUNTS
    ]
    rows = []
    for name in ("Q0b", "Q2"):
        for system, factory in (
            ("VXQuery", lambda c: JsonProcessor(c, rewrite=_CONFIG_ALL)),
            ("AsterixDB", lambda c: AdmEngine(c, mode="external")),
        ):
            row = [name, system]
            # Warm-up run (see _cluster_table).
            factory(catalog_builder(workload, _NODE_COUNTS[0])).execute(
                _query_text(name, wrapped=False)
            )
            for nodes in _NODE_COUNTS:
                catalog = catalog_builder(workload, nodes)
                result = factory(catalog).execute(
                    _query_text(name, wrapped=False)
                )
                cluster = ClusterSpec().with_nodes(nodes)
                row.append(result.simulated_seconds(cluster))
            rows.append(row)
    return ExperimentResult(
        experiment=experiment,
        title=title,
        columns=columns,
        rows=rows,
        notes="one measurement per document (AsterixDB's best structure); "
        "AsterixDB = same runtime without pipelining rules",
    )


def fig22() -> ExperimentResult:
    """Figure 22: VXQuery vs AsterixDB cluster speed-up (Q0b, Q2)."""
    return _versus_adm(
        "fig22",
        "VXQuery vs AsterixDB: cluster speed-up",
        lambda workload, nodes: workload.repartitioned(4 * nodes),
    )


def fig23() -> ExperimentResult:
    """Figure 23: VXQuery vs AsterixDB cluster scale-up (Q0b, Q2)."""
    return _versus_adm(
        "fig23",
        "VXQuery vs AsterixDB: cluster scale-up",
        lambda workload, nodes: workload.prefix_catalog(4 * nodes),
    )


# ---------------------------------------------------------------------------
# Figures 24-25 + Table 4: VXQuery vs MongoDB on the cluster
# ---------------------------------------------------------------------------


def _mongo_node_stores(catalog: CollectionCatalog) -> list[DocumentStore]:
    """One loaded DocumentStore per partition group (a 'node')."""
    stores = []
    for partition in range(catalog.partition_count("/sensors")):
        store = DocumentStore()
        store.load_files("sensors", catalog.files("/sensors", partition))
        stores.append(store)
    return stores


def _mongo_cluster_q0b(stores: list[DocumentStore]) -> tuple[list[float], float]:
    node_seconds = []
    for store in stores:
        seconds, _ = time_call(W.mongo_q0b, store, "sensors")
        node_seconds.append(seconds)
    return node_seconds, 0.0


def _mongo_cluster_q2(stores: list[DocumentStore]) -> tuple[list[float], float]:
    """Per-node unwind/project, then a central join (the exchange)."""
    node_seconds = []
    projected: list[list] = []
    for store in stores:
        def _project(current_store=store):
            rows = [
                {
                    "station": m["station"],
                    "date": m["date"],
                    "value": m["value"],
                    "dataType": m["dataType"],
                }
                for m in current_store.unwind("sensors", "results")
                if m["dataType"] in ("TMIN", "TMAX")
            ]
            return rows

        seconds, rows = time_call(_project)
        node_seconds.append(seconds)
        projected.append(rows)

    def _join():
        table: dict = {}
        for rows in projected:
            for row in rows:
                if row["dataType"] == "TMIN":
                    table.setdefault((row["station"], row["date"]), []).append(
                        row["value"]
                    )
        total, pairs = 0.0, 0
        for rows in projected:
            for row in rows:
                if row["dataType"] != "TMAX":
                    continue
                for tmin in table.get((row["station"], row["date"]), ()):
                    total += row["value"] - tmin
                    pairs += 1
        return None if pairs == 0 else (total / pairs) / 10

    join_seconds, _ = time_call(_join)
    return node_seconds, join_seconds


def _versus_mongo(experiment: str, title: str, catalog_builder) -> ExperimentResult:
    workload = W.sensor_workload(
        partitions=36, bytes_per_partition=15_000, wrapped=False,
        file_bytes=4_096,
    )
    columns = ["Query", "System"] + [
        f"{n} node{'s' if n > 1 else ''}" for n in _NODE_COUNTS
    ]
    rows = []
    for name, mongo_query in (("Q0b", _mongo_cluster_q0b), ("Q2", _mongo_cluster_q2)):
        vx_row = [name, "VXQuery"]
        mongo_row = [name, "MongoDB"]
        # Warm-up run (see _cluster_table).
        JsonProcessor(
            catalog_builder(workload, _NODE_COUNTS[0]), rewrite=_CONFIG_ALL
        ).execute(_query_text(name, wrapped=False))
        for nodes in _NODE_COUNTS:
            catalog = catalog_builder(workload, nodes)
            cluster = ClusterSpec().with_nodes(nodes)

            result = JsonProcessor(catalog, rewrite=_CONFIG_ALL).execute(
                _query_text(name, wrapped=False)
            )
            vx_row.append(result.simulated_seconds(cluster))

            # MongoDB: one shard per node (partition groups merge 4:1).
            node_catalog = CollectionCatalog()
            all_files = catalog.files("/sensors")
            node_catalog.register(
                "/sensors", [all_files[i::nodes] for i in range(nodes)]
            )
            stores = _mongo_node_stores(node_catalog)
            node_seconds, global_seconds = mongo_query(stores)
            # Smooth symmetric per-node work like QueryResult does.
            mean = sum(node_seconds) / len(node_seconds)
            mongo_row.append(
                cluster.makespan(
                    [mean] * len(node_seconds), global_seconds=global_seconds
                )
            )
        rows.append(vx_row)
        rows.append(mongo_row)
    return ExperimentResult(
        experiment=experiment,
        title=title,
        columns=columns,
        rows=rows,
        notes="MongoDB query times exclude its loading phase (Table 4); "
        "its Q2 needs the unwind/project workaround",
    )


def fig24() -> ExperimentResult:
    """Figure 24: VXQuery vs MongoDB cluster speed-up (Q0b, Q2)."""
    return _versus_mongo(
        "fig24",
        "VXQuery vs MongoDB: cluster speed-up",
        lambda workload, nodes: workload.repartitioned(4 * nodes),
    )


def fig25() -> ExperimentResult:
    """Figure 25: VXQuery vs MongoDB cluster scale-up (Q0b, Q2)."""
    return _versus_mongo(
        "fig25",
        "VXQuery vs MongoDB: cluster scale-up",
        lambda workload, nodes: workload.prefix_catalog(4 * nodes),
    )


def table4() -> ExperimentResult:
    """Table 4: MongoDB loading time for the two dataset scales."""
    rows = []
    for label, size in (("88GB (scaled)", 500_000), ("803GB (scaled)", 4_500_000)):
        workload = W.sensor_workload(partitions=4, bytes_per_partition=size // 4)
        store = DocumentStore()
        report = store.load_files("sensors", workload.catalog.files("/sensors"))
        rows.append([label, f"{workload.total_bytes // 1024}KB", report.seconds])
    return ExperimentResult(
        experiment="table4",
        title="MongoDB loading time",
        columns=["paper size", "scaled size", "loading (s)"],
        rows=rows,
        notes="paper: 9000s for 88GB, 81000s for 803GB per node",
    )


# ---------------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# ---------------------------------------------------------------------------


def ablation_projection_depth() -> ExperimentResult:
    """How DATASCAN's projection argument size affects Q0 vs Q0b.

    Section 5.3: "the smaller the argument given to DATASCAN, the
    better for exploiting pipelining".
    """
    workload = W.sensor_workload(partitions=1, bytes_per_partition=400_000)
    rows = []
    for name in ("Q0", "Q0b"):
        result = _run(workload.catalog, _query_text(name), _CONFIG_ALL)
        rows.append(
            [
                name,
                result.wall_seconds,
                result.stats.scanned_item_bytes,
                result.stats.items_scanned,
            ]
        )
    return ExperimentResult(
        experiment="ablation_projection_depth",
        title="projection path depth: Q0 (objects) vs Q0b (dates only)",
        columns=["Query", "time (s)", "scanned item bytes", "items"],
        rows=rows,
        notes="Q0b's DATASCAN forwards only date strings — the smaller "
        "tuples the paper credits for its best-case performance",
    )


def ablation_two_step_aggregation() -> ExperimentResult:
    """Two-step aggregation on/off (the Section 4.3 parallel rule)."""
    workload = W.sensor_workload(partitions=8, bytes_per_partition=60_000)
    rows = []
    for name in ("Q1", "Q2"):
        query = _query_text(name)
        on = JsonProcessor(workload.catalog, rewrite=_CONFIG_ALL).execute(query)
        off_config = RewriteConfig(True, True, True, two_step_aggregation=False)
        off = JsonProcessor(workload.catalog, rewrite=off_config).execute(query)
        rows.append(
            [
                name,
                on.simulated_seconds(ClusterSpec(nodes=2)),
                off.simulated_seconds(ClusterSpec(nodes=2)),
                on.stats.exchange_bytes,
                off.stats.exchange_bytes,
            ]
        )
    return ExperimentResult(
        experiment="ablation_two_step_aggregation",
        title="two-step aggregation on/off (2 simulated nodes)",
        columns=[
            "Query",
            "two-step (s)",
            "raw-exchange (s)",
            "two-step exchange (B)",
            "raw exchange (B)",
        ],
        rows=rows,
        notes="without the rule, raw tuples ship to the coordinator",
    )


def ablation_group_cardinality() -> ExperimentResult:
    """Group-by rule benefit vs group cardinality (Section 4.3: 'the
    larger the groups, the better the observed improvement')."""
    rows = []
    for stations, label in ((1000, "small groups"), (10, "large groups")):
        workload = W.sensor_workload(
            partitions=1, bytes_per_partition=250_000, seed=stations
        )
        # Group by station: fewer stations -> larger groups.
        query = (
            'for $r in collection("/sensors")("root")()("results")()\n'
            'group by $s := $r("station")\n'
            'return count($r("date"))'
        )
        before = _run(workload.catalog, query, _CONFIG_PIPE)
        after = _run(workload.catalog, query, _CONFIG_ALL)
        rows.append(
            [
                label,
                before.wall_seconds,
                after.wall_seconds,
                round(before.wall_seconds / max(after.wall_seconds, 1e-9), 2),
            ]
        )
    return ExperimentResult(
        experiment="ablation_group_cardinality",
        title="group-by rule benefit vs group cardinality",
        columns=["groups", "before (s)", "after (s)", "speedup"],
        rows=rows,
    )


def ablation_frame_size() -> ExperimentResult:
    """Frame size vs exchange frame counts (Hyracks' restriction)."""
    from repro.hyracks.tuples import count_frames, sizeof_tuples

    workload = W.sensor_workload(partitions=1, bytes_per_partition=150_000)
    catalog = workload.catalog
    items = catalog.read_collection("/sensors")
    from repro.correctness.oracle import iter_measurements

    sizes = sizeof_tuples([{"r": [m]} for m in iter_measurements(items)])
    rows = []
    for frame_bytes in (4 * 1024, 32 * 1024, 128 * 1024):
        frames = count_frames(sizes, frame_bytes)
        rows.append(
            [
                f"{frame_bytes // 1024}KB",
                frames,
                round(len(sizes) / max(frames, 1), 1),
            ]
        )
    return ExperimentResult(
        experiment="ablation_frame_size",
        title="frame size vs frames emitted for the Q0 tuple stream",
        columns=["frame size", "frames", "tuples/frame"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18a": fig18a,
    "fig18b": fig18b,
    "table1": table1,
    "fig19": fig19,
    "table2": table2,
    "table3": table3,
    "fig20": fig20,
    "fig21": fig21,
    "fig22": fig22,
    "fig23": fig23,
    "fig24": fig24,
    "fig25": fig25,
    "table4": table4,
    "ablation_projection_depth": ablation_projection_depth,
    "ablation_two_step_aggregation": ablation_two_step_aggregation,
    "ablation_group_cardinality": ablation_group_cardinality,
    "ablation_frame_size": ablation_frame_size,
}


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    return EXPERIMENTS[name]()
