"""Scaled dataset builders and per-engine query adapters.

Datasets are built once per process into a temporary directory and
cached by configuration; ``REPRO_BENCH_SCALE`` multiplies every data
size (default 1.0, sized so the full experiment suite runs in minutes on
a laptop — the paper's GB-scale runs shrink by roughly 10^3-10^5, as
documented per experiment in EXPERIMENTS.md).

The adapters express the paper's queries in each baseline engine's
native operations (match/unwind/group pipelines for the document store,
filter/group/join over flattened rows for the SQL engine).
"""

from __future__ import annotations

import atexit
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

from repro.baselines.docstore import DocumentStore
from repro.baselines.sqlengine import InMemorySQLEngine
from repro.data.catalog import CollectionCatalog
from repro.data.generator import SensorDataConfig, write_sensor_collection
from repro.envutil import env_setting
from repro.errors import ReproError

#: environment variable scaling every benchmark dataset
BENCH_SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


def bench_scale() -> float:
    """The global data-size multiplier (``REPRO_BENCH_SCALE``).

    Unset or empty means no override (1.0); anything but a positive
    finite number is an error naming the variable.
    """
    value = env_setting(BENCH_SCALE_ENV_VAR, "")
    if not value:
        return 1.0
    try:
        scale = float(value)
    except ValueError:
        scale = math.nan
    if not 0 < scale < math.inf:
        raise ReproError(
            f"{BENCH_SCALE_ENV_VAR} must be a positive number, got {value!r}"
        )
    return scale


_WORK_DIR: str | None = None
_CACHE: dict = {}


def _work_dir() -> str:
    global _WORK_DIR
    if _WORK_DIR is None:
        _WORK_DIR = tempfile.mkdtemp(prefix="repro-bench-")
        atexit.register(shutil.rmtree, _WORK_DIR, ignore_errors=True)
    return _WORK_DIR


@dataclass
class Workload:
    """A built, partitioned sensor collection."""

    directory: str
    catalog: CollectionCatalog
    collection: str
    wrapped: bool
    config: SensorDataConfig
    partitions: int
    total_bytes: int

    def repartitioned(self, partitions: int) -> CollectionCatalog:
        """A catalog over the same files split into *partitions* groups.

        This is how the single-node speed-up experiment varies the
        partition count without regenerating data: the file pool is
        dealt round-robin into the requested number of partitions.
        """
        files = self.catalog.files(self.collection)
        groups = [files[i::partitions] for i in range(partitions)]
        catalog = CollectionCatalog()
        catalog.register(self.collection, groups)
        return catalog

    def prefix_catalog(self, partitions: int) -> CollectionCatalog:
        """A catalog over only the first *partitions* partitions.

        This is the scale-up helper: per-partition data stays fixed
        while the number of partitions grows with the cluster.
        """
        groups = [
            self.catalog.files(self.collection, p) for p in range(partitions)
        ]
        catalog = CollectionCatalog()
        catalog.register(self.collection, groups)
        return catalog


def sensor_workload(
    partitions: int,
    bytes_per_partition: int,
    measurements_per_array: int = 32,
    wrapped: bool = True,
    file_bytes: int = 32 * 1024,
    seed: int = 7,
) -> Workload:
    """Build (or fetch from cache) a sensor collection.

    ``bytes_per_partition`` is multiplied by ``REPRO_BENCH_SCALE``.
    """
    scaled = int(bytes_per_partition * bench_scale())
    key = (partitions, scaled, measurements_per_array, wrapped, file_bytes, seed)
    if key in _CACHE:
        return _CACHE[key]
    config = SensorDataConfig(
        seed=seed,
        # A narrow date window keeps group cardinality realistic: many
        # measurements share each date, as in the paper's NOAA data.
        start_year=2003,
        year_span=2,
        measurements_per_array=measurements_per_array,
        target_file_bytes=min(file_bytes, scaled),
    )
    label = "w" if wrapped else "u"
    name = f"sensors-{label}-{partitions}x{scaled}-m{measurements_per_array}-s{seed}"
    directory = os.path.join(_work_dir(), name)
    write_sensor_collection(
        directory,
        "sensors",
        partitions=partitions,
        bytes_per_partition=scaled,
        config=config,
        wrapped=wrapped,
    )
    catalog = CollectionCatalog(directory)
    workload = Workload(
        directory=directory,
        catalog=catalog,
        collection="/sensors",
        wrapped=wrapped,
        config=config,
        partitions=partitions,
        total_bytes=catalog.total_bytes("/sensors"),
    )
    _CACHE[key] = workload
    return workload


# ---------------------------------------------------------------------------
# Shared predicates
# ---------------------------------------------------------------------------


def is_dec25_from_2003(date_text: str) -> bool:
    """Q0/Q0b's predicate on the compact date format."""
    return (
        len(date_text) >= 8
        and date_text[4:6] == "12"
        and date_text[6:8] == "25"
        and int(date_text[:4]) >= 2003
    )


# ---------------------------------------------------------------------------
# Document-store (MongoDB-like) adapters
# ---------------------------------------------------------------------------


def mongo_q0b(store: DocumentStore, name: str) -> list[str]:
    """Q0b as a match over unwound measurements, projecting the date."""
    return [
        measurement["date"]
        for measurement in store.unwind(name, "results")
        if is_dec25_from_2003(measurement["date"])
    ]


def mongo_q1(store: DocumentStore, name: str) -> dict:
    """Q1 as unwind + match + group-count."""
    return store.aggregate_count(
        (
            m
            for m in store.unwind(name, "results")
            if m["dataType"] == "TMIN"
        ),
        key=lambda m: m["date"],
    )


def mongo_q2(store: DocumentStore, name: str) -> float | None:
    """Q2 via the paper's workaround: unwind, project, then hash join."""
    left = (
        {"station": m["station"], "date": m["date"], "value": m["value"]}
        for m in store.unwind(name, "results")
        if m["dataType"] == "TMIN"
    )
    right = (
        {"station": m["station"], "date": m["date"], "value": m["value"]}
        for m in store.unwind(name, "results")
        if m["dataType"] == "TMAX"
    )
    total = 0.0
    pairs = 0
    for tmax_row, tmin_row in store.join_projected(
        right, left, key=lambda m: (m["station"], m["date"])
    ):
        total += tmax_row["value"] - tmin_row["value"]
        pairs += 1
    if pairs == 0:
        return None
    return (total / pairs) / 10


def mongo_q2_naive(store: DocumentStore, name: str) -> dict:
    """The naive Q2 strategy: group same-key measurements into one
    document.  Fails with :class:`DocumentTooLargeError` on realistic
    data (Section 5.4)."""
    return store.group_documents(
        (
            m
            for m in store.unwind(name, "results")
            if m["dataType"] in ("TMIN", "TMAX")
        ),
        key=lambda m: (m["station"], m["date"]),
    )


# ---------------------------------------------------------------------------
# SQL-engine (SparkSQL-like) adapters
# ---------------------------------------------------------------------------


def _column(wrapped: bool, field: str) -> str:
    return f"root.results.{field}" if wrapped else f"results.{field}"


def spark_q1(engine: InMemorySQLEngine, table: str, wrapped: bool) -> dict:
    """Q1 as filter + group-count over flattened rows."""
    data_type = _column(wrapped, "dataType")
    date = _column(wrapped, "date")
    return engine.group_count(
        table,
        key=lambda row: row.get(date),
        where=lambda row: row.get(data_type) == "TMIN",
    )


def spark_q0b(engine: InMemorySQLEngine, table: str, wrapped: bool) -> list:
    """Q0b as filter + project over flattened rows."""
    date = _column(wrapped, "date")
    rows = engine.select(
        table,
        where=lambda row: isinstance(row.get(date), str)
        and is_dec25_from_2003(row[date]),
        columns=[date],
    )
    return [row[date] for row in rows]


def spark_q2(engine: InMemorySQLEngine, table: str, wrapped: bool) -> float | None:
    """Q2 as a self-join over flattened rows."""
    data_type = _column(wrapped, "dataType")
    station = _column(wrapped, "station")
    date = _column(wrapped, "date")
    value = _column(wrapped, "value")
    result = engine.join_avg_difference(
        table,
        left_where=lambda row: row.get(data_type) == "TMIN",
        right_where=lambda row: row.get(data_type) == "TMAX",
        key=lambda row: (row.get(station), row.get(date)),
        value_column=value,
    )
    if result is None:
        return None
    return result / 10
