"""The four workloads: their data, configuration, queries and traffic.

Sizes are chosen so that every workload completes well over 100 ops in
the run length ``BENCHMARK.json`` fixes, on a 2-core host; ``tiny``
shrinks the data for the smoke test.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import (
    CollectionCatalog,
    JsonProcessor,
    QueryService,
    SensorDataConfig,
    TenantQuota,
    write_sensor_collection,
)
from repro.bench.queries import ALL_QUERIES
from repro.correctness.oracle import oracle_result

from perfbench import reference
from perfbench.spec import usable_cores

WRAPPED_PATH = '("root")()("results")()'
DATA_TYPES = ("TMIN", "TMAX", "WIND", "PRCP")
STATIONS = 200
FILE_KIB = 32


@dataclass(frozen=True)
class Collection:
    name: str
    partitions: int
    kib_per_partition: int
    #: added to the run's seed, so two collections never share bytes
    seed_offset: int = 0


@dataclass(frozen=True)
class Query:
    """One query text, its class, and its independent answer."""

    cls: str
    text: str
    #: documents by collection (``reference.load_documents``) -> items
    reference: Callable[[dict], list]


def write_collections(
    base_dir: str, collections: tuple[Collection, ...], seed: int, tiny: bool
) -> None:
    """Generate every collection of a workload from *seed*."""
    for collection in collections:
        kib = FILE_KIB if tiny else collection.kib_per_partition
        write_sensor_collection(
            base_dir,
            collection.name,
            collection.partitions,
            kib * 1024,
            SensorDataConfig(
                seed=seed + collection.seed_offset,
                stations=STATIONS,
                start_year=2003,
                year_span=2,
                measurements_per_array=32,
                target_file_bytes=FILE_KIB * 1024,
            ),
        )


# -- queries ------------------------------------------------------------------


def paper_query(name: str, collection: str = "/sensors") -> Query:
    """One of the paper's Q0, Q0b, Q1, Q1b, Q2, answered by the oracle."""
    return Query(
        name.lower(),
        ALL_QUERIES[name](collection),
        lambda documents: oracle_result(name, documents[collection]),
    )


def selection_query(collection: str, station: str, data_type: str) -> Query:
    return Query(
        "sel",
        f'for $r in collection("{collection}"){WRAPPED_PATH}\n'
        f'where $r("station") eq "{station}"\n'
        f'  and $r("dataType") eq "{data_type}"\n'
        "return $r",
        lambda documents: reference.selection(
            documents[collection], station, data_type
        ),
    )


def day_query(collection: str, month: int, day: int) -> Query:
    return Query(
        "q0",
        f'for $r in collection("{collection}"){WRAPPED_PATH}\n'
        'let $datetime := dateTime(data($r("date")))\n'
        "where year-from-dateTime($datetime) ge 2003\n"
        f"  and month-from-dateTime($datetime) eq {month}\n"
        f"  and day-from-dateTime($datetime) eq {day}\n"
        "return $r",
        lambda documents: reference.on_day(documents[collection], month, day),
    )


def count_query(collection: str, data_type: str, pre_optimized: bool) -> Query:
    counted = (
        'count(for $i in $r return $i("station"))'
        if pre_optimized
        else 'count($r("station"))'
    )
    return Query(
        "q1b" if pre_optimized else "q1",
        f'for $r in collection("{collection}"){WRAPPED_PATH}\n'
        f'where $r("dataType") eq "{data_type}"\n'
        'group by $date := $r("date")\n'
        f"return {counted}",
        lambda documents: reference.stations_per_date(
            documents[collection], data_type
        ),
    )


def difference_query(
    collection: str, low_type: str, high_type: str, divisor: int
) -> Query:
    return Query(
        "q2",
        "avg(\n"
        f'for $r_min in collection("{collection}"){WRAPPED_PATH}\n'
        f'for $r_max in collection("{collection}"){WRAPPED_PATH}\n'
        'where $r_min("station") eq $r_max("station")\n'
        '  and $r_min("date") eq $r_max("date")\n'
        f'  and $r_min("dataType") eq "{low_type}"\n'
        f'  and $r_max("dataType") eq "{high_type}"\n'
        'return $r_max("value") - $r_min("value")\n'
        f") div {divisor}",
        lambda documents: reference.average_difference(
            documents[collection], low_type, high_type, divisor
        ),
    )


# -- batch workloads ----------------------------------------------------------


@dataclass(frozen=True)
class BatchWorkload:
    """Rounds of the paper's queries, one op at a time, through
    ``JsonProcessor``."""

    name: str
    collections: tuple[Collection, ...]
    query_names: tuple[str, ...]
    backend: str = "sequential"
    cached: bool = False

    @property
    def workers(self) -> int:
        return min(usable_cores(), 4) if self.backend == "process" else 1

    def queries(self) -> list[Query]:
        return [paper_query(name) for name in self.query_names]

    def processor(self, base_dir: str, cache_dir: str) -> JsonProcessor:
        """The system under test; *cache_dir* is used only when cached."""
        return JsonProcessor.from_directory(
            base_dir,
            backend=self.backend,
            max_workers=self.workers,
            scan_mode="ondemand",
            segment_cache_dir=cache_dir if self.cached else "",
        )

    def config(self) -> dict:
        return {
            "kind": "batch",
            "collections": [vars(c) for c in self.collections],
            "queries": list(self.query_names),
            "backend": self.backend,
            "max_workers": self.workers,
            "scan_mode": "ondemand",
            "segment_cache": self.cached,
        }


# -- the service workload -----------------------------------------------------

#: requests per tenant in every block of 100
TENANT_BLOCK = (("dash", 62), ("report", 23), ("adhoc", 15))
OUTSTANDING = 4
DIVISORS = (1, 2, 5, 10, 100)


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop of three tenants against ``tools/serve.py``."""

    name: str
    collections: tuple[Collection, ...]
    hot: str = "/sensors"
    cold: str = "/archive"
    max_concurrent: int = 2
    result_cache: int = 64
    max_queued: int = 16
    # what ``tools/serve.py`` runs with: its default backend, and the
    # segment cache the benchmark points it at
    backend = "sequential"
    workers = 1
    cached = True

    def processor(self, base_dir: str, cache_dir: str) -> JsonProcessor:
        """A one-shot processor configured like a service slot, for the
        traced pass to take the query classes apart."""
        return JsonProcessor.from_directory(
            base_dir, backend=self.backend, segment_cache_dir=cache_dir
        )

    def serve_arguments(self, base_dir: str) -> list[str]:
        return [
            os.path.join("tools", "serve.py"),
            "--data", base_dir,
            "--max-concurrent", str(self.max_concurrent),
            "--result-cache", str(self.result_cache),
            "--max-queued", str(self.max_queued),
        ]

    def in_process_service(self, base_dir: str, cache_dir: str) -> QueryService:
        """The ``QueryService`` that ``tools/serve.py`` builds from
        :meth:`serve_arguments`, for spans around its public calls."""
        return QueryService(
            CollectionCatalog(base_dir, segment_cache_dir=cache_dir),
            max_concurrent_queries=self.max_concurrent,
            result_cache_size=self.result_cache,
            default_quota=TenantQuota(
                max_concurrent=2,  # the default of serve.py's --max-running
                max_queued=self.max_queued,
            ),
        )

    def queries(self) -> list[Query]:
        """One fixed query per template and collection it runs on: the
        warm-up round (it fills the segment cache for every projection)
        and the classes the traced pass takes apart."""
        return [
            selection_query(self.hot, "GSW000000", "TMAX"),
            day_query(self.hot, 12, 25),
            count_query(self.hot, "TMIN", pre_optimized=False),
            count_query(self.hot, "TMIN", pre_optimized=True),
            difference_query(self.cold, "TMIN", "TMAX", 10),
            day_query(self.cold, 12, 25),
        ]

    def requests(self, seed: int) -> Iterator[tuple[str, Query]]:
        """The endless seeded request stream: ``(tenant, query)``.

        Texts differ only in real literals.  ``dash`` draws its station
        Zipf(1.1), so its texts repeat and the result cache matters;
        ``report`` and ``adhoc`` mostly miss it.

        The stream comes in shuffled blocks of 100 that each hold the
        tenants, and within a tenant the templates, in their exact
        shares, with one Zipf draw per equal slice of probability.  The
        traffic is the same as with independent draws, but a run's
        cache-hit ratio, and so its throughput, no longer swings by
        several percent with the luck of the seed.
        """
        rng = random.Random(seed)
        cumulative = list(
            itertools.accumulate(1 / rank**1.1 for rank in range(1, STATIONS + 1))
        )
        counts = dict(TENANT_BLOCK)
        while True:
            block = []
            first_type = rng.randrange(len(DATA_TYPES))
            for k in range(counts["dash"]):
                share = (k + rng.random()) / counts["dash"]
                station = bisect.bisect(cumulative, share * cumulative[-1])
                data_type = DATA_TYPES[(first_type + k) % len(DATA_TYPES)]
                block.append(
                    ("dash", selection_query(self.hot, f"GSW{station:06d}", data_type))
                )
            for k in range(counts["report"]):
                if k % 3 == 0:
                    query = day_query(
                        self.hot, rng.randint(1, 12), rng.randint(1, 28)
                    )
                else:
                    query = count_query(
                        self.hot, rng.choice(DATA_TYPES), pre_optimized=k % 3 == 2
                    )
                block.append(("report", query))
            for k in range(counts["adhoc"]):
                if k % 2 == 0:
                    low_type, high_type = rng.sample(DATA_TYPES, 2)
                    query = difference_query(
                        self.cold, low_type, high_type, rng.choice(DIVISORS)
                    )
                else:
                    query = day_query(
                        self.cold, rng.randint(1, 12), rng.randint(1, 28)
                    )
                block.append(("adhoc", query))
            rng.shuffle(block)
            yield from block

    def config(self) -> dict:
        return {
            "kind": "service",
            "collections": [vars(c) for c in self.collections],
            "max_concurrent": self.max_concurrent,
            "result_cache": self.result_cache,
            "max_queued": self.max_queued,
            "segment_cache": True,
            "loop": "closed",
            "outstanding": OUTSTANDING,
            "tenant_shares_percent": dict(TENANT_BLOCK),
        }


_SENSORS = Collection("sensors", 4, 64)

WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchWorkload(
            "raw_scan", (_SENSORS,), ("Q0", "Q0b", "Q1", "Q1b", "Q2")
        ),
        BatchWorkload(
            "warm_cache",
            (_SENSORS,),
            ("Q0", "Q0b", "Q1", "Q1b", "Q2"),
            cached=True,
        ),
        BatchWorkload(
            "parallel",
            (Collection("sensors", 8, 64),),
            ("Q0", "Q1", "Q2"),
            backend="process",
        ),
        ServiceWorkload(
            "service_mix",
            (
                Collection("sensors", 2, 96),
                Collection("archive", 4, 96, seed_offset=1),
            ),
        ),
    )
}
