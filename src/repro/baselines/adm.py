"""An AsterixDB-like engine.

AsterixDB shares VXQuery's infrastructure (Hyracks + Algebricks), so
this baseline shares this package's runtime — with the one difference
the paper identifies (Section 5.3): it **lacks the JSONiq pipelining
rules**.  Where VXQuery's projecting DATASCAN streams matched sub-items
out of the raw text, AsterixDB "waits to first gather all the
measurements in the array before it moves them to the next stage", and
it always converts input to its internal ADM data model.

Two modes, both evaluated in the paper:

- ``external`` — queries raw files without loading, but each top-level
  document is fully materialized (parsed to an item) before navigation;
- ``load`` — a load phase converts every file to binary ADM
  (:mod:`repro.baselines.adm_codec`); queries then decode ADM instead of
  parsing JSON, which is faster per document (the paper's
  "optimized to work better for data that is already in its own data
  model") at the price of the Table 1 load times.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LoadError
from repro.algebra.rules import RewriteConfig
from repro.baselines.adm_codec import decode_items, encode_item
from repro.hyracks.executor import QueryResult
from repro.jsonlib.items import Item, sizeof_item
from repro.jsonlib.path import Path, navigate
from repro.processor import JsonProcessor


@dataclass
class AdmLoadReport:
    """What an ADM load phase did."""

    documents: int = 0
    input_bytes: int = 0
    stored_bytes: int = 0
    seconds: float = 0.0


class MaterializingSource:
    """A DataSource wrapper that defeats projection pushdown.

    ``scan_collection`` materializes each top-level document completely
    and only then navigates the path — exactly the behaviour of a system
    without the pipelining rules.  Everything else delegates.
    """

    def __init__(self, inner, memory=None):
        self._inner = inner
        self.memory = memory

    def partition_count(self, name: str) -> int:
        return self._inner.partition_count(name)

    def read_document(self, uri: str) -> Item:
        return self._inner.read_document(uri)

    def read_collection(
        self, name: str, partition: int | None = None, report=None
    ):
        return self._inner.read_collection(name, partition, report=report)

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None, report=None
    ) -> Iterator[Item]:
        # An empty path makes the inner scan yield whole top-level
        # documents, fully built — the materialization the pipelining
        # rules avoid.
        for document in self._inner.scan_collection(
            name, Path(), partition, report=report
        ):
            if self.memory is not None:
                n_bytes = sizeof_item(document)
                self.memory.allocate(n_bytes)
                yield from navigate(document, path)
                self.memory.release(n_bytes)
            else:
                yield from navigate(document, path)


class AdmStorage:
    """Binary ADM storage: one ``.adm`` file per partition."""

    def __init__(self, directory: str):
        self.directory = directory
        self._partitions: dict[str, list[str]] = {}

    def store(self, name: str, source, memory=None) -> AdmLoadReport:
        """Convert *source*'s collection *name* into ADM partition files."""
        started = time.perf_counter()
        report = AdmLoadReport()
        key = name.strip("/")
        target_dir = os.path.join(self.directory, key)
        os.makedirs(target_dir, exist_ok=True)
        paths = []
        for partition in range(source.partition_count(name)):
            buffer = bytearray()
            for document in source.scan_collection(name, Path(), partition):
                encode_item(document, buffer)
                report.documents += 1
            path = os.path.join(target_dir, f"partition{partition}.adm")
            with open(path, "wb") as handle:
                handle.write(buffer)
            report.stored_bytes += len(buffer)
            paths.append(path)
        self._partitions[key] = paths
        report.seconds = time.perf_counter() - started
        return report

    # -- DataSource over ADM files ------------------------------------------------

    def partition_count(self, name: str) -> int:
        return len(self._paths(name))

    def stored_bytes(self, name: str) -> int:
        """On-disk size of the converted collection (Figure 18b)."""
        return sum(os.path.getsize(path) for path in self._paths(name))

    def read_document(self, uri: str) -> Item:
        raise LoadError("ADM storage holds collections, not documents")

    def read_collection(
        self, name: str, partition: int | None = None, report=None
    ):
        items: list[Item] = []
        paths = (
            self._paths(name)
            if partition is None
            else [self._paths(name)[partition]]
        )
        for path in paths:
            with open(path, "rb") as handle:
                items.extend(decode_items(handle.read()))
        return items

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None, report=None
    ) -> Iterator[Item]:
        adm_paths = (
            self._paths(name)
            if partition is None
            else [self._paths(name)[partition]]
        )
        for adm_path in adm_paths:
            with open(adm_path, "rb") as handle:
                buffer = handle.read()
            for document in decode_items(buffer):
                yield from navigate(document, path)

    def _paths(self, name: str) -> list[str]:
        key = name.strip("/")
        if key not in self._partitions:
            raise LoadError(f"collection {name!r} has not been loaded into ADM")
        return self._partitions[key]


class AdmEngine:
    """The AsterixDB-like engine: VXQuery's runtime minus pipelining.

    Parameters
    ----------
    source:
        The raw-JSON data source (catalog or in-memory).
    mode:
        ``"external"`` queries raw files directly; ``"load"`` requires a
        :meth:`load` call first and then queries binary ADM.
    storage_dir:
        Where ``load`` mode writes its ``.adm`` files.
    """

    def __init__(self, source, mode: str = "external", storage_dir: str | None = None):
        if mode not in ("external", "load"):
            raise LoadError(f"unknown AdmEngine mode {mode!r}")
        self.mode = mode
        self._raw_source = source
        self._storage = None
        if mode == "load":
            if storage_dir is None:
                raise LoadError("load mode requires a storage_dir")
            self._storage = AdmStorage(storage_dir)
            self._processor = None
        else:
            self._processor = JsonProcessor(
                source=MaterializingSource(source),
                rewrite=RewriteConfig.all(),
            )

    def load(self, name: str) -> AdmLoadReport:
        """Convert collection *name* to ADM (load mode only)."""
        if self._storage is None:
            raise LoadError("external mode has no load phase")
        report = self._storage.store(name, self._raw_source)
        self._processor = JsonProcessor(
            source=MaterializingSource(self._storage),
            rewrite=RewriteConfig.all(),
        )
        return report

    def execute(self, query: str) -> QueryResult:
        """Run a JSONiq query (after :meth:`load` in load mode)."""
        if self._processor is None:
            raise LoadError("call load() before querying in load mode")
        return self._processor.execute(query)

    def stored_bytes(self, name: str) -> int:
        """Converted collection size (load mode)."""
        if self._storage is None:
            raise LoadError("external mode stores nothing")
        return self._storage.stored_bytes(name)
