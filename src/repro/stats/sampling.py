"""Sampled collection statistics.

A :class:`SourceStatistics` lives on each data source
(:class:`~repro.data.catalog.CollectionCatalog` /
:class:`~repro.data.catalog.InMemorySource`).  Registration invalidates
the collection's entry; the first consumer (usually the cost phase, via
``stats_snapshot``) samples a bounded prefix of each partition — the
first ``sample_limit`` top-level documents, walked recursively — and the
result is memoized until the next registration or an explicit
``refresh_stats``.

Sampling is deterministic: partitions and files are visited in
registration order and the prefix is positional, never random, so the
same data always produces the same :class:`CollectionStats` and the same
:meth:`StatsSnapshot.fingerprint`.  That fingerprint is part of the
plan-cache key — a refreshed catalog can never serve a plan
costed against stale statistics.

Sampling is also advisory: malformed texts and unreadable files are
skipped silently (their bytes still count toward extrapolation), and a
collection that cannot be sampled at all simply has no stats, which the
cost model treats as "leave the plan alone".

The per-partition document sample limit is the source's
``stats_sample`` (default :data:`DEFAULT_SAMPLE_LIMIT`; ``0`` disables
sampling).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.algebra.context import normalize_collection_name as _normalize
from repro.errors import JsonError, ReproError
from repro.jsonlib.items import canonical_atomic, is_atomic, sizeof_item
from repro.jsonlib.path import Path
from repro.jsonlib.ondemand import scan_text

#: documents sampled per partition when nothing else is configured.
DEFAULT_SAMPLE_LIMIT = 64

#: distinct-value tracking stops growing past this many values per key.
_DISTINCT_CAP = 256

#: per-document guard: stop walking a pathological document past this.
_MAX_WALK_NODES = 10_000


def resolve_stats_sample(explicit: int | None = None) -> int:
    """Resolve the per-partition sample limit (0 disables sampling):
    an explicit limit, else :data:`DEFAULT_SAMPLE_LIMIT`."""
    if explicit is None:
        return DEFAULT_SAMPLE_LIMIT
    limit = int(explicit)
    if limit < 0:
        raise ReproError(f"stats sample limit must be >= 0, got {explicit!r}")
    return limit


@dataclass(frozen=True)
class KeyStats:
    """Sampled statistics of one object key (merged across nesting depth)."""

    key: str
    count: int  # occurrences among sampled objects
    distinct: int  # distinct atomic values seen (capped)
    distinct_saturated: bool  # True when the distinct cap was hit
    avg_bytes: float  # mean sizeof_item of the values
    arrays: int  # occurrences whose value is an array
    avg_array_len: float  # mean length of those arrays

    def _fingerprint_parts(self):
        return (
            self.key,
            self.count,
            self.distinct,
            self.distinct_saturated,
            round(self.avg_bytes, 6),
            self.arrays,
            round(self.avg_array_len, 6),
        )


@dataclass(frozen=True)
class PartitionStats:
    """Sampled prefix of one partition plus its extrapolation inputs."""

    index: int
    sampled_documents: int
    sampled_objects: int  # nested objects walked (documents included)
    sampled_bytes: int  # text bytes of the consumed prefix
    total_bytes: int  # full partition size
    exhausted: bool  # True when the whole partition was sampled
    root_arrays: int = 0  # sampled documents that are arrays
    root_members: int = 0  # total members of those arrays

    def _scale(self) -> float:
        if self.exhausted or self.sampled_bytes <= 0:
            return 1.0
        return max(1.0, self.total_bytes / self.sampled_bytes)

    @property
    def estimated_documents(self) -> int:
        return round(self.sampled_documents * self._scale())

    @property
    def estimated_objects(self) -> int:
        return round(self.sampled_objects * self._scale())

    def _fingerprint_parts(self):
        return (
            self.index,
            self.sampled_documents,
            self.sampled_objects,
            self.sampled_bytes,
            self.total_bytes,
            self.exhausted,
            self.root_arrays,
            self.root_members,
        )


@dataclass(frozen=True)
class CollectionStats:
    """One collection's sampled statistics (picklable, deterministic)."""

    collection: str
    sample_limit: int
    partitions: tuple = ()
    keys: tuple = ()  # KeyStats sorted by key name
    _by_key: dict = field(
        default=None, repr=False, compare=False, hash=False
    )
    #: :meth:`fingerprint`, computed on first use (the stats are frozen)
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_by_key", {stats.key: stats for stats in self.keys}
        )

    def __getstate__(self):
        return {
            "collection": self.collection,
            "sample_limit": self.sample_limit,
            "partitions": self.partitions,
            "keys": self.keys,
        }

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "_by_key", {stats.key: stats for stats in self.keys}
        )
        object.__setattr__(self, "_fingerprint", None)

    @property
    def documents(self) -> int:
        """Estimated top-level documents across all partitions."""
        return sum(p.estimated_documents for p in self.partitions)

    @property
    def objects(self) -> int:
        """Estimated nested objects (records) across all partitions."""
        return sum(p.estimated_objects for p in self.partitions)

    @property
    def sampled_objects(self) -> int:
        return sum(p.sampled_objects for p in self.partitions)

    @property
    def root_fanout(self) -> float | None:
        """Mean length of array documents (None when none were sampled).

        The fanout of a leading ``()`` step over a collection of
        array-shaped files — ``collection("/x")()``.
        """
        arrays = sum(p.root_arrays for p in self.partitions)
        if not arrays:
            return None
        return sum(p.root_members for p in self.partitions) / arrays

    def key(self, name: str) -> KeyStats | None:
        return self._by_key.get(name)

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            payload = (
                self.collection,
                self.sample_limit,
                tuple(p._fingerprint_parts() for p in self.partitions),
                tuple(k._fingerprint_parts() for k in self.keys),
            )
            object.__setattr__(
                self,
                "_fingerprint",
                hashlib.sha1(repr(payload).encode("utf-8")).hexdigest(),
            )
        return self._fingerprint


class StatsSnapshot:
    """Immutable ``collection -> CollectionStats`` mapping with a fingerprint.

    This is what the cost phase consumes and what the plan-cache key
    embeds: two compilations with the same query text, the same
    rewrite config, and the same snapshot fingerprint are interchangeable.
    """

    __slots__ = ("_collections",)

    def __init__(self, collections: dict[str, CollectionStats]):
        self._collections = dict(collections)

    def __bool__(self) -> bool:
        return bool(self._collections)

    def __len__(self) -> int:
        return len(self._collections)

    def collections(self) -> list[str]:
        return sorted(self._collections)

    def for_collection(self, name: str) -> CollectionStats | None:
        return self._collections.get(_normalize(name))

    def fingerprint(self) -> str:
        payload = tuple(
            (name, self._collections[name].fingerprint())
            for name in sorted(self._collections)
        )
        return hashlib.sha1(repr(payload).encode("utf-8")).hexdigest()


class _KeyAccumulator:
    __slots__ = ("count", "bytes", "values", "saturated", "arrays",
                 "array_members")

    def __init__(self):
        self.count = 0
        self.bytes = 0
        self.values: set = set()
        self.saturated = False
        self.arrays = 0
        self.array_members = 0

    def observe(self, value) -> None:
        self.count += 1
        self.bytes += sizeof_item(value)
        if isinstance(value, list):
            self.arrays += 1
            self.array_members += len(value)
        if is_atomic(value):
            canonical = canonical_atomic(value)
            if len(self.values) < _DISTINCT_CAP:
                self.values.add(canonical)
            elif canonical not in self.values:
                self.saturated = True

    def finish(self, key: str) -> KeyStats:
        return KeyStats(
            key=key,
            count=self.count,
            distinct=len(self.values),
            distinct_saturated=self.saturated,
            avg_bytes=self.bytes / self.count if self.count else 0.0,
            arrays=self.arrays,
            avg_array_len=(
                self.array_members / self.arrays if self.arrays else 0.0
            ),
        )


def _walk_document(doc, keys: dict[str, _KeyAccumulator]) -> int:
    """Count nested objects of *doc* and accumulate per-key stats."""
    objects = 0
    budget = _MAX_WALK_NODES
    stack = [doc]
    while stack and budget > 0:
        budget -= 1
        node = stack.pop()
        if isinstance(node, dict):
            objects += 1
            for key, value in node.items():
                acc = keys.get(key)
                if acc is None:
                    acc = keys[key] = _KeyAccumulator()
                acc.observe(value)
                if isinstance(value, (dict, list)):
                    stack.append(value)
        elif isinstance(node, list):
            stack.extend(
                child for child in node if isinstance(child, (dict, list))
            )
    return objects


def sample_collection(source, name: str, sample_limit: int) -> CollectionStats | None:
    """Sample *name* from *source*, or None when it cannot be sampled.

    *source* must provide ``stats_partitions(name)`` returning, per
    partition, ``(texts, total_bytes)`` where *texts* lazily yields the
    partition's raw JSON texts in registration order.
    """
    if sample_limit <= 0:
        return None
    try:
        partitions = source.stats_partitions(name)
    except ReproError:
        return None
    partition_stats: list[PartitionStats] = []
    keys: dict[str, _KeyAccumulator] = {}
    for index, (texts, total_bytes) in enumerate(partitions):
        documents = 0
        objects = 0
        sampled_bytes = 0
        root_arrays = 0
        root_members = 0
        exhausted = True
        for text in texts:
            if documents >= sample_limit:
                exhausted = False
                break
            sampled_bytes += len(text)
            try:
                # Materialized here, so a text with one malformed
                # record contributes nothing rather than a prefix.
                docs = list(scan_text(text, Path()))
            except JsonError:
                continue
            for doc in docs:
                documents += 1
                if isinstance(doc, list):
                    root_arrays += 1
                    root_members += len(doc)
                objects += _walk_document(doc, keys)
        partition_stats.append(
            PartitionStats(
                index=index,
                sampled_documents=documents,
                sampled_objects=objects,
                sampled_bytes=sampled_bytes,
                total_bytes=total_bytes,
                exhausted=exhausted,
                root_arrays=root_arrays,
                root_members=root_members,
            )
        )
    return CollectionStats(
        collection=_normalize(name),
        sample_limit=sample_limit,
        partitions=tuple(partition_stats),
        keys=tuple(
            keys[key].finish(key) for key in sorted(keys)
        ),
    )


class SourceStatistics:
    """Per-source stats registry: invalidate on register, sample lazily.

    Memoized per collection; ``None`` entries mean "sampling failed or
    disabled" and are also memoized so a missing collection is not
    rescanned on every compile.  Plain-dict state, so it pickles into
    process-backend work units along with its owning source.
    """

    def __init__(self, sample_limit: int | None = None):
        self.sample_limit = resolve_stats_sample(sample_limit)
        self._stats: dict[str, CollectionStats | None] = {}

    @property
    def enabled(self) -> bool:
        return self.sample_limit > 0

    def invalidate(self, name: str | None = None) -> None:
        """Drop memoized stats for one collection (or all of them)."""
        if name is None:
            self._stats.clear()
        else:
            self._stats.pop(_normalize(name), None)

    def collection_stats(self, source, name: str) -> CollectionStats | None:
        if not self.enabled:
            return None
        key = _normalize(name)
        if key not in self._stats:
            self._stats[key] = sample_collection(
                source, key, self.sample_limit
            )
        return self._stats[key]

    def snapshot(self, source, names) -> StatsSnapshot:
        """Snapshot over *names* (collections that sampled successfully)."""
        collections: dict[str, CollectionStats] = {}
        for name in names:
            stats = self.collection_stats(source, name)
            if stats is not None:
                collections[_normalize(name)] = stats
        return StatsSnapshot(collections)
