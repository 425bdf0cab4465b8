"""Optional result cache keyed by plan fingerprint × source fingerprints.

A service answering the same query over unchanged inputs should not
re-execute it.  The cache key combines:

- the **plan key** — (query text, toggle-config label, the source's
  malformed-input policy): everything that determines the compiled
  plan and its observable scan behaviour; and
- the **source fingerprints** — one fingerprint per file (or in-memory
  text) of every collection the plan scans, computed under the
  service's fingerprint mode (:mod:`repro.cache.config`).

File-change invalidation is implicit: editing, truncating, or
replacing any input file changes its fingerprint, which changes the
key, so the stale entry is simply never matched again and ages out of
the LRU.  Under ``content`` mode (the service default) even a
same-size in-place rewrite that fools ``stat`` misses the cache.

Only clean (non-degraded) results are cached: a partial result embeds
skip events whose replay belongs to the resilience layer, not to a
cache.  Hits return the stored items list shallow-copied — callers
that mutate the returned *item objects* corrupt the cache; the service
contract (like the segment cache's) is that results are read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.cache.config import validate_fingerprint_mode


def source_fingerprints(source, collections, mode: str):
    """Fingerprint every input of *collections* under *mode*.

    Returns the source's ``fingerprints(collections, mode)``: ``(label,
    fingerprint)`` pairs in deterministic (collection, partition, file)
    order, or ``None`` when the source cannot be fingerprinted (a
    source without that method, or a file vanished mid-lookup) — the
    caller then skips the cache for this request.
    """
    validate_fingerprint_mode(mode)
    fingerprints = getattr(source, "fingerprints", None)
    return None if fingerprints is None else fingerprints(collections, mode)


@dataclass
class CachedResult:
    """One cached execution: items plus the telemetry worth replaying."""

    items: list
    stats: object
    degradation: object
    strategy: str


class ResultCache:
    """Thread-safe LRU over ``(plan key, source fingerprints) -> result``."""

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key) -> CachedResult | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key, result: CachedResult) -> None:
        with self._lock:
            if not self.capacity:
                return
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
