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

from dataclasses import dataclass

from repro.cache.config import validate_fingerprint_mode
from repro.compiler.pipeline import LRUCache


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


class ResultCache(LRUCache):
    """An :class:`~repro.compiler.pipeline.LRUCache` over ``(plan key,
    source fingerprints) -> CachedResult``."""
