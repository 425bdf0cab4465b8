"""Columnar segment cache: warm reruns skip JSON parsing entirely.

Layer 2 of the scan fast path (ROADMAP item 1).  The first scan of a
file under a given projection shreds the projected values into a binary
columnar segment keyed by ``(source id, content fingerprint, canonical
projection, malformed-input policy)``; later scans with an unchanged
fingerprint decode the segment straight into items and their stored
sizes, and the source's JSON is not read again.  Nothing read from the
cache directory is executed.  See :mod:`repro.cache.segments` for the
format and
:mod:`repro.cache.config` for scan-mode / cache-directory resolution
(``REPRO_SCAN_MODE`` / ``REPRO_SEGMENT_CACHE``).
"""

from repro.cache.config import (
    SCAN_MODES,
    resolve_scan_mode,
    resolve_segment_cache,
)
from repro.cache.segments import (
    CachedSegment,
    SegmentCache,
    canonical_projection,
    file_fingerprint,
    text_fingerprint,
)

__all__ = [
    "SCAN_MODES",
    "resolve_scan_mode",
    "resolve_segment_cache",
    "CachedSegment",
    "SegmentCache",
    "canonical_projection",
    "file_fingerprint",
    "text_fingerprint",
]
