"""Scan-mode and segment-cache resolution (explicit > env > default),
done once, by a source's constructor; nothing changes either later.

Scan modes select the per-record projector used by every DATASCAN:

- ``ondemand`` (default) — the on-demand navigator
  (:mod:`repro.jsonlib.ondemand`): walks each record's text along the
  projection path's head key by key, up to its first ``()`` array,
  decodes each member of that array with one call of the stdlib C
  scanner and navigates the rest of the path over it in Python; a
  counted scan (a profile, or a segment cache's cold fill) decodes with
  a second decoder that refuses repeated keys, so its counters equal
  the key walk's.  Memory stays bounded by the largest top-level value
  plus one decoded member.  An irregular record is re-projected by
  ``text``.
- ``text`` — the raw-text skipper (:mod:`repro.jsonlib.textscan`),
  the canonical reference implementation and fallback authority.

Both produce byte-identical items, errors, and degradation records;
they differ only in speed and in which diagnostic counters they
populate.  Parse-then-navigate (``navigate(parse(text), path)``) is the
reference both are tested against, not a mode.
"""

from __future__ import annotations

from repro.envutil import env_setting
from repro.errors import ReproError

SCAN_MODES = ("ondemand", "text")

#: Environment default for :func:`resolve_scan_mode`.
SCAN_MODE_ENV = "REPRO_SCAN_MODE"

#: Environment default for :func:`resolve_segment_cache` (a directory
#: path; empty/unset disables the cache).
SEGMENT_CACHE_ENV = "REPRO_SEGMENT_CACHE"

#: How caches fingerprint on-disk sources: ``stat`` (size, timestamps,
#: inode — fast, with a same-size in-place rewrite staleness window; a
#: segment cache's default) or ``content`` (hash the bytes — no
#: staleness window; the long-lived query service's result cache and
#: its private copy of a source's segment cache).
FINGERPRINT_MODES = ("stat", "content")


def validate_scan_mode(mode: str) -> str:
    if mode not in SCAN_MODES:
        raise ReproError(
            f"unknown scan mode {mode!r}; expected one of {', '.join(SCAN_MODES)}"
        )
    return mode


def resolve_scan_mode(mode: str | None = None) -> str:
    """Resolve a scan mode: explicit argument > $REPRO_SCAN_MODE > ondemand."""
    if mode is not None:
        return validate_scan_mode(mode)
    env = env_setting(SCAN_MODE_ENV, "")
    if env:
        return validate_scan_mode(env)
    return "ondemand"


def validate_fingerprint_mode(mode: str) -> str:
    if mode not in FINGERPRINT_MODES:
        raise ReproError(
            f"unknown cache fingerprint mode {mode!r}; expected one of "
            f"{', '.join(FINGERPRINT_MODES)}"
        )
    return mode


def resolve_segment_cache(cache_dir: str | None = None):
    """Resolve a segment cache: explicit directory > $REPRO_SEGMENT_CACHE > off.

    Returns a :class:`~repro.cache.segments.SegmentCache` with ``stat``
    fingerprints or ``None`` (cache disabled); a source calls it once,
    from its constructor.
    """
    from repro.cache.segments import SegmentCache

    if cache_dir is None:
        cache_dir = env_setting(SEGMENT_CACHE_ENV, "")
    if not cache_dir:
        # An explicit empty string disables the cache even when the
        # environment sets a directory.
        return None
    return SegmentCache(cache_dir)
