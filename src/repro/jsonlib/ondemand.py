"""On-demand projection: one C decode per record, navigated in Python.

"On-Demand JSON: A Better Way to Parse Documents?" (PAPERS.md) gets its
speed from materializing only what is consumed, on top of a structural
index that SIMD makes cheap.  In CPython the index is the expensive
part (one interpreted step per token) and the standard library's C
scanner is the cheap one, so this module keeps the principle and picks
the unit worth materializing: the record, not the token and not the
file.  This is ``scan_mode="ondemand"``, the default.

The raw-text skipper's walkers (:func:`repro.jsonlib.textscan._project`)
run with the C scanner as their decoder.  The path's head, up to its
first keys-or-members (``()``) array, is walked key by key, every
non-matching value hopped with the skipper's ``_skip_value`` (so
leniency there is the skipper's by construction).  Each member of that
array is a record: one ``scan_once`` call decodes it and the rest of
the path is navigated over the built value in Python
(:func:`repro.jsonlib.path.navigate_into`).  "Decoding in order to skip
stays rejected" was an old rule; measurement overturned it, since the
walker pays the interpreter per token and the decoder builds a record
in one call.  Memory is bounded as ``scan_file`` documents, plus one
decoded record.

Equivalence contract, shared with the raw skipper and checked
property-based in the test suite::

    list(scan_text(text, path)) == navigate(json.loads(text), path)

The skipper stays the canonical definition of everything irregular.
Items and counters are staged per top-level value, and whatever trips
the fast path (a syntax error at a walked level, anything the C decoder
raises at a walked leaf) discards the stage and re-projects the value
with the skipper on the caller's own ``out`` and ``counters``: error
class, message and offset, partial counts, skip events and
``scan_file``'s grow-and-retry at a chunk edge are the skipper's.

Counters: ``tape_records`` counts top-level values projected on this
path (a re-projected one is not), ``tape_tokens`` the key walk's steps
on them, also for a record decoded whole.  A built dict hides a
repeated key, whose every occurrence the key walk counts, so a counted
scan decodes records with a decoder that refuses one and walks such a
record key by key; an uncounted scan needs no such care, since the last
occurrence wins in both.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import JsonSyntaxError
from repro.jsonlib import textscan
from repro.jsonlib.items import Item
from repro.jsonlib.path import Path
from repro.jsonlib.textscan import _DEFAULT_CHUNK_SIZE, ScanCounters, _project


def project_record(
    text: str,
    pos: int,
    path: Path,
    out: list,
    counters: ScanCounters | None,
) -> int:
    """On-demand record projector (``scan_text``/``scan_file`` plug-in).

    ``scan_once`` signals "no value here" with ``StopIteration`` and
    everything else with ``ValueError``; a ``RecursionError`` from it is
    left to the skipper too, which may well manage the record with its
    own frames.
    """
    staged: list = []
    attempt = None if counters is None else ScanCounters()
    try:
        end = _project(
            text, pos, path, 0, staged, attempt, textscan._DECODER.scan_once
        )
    except (JsonSyntaxError, ValueError, StopIteration, RecursionError):
        return _project(text, pos, path, 0, out, counters)
    out.extend(staged)
    if counters is not None:
        attempt.tape_records = 1
        counters.merge(attempt)
    return end


def scan_text(
    text: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    counters: ScanCounters | None = None,
) -> Iterator[Item]:
    """On-demand twin of :func:`repro.jsonlib.textscan.scan_text`."""
    return textscan.scan_text(
        text,
        path,
        on_malformed=on_malformed,
        recorder=recorder,
        counters=counters,
        projector=project_record,
    )


def scan_file(
    file_path: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    chunk_size: int = _DEFAULT_CHUNK_SIZE,
    counters: ScanCounters | None = None,
) -> Iterator[Item]:
    """On-demand twin of :func:`repro.jsonlib.textscan.scan_file`.

    Shares the skipper's sliding-buffer machinery (grow-on-truncation,
    absolute offset rebasing, per-attempt counter staging); only the
    per-record projector differs.
    """
    return textscan.scan_file(
        file_path,
        path,
        on_malformed=on_malformed,
        recorder=recorder,
        chunk_size=chunk_size,
        counters=counters,
        projector=project_record,
    )
