"""On-demand projection: walk the text along the path, decode in place.

"On-Demand JSON: A Better Way to Parse Documents?" (PAPERS.md) gets its
speed from materializing only what is consumed, on top of a structural
index that SIMD makes cheap.  In CPython the index is the expensive
part (one interpreted step per token) and the standard library's C
scanner is the cheap one, so this module keeps the principle and drops
the index.  There is no tape any more; the module keeps its name
because ``scan_mode="ondemand"`` and the ``tape_*`` counters are wired
to it.

One pass per top-level record.  The raw-text skipper's own walkers
(:func:`repro.jsonlib.textscan._project`) follow the projection path:
one anchored regex per object key at the walked levels, every
non-matching value hopped with the skipper's ``_skip_value`` (so
leniency inside skipped regions is the skipper's by construction, and
nothing skipped is ever decoded), and each matched value decoded where
it stands by one ``scan_once`` call of the C scanner, whose returned
end offset is where the walk resumes.  A trailing keys-or-members step
over an array decodes the whole array in that one call; under a
``()("key")`` tail the array walk learns the shape of its flat rows and
takes each following row of that shape in one anchored match
(:func:`repro.jsonlib.textscan._member_pattern`), any other row key by
key.

Equivalence contract, shared with the raw skipper and checked
property-based in the test suite::

    list(scan_text(text, path)) == navigate(json.loads(text), path)

The skipper stays the canonical definition of everything irregular.
Items and counters are staged per record, and whatever trips the fast
path (a syntax error at a walked level, anything the C decoder raises,
a non-standard constant) discards the stage and re-projects the record
with the skipper on the caller's own ``out`` and ``counters``.  Error
class, message and offset, partial counts, skip events and
``scan_file``'s grow-and-retry at a chunk edge are therefore
byte-identical with ``scan_mode="text"``.

Counters: ``tape_records`` counts records projected on this path (a
re-projected record is not one), ``tape_tokens`` the walkers' steps on
them: one per key read, member visited and decode call, the same for a
row the shape match took (a count that depended on the route would
differ between runs).
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.errors import JsonSyntaxError
from repro.jsonlib import textscan
from repro.jsonlib.items import Item
from repro.jsonlib.path import Path
from repro.jsonlib.textscan import _DEFAULT_CHUNK_SIZE, ScanCounters, _project


def _reject_constant(token: str):
    """Refuse ``NaN``/``Infinity``/``-Infinity``.

    The stdlib decoder accepts these extensions by default, but the
    canonical skipper's ``_build_value`` raises, and Python's own
    ``json.dumps`` emits ``NaN`` for ``float('nan')``, so such inputs
    occur in practice.  Raising here hands the record to the skipper.
    """
    raise ValueError(f"invalid literal {token}")


#: Its ``scan_once(text, pos)`` returns ``(value, end offset)``.  Value
#: semantics equal ``_build_value``'s: int unless ``./e/E``, the last
#: duplicate key wins, surrogate pairs combine and lone ones are kept.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


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
        end = _project(text, pos, path, 0, staged, attempt, _DECODER.scan_once)
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
