"""Whole-text JSON decoding: the scanners over the empty path.

The package has one JSON decoder front end, the projecting scanner
behind DATASCAN (:mod:`repro.jsonlib.textscan`, routed through the
on-demand navigator of :mod:`repro.jsonlib.ondemand`).  Projecting the empty
path materializes every top-level value whole, so decoding a text is
that scan and nothing more: values, errors, offsets and the nesting
limit are the scanners'.
"""

from __future__ import annotations

from repro.errors import JsonSyntaxError
from repro.jsonlib import ondemand
from repro.jsonlib.path import Path
from repro.jsonlib.textscan import _BOM, _run_projector, _skip_ws


def parse_many(text: str) -> list:
    """Decode *text* as a sequence of concatenated JSON values."""
    return list(ondemand.scan_text(text, Path()))


def parse(text: str):
    """Decode *text* as exactly one JSON value and return the item."""
    pos = _skip_ws(text, 1 if text.startswith(_BOM) else 0)
    if pos == len(text):
        raise JsonSyntaxError("empty input", pos)
    out: list = []
    end = _run_projector(ondemand.project_record, text, pos, Path(), out, None)
    end = _skip_ws(text, end)
    if end < len(text):
        raise JsonSyntaxError("multiple top-level values", end)
    return out[0]
