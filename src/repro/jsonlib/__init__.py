"""JSON data substrate: item model, paths, scanners, whole-text decoding.

This package is the from-scratch replacement for the Jackson-style JSON
parsing layer that Apache VXQuery relies on.  It provides:

- :mod:`repro.jsonlib.items` — the JSONiq item model and helpers,
- :mod:`repro.jsonlib.serializer` — items back to JSON text,
- :mod:`repro.jsonlib.path` — navigation paths (value / keys-or-members),
- :mod:`repro.jsonlib.textscan` — the raw-text skipper behind the
  DATASCAN operator's second argument (Section 4.2 of the paper): it
  emits only the sub-items matched by a path, hopping everything else
  undecoded, and is the canonical definition of errors and offsets,
- :mod:`repro.jsonlib.ondemand` — the on-demand navigator, the default
  scan mode: the skipper's walkers over the path's head, each member of
  its first ``()`` decoded whole by the stdlib C scanner and navigated
  in Python, any irregular record handed back to the skipper,
- :mod:`repro.jsonlib.parser` — ``parse`` / ``parse_many``: the scanners
  over the empty path, so a whole-text decode is one more scan.
"""

from repro.jsonlib.items import (
    deep_equals,
    is_array,
    is_atomic,
    is_object,
    item_type_name,
    sizeof_item,
)
from repro.jsonlib.parser import parse
from repro.jsonlib.path import (
    KeysOrMembers,
    Path,
    ValueByIndex,
    ValueByKey,
    navigate,
    parse_path,
)
from repro.jsonlib.serializer import dump, dumps

__all__ = [
    "KeysOrMembers",
    "Path",
    "ValueByIndex",
    "ValueByKey",
    "deep_equals",
    "dump",
    "dumps",
    "is_array",
    "is_atomic",
    "is_object",
    "item_type_name",
    "navigate",
    "parse",
    "parse_path",
    "sizeof_item",
]
