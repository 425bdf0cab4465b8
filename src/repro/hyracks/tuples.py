"""Tuple representation and size estimation.

A runtime tuple is a mapping from variable names to sequences (lists of
items).  Tuples are copied on extension (ASSIGN and UNNEST build
``{**tup, variable: sequence}``) so upstream operators can hold
references safely; sequences themselves are shared.
"""

from __future__ import annotations

from typing import Mapping

from repro.jsonlib.items import sizeof_item

Tuple = dict

_TUPLE_BASE = 64
_PER_FIELD = 24


def merge_tuples(left: Tuple, right: Mapping) -> Tuple:
    """A copy of *left* with every binding of *right* added."""
    merged = dict(left)
    merged.update(right)
    return merged


def sizeof_tuple(tup: Tuple) -> int:
    """Estimated bytes a tuple occupies (used by frames and exchanges)."""
    total = _TUPLE_BASE
    for name, sequence in tup.items():
        total += _PER_FIELD + len(name)
        for item in sequence:
            total += sizeof_item(item)
    return total


def project_tuple(tup: Tuple, variables: list[str]) -> Tuple:
    """Keep only *variables* (missing names are simply absent)."""
    return {name: tup[name] for name in variables if name in tup}
