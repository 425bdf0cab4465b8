"""Tuple representation, size estimation and frame counting.

A runtime tuple is a mapping from variable names to sequences (lists of
items).  Tuples are copied on extension (ASSIGN and UNNEST build
``{**tup, variable: sequence}``) so upstream operators can hold
references safely; sequences themselves are shared.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping

from repro.jsonlib.items import add_columns, columns_of, sizeof_item, sizeof_rows

Tuple = dict

#: byte budget of a frame, Hyracks' unit of data movement (Section 3.1)
DEFAULT_FRAME_BYTES = 32 * 1024

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


def sizeof_tuples(tuples: list[Tuple]) -> list[int]:
    """``[sizeof_tuple(tup) for tup in tuples]``, a frame at a time.

    Tuples that bind the same variables are sized a variable at a time,
    and a variable bound to one item in every tuple (what a scan
    produces) by :func:`~repro.jsonlib.items.sizeof_rows`; any other
    frame or sequence is measured as :func:`sizeof_tuple` does.
    """
    shaped = columns_of(tuples)
    if shaped is None:
        return list(map(sizeof_tuple, tuples))
    names, columns = shaped
    constant = _TUPLE_BASE + sum(_PER_FIELD + len(name) for name in names)
    sizes = []
    for column in columns:
        if set(map(type, column)) == {list} and set(map(len, column)) == {1}:
            sizes.append(sizeof_rows(list(map(itemgetter(0), column))))
        else:
            sizes.append(sum(map(sizeof_item, sequence)) for sequence in column)
    return add_columns(constant, sizes, len(tuples))


def count_frames(sizes: Iterable[int], frame_bytes: int = DEFAULT_FRAME_BYTES) -> int:
    """Frames a stream of tuples of these *sizes* packs into, in order.

    A tuple joins the open frame while it fits and opens the next one
    when it does not; a tuple bigger than a frame gets a frame of its
    own (VXQuery's oversized frame), and a partial frame counts.
    """
    frames = used = 0
    for size in sizes:
        if used and used + size > frame_bytes:
            frames += 1
            used = 0
        if size > frame_bytes:
            frames += 1
        else:
            used += size
    return frames + (used > 0)
