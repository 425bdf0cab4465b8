"""Navigation paths over JSON items.

A *path* is a sequence of JSONiq navigation steps, the vocabulary of
Section 3.2 of the paper:

- **value** steps: by key for objects (``("bookstore")``) or by 1-based
  index for arrays (``(2)``);
- **keys-or-members** (``()``): all members of an array, or all keys of an
  object.

Paths serve two purposes here.  :func:`navigate` evaluates a path against
a materialized item (the naive execution strategy), and the scanners
(:mod:`repro.jsonlib.textscan`, :mod:`repro.jsonlib.ondemand`) evaluate a
path directly against raw text (the optimized DATASCAN strategy of
Section 4.2).  The equivalence of the two is a property-based test
invariant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.errors import JsonError
from repro.jsonlib.items import Item


@dataclass(frozen=True, slots=True)
class ValueByKey:
    """Value step on an object: yields the value under ``key``."""

    key: str

    def __str__(self) -> str:
        return f'("{self.key}")'


@dataclass(frozen=True, slots=True)
class ValueByIndex:
    """Value step on an array: yields the 1-based ``index``-th member."""

    index: int

    def __str__(self) -> str:
        return f"({self.index})"


@dataclass(frozen=True, slots=True)
class KeysOrMembers:
    """Keys-or-members step: array members, or object keys."""

    def __str__(self) -> str:
        return "()"


PathStep = Union[ValueByKey, ValueByIndex, KeysOrMembers]


class Path:
    """An immutable sequence of navigation steps."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[PathStep] = ()):
        self.steps: tuple[PathStep, ...] = tuple(steps)

    def extended(self, step: PathStep) -> "Path":
        """Return a new path with *step* appended."""
        return Path(self.steps + (step,))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, index: int) -> PathStep:
        return self.steps[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __str__(self) -> str:
        return "".join(str(step) for step in self.steps)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"


_PATH_TOKEN_RE = re.compile(r'\(\s*(?:"((?:[^"\\]|\\.)*)"|(\d+))?\s*\)')


def parse_path(text: str) -> Path:
    """Parse a path written in query syntax, e.g. ``("root")()("results")()``.

    Empty parentheses denote keys-or-members; a quoted string denotes a
    value-by-key step; an integer denotes a value-by-index step.
    """
    steps: list[PathStep] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        match = _PATH_TOKEN_RE.match(text, pos)
        if match is None:
            raise JsonError(f"invalid path syntax at {text[pos:]!r}")
        key, index = match.group(1), match.group(2)
        if key is not None:
            steps.append(ValueByKey(key.replace('\\"', '"')))
        elif index is not None:
            steps.append(ValueByIndex(int(index)))
        else:
            steps.append(KeysOrMembers())
        pos = match.end()
    return Path(steps)


def apply_step(item: Item, step: PathStep) -> Iterator[Item]:
    """Apply one navigation step to one item.

    JSONiq navigation is forgiving: a step applied to an item of the
    wrong type yields the empty sequence rather than an error.
    """
    if isinstance(step, ValueByKey):
        if isinstance(item, dict) and step.key in item:
            yield item[step.key]
    elif isinstance(step, ValueByIndex):
        if isinstance(item, list) and 1 <= step.index <= len(item):
            yield item[step.index - 1]
    elif isinstance(step, KeysOrMembers):
        if isinstance(item, list):
            yield from item
        elif isinstance(item, dict):
            yield from item.keys()
    else:  # pragma: no cover - PathStep is a closed union
        raise JsonError(f"unknown path step {step!r}")


def navigate(item: Item, path: Path) -> list[Item]:
    """Evaluate *path* against a materialized *item*.

    Each step maps over the current sequence, concatenating results —
    the JSONiq sequence semantics.  This is the reference (naive)
    implementation that the projecting parser must agree with.
    """
    current: list[Item] = [item]
    for step in path:
        next_items: list[Item] = []
        for element in current:
            next_items.extend(apply_step(element, step))
        current = next_items
        if not current:
            break
    return current


def navigate_into(
    item: Item, steps: tuple, index: int, out: list, counters=None
) -> None:
    """Append ``navigate(item, Path(steps[index:]))`` to *out*.

    The on-demand scanner's navigator over a decoded member
    (:func:`repro.jsonlib.textscan._walk_array`).  When *counters* (a
    ``ScanCounters``) is given it counts exactly what the scanners' key
    walk counts over the item's text, provided no object in *item*
    repeated a key: ``matched`` per item, ``skipped`` per value passed
    over, and ``tape_tokens`` one per key read at a walked object, one
    per member visited and one per decode call (a trailing ``()`` over
    an array is one call, also when it is empty).  Any other empty
    container counts nothing.
    """
    size = len(steps)
    while index < size:
        step = steps[index]
        index += 1
        if isinstance(step, ValueByKey):
            if not isinstance(item, dict):
                break
            found = step.key in item
            if counters is not None:
                counters.tape_tokens += len(item)
                counters.skipped += len(item) - found
            if not found:
                return
            item = item[step.key]
        elif isinstance(step, ValueByIndex):
            if not isinstance(item, list):
                break
            if not 1 <= step.index <= len(item):
                if counters is not None:
                    counters.tape_tokens += len(item)
                    counters.skipped += len(item)
                return
            if counters is not None:
                # The members before the target, then the rest at once.
                counters.tape_tokens += step.index
                counters.skipped += step.index - 1 + (step.index < len(item))
            item = item[step.index - 1]
        elif isinstance(item, list):
            if index < size:
                if counters is not None:
                    counters.tape_tokens += len(item)
                for member in item:
                    navigate_into(member, steps, index, out, counters)
                return
            out.extend(item)
            if counters is not None:
                counters.matched += len(item)
                counters.tape_tokens += 1
            return
        elif isinstance(item, dict):
            # Keys-or-members over an object yields its keys, and each
            # value is passed over.
            if counters is not None:
                counters.tape_tokens += len(item)
                counters.skipped += len(item)
            if index == size:
                out.extend(item)
                if counters is not None:
                    counters.matched += len(item)
            return
        else:
            break
    else:
        out.append(item)
        if counters is not None:
            counters.matched += 1
            counters.tape_tokens += 1
        return
    # A step that does not apply to the item's type passes it over.
    if counters is not None:
        counters.skipped += 1


def navigate_sequence(items: Iterable[Item], path: Path) -> list[Item]:
    """Evaluate *path* against each item of a sequence, concatenated."""
    result: list[Item] = []
    for item in items:
        result.extend(navigate(item, path))
    return result
