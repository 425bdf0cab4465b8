"""Navigation paths over JSON items.

A *path* is a sequence of JSONiq navigation steps, the vocabulary of
Section 3.2 of the paper:

- **value** steps: by key for objects (``("bookstore")``) or by 1-based
  index for arrays (``(2)``);
- **keys-or-members** (``()``): all members of an array, or all keys of an
  object.

Paths serve two purposes here.  :func:`navigate` evaluates a path against
a materialized item (the naive execution strategy), and the scanners
(:mod:`repro.jsonlib.textscan`, :mod:`repro.jsonlib.tape`) evaluate a
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


def navigate_sequence(items: Iterable[Item], path: Path) -> list[Item]:
    """Evaluate *path* against each item of a sequence, concatenated."""
    result: list[Item] = []
    for item in items:
        result.extend(navigate(item, path))
    return result
