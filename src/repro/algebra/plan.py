"""Logical plan container, traversal helpers, and the paper-style printer.

A :class:`LogicalPlan` wraps the root operator of an operator tree.  The
``explain`` rendering matches the figures of the paper — one operator per
line, children indented below, nested plans (SUBPLAN / GROUP-BY inner
focus) printed in braces::

    DISTRIBUTE-RESULT( $book )
      UNNEST( $book : $seq() )
        ASSIGN( $seq : json-doc("books.json")("bookstore")("book") )
          EMPTY-TUPLE-SOURCE
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple

from repro.algebra.expressions import CollectionExpr, JsonDocExpr
from repro.algebra.operators import DataScan, Operator


class LogicalPlan:
    """An immutable logical query plan."""

    __slots__ = ("root",)

    def __init__(self, root: Operator):
        self.root = root

    # -- traversal ----------------------------------------------------------

    def iter_operators(self, include_nested: bool = True) -> Iterator[Operator]:
        """Pre-order traversal of all operators (nested plans included)."""
        stack: list[Operator] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if include_nested:
                stack.extend(node.nested_plans())
            stack.extend(node.inputs)

    def operators_of(self, operator_type: type) -> list[Operator]:
        """All operators of a given type, in pre-order."""
        return [op for op in self.iter_operators() if isinstance(op, operator_type)]

    def transform_bottom_up(
        self, visit: Callable[[Operator], Operator]
    ) -> "LogicalPlan":
        """Rebuild the plan, applying *visit* to every operator bottom-up.

        *visit* receives each operator after its inputs (and nested plans)
        have already been transformed, and returns the replacement (or the
        operator unchanged).
        """
        return LogicalPlan(_transform(self.root, visit))

    # -- rendering ----------------------------------------------------------

    def explain(self) -> str:
        """Paper-style multi-line rendering of the plan."""
        lines: list[str] = []
        _render(self.root, 0, lines)
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogicalPlan) and self.root == other.root

    def __hash__(self) -> int:
        return hash(type(self.root).__name__)

    def __repr__(self) -> str:
        return f"LogicalPlan(\n{self.explain()}\n)"


class ReadSet(NamedTuple):
    """What a plan reads, each part sorted: collection names, and the
    argument of every ``json-doc`` call as the plan prints it."""

    collections: tuple[str, ...]
    documents: tuple[str, ...]


def read_set(root: Operator, inputs: bool = True) -> ReadSet:
    """The collections and ``json-doc`` URIs the plan under *root* reads.

    A collection counts whether a DATASCAN streams it or a
    ``collection()`` expression materializes it, in any operator's
    expressions or nested plans.  With ``inputs=False`` only what *root*
    reads itself counts: its expressions and its nested plans, not the
    operators that feed it.
    """
    if inputs:
        operators = LogicalPlan(root).iter_operators()
    else:
        operators = itertools.chain(
            [root],
            *(LogicalPlan(nested).iter_operators() for nested in root.nested_plans()),
        )
    collections: set[str] = set()
    documents: set[str] = set()
    for op in operators:
        if isinstance(op, DataScan):
            collections.add(op.collection)
        for expression in op.used_expressions():
            for node in expression.walk():
                if isinstance(node, CollectionExpr):
                    collections.add(node.name)
                elif isinstance(node, JsonDocExpr):
                    documents.add(node.uri_expr.to_string())
    return ReadSet(tuple(sorted(collections)), tuple(sorted(documents)))


def _transform(node: Operator, visit: Callable[[Operator], Operator]) -> Operator:
    new_inputs = [_transform(child, visit) for child in node.inputs]
    if tuple(new_inputs) != node.inputs:
        node = node.with_inputs(new_inputs)
    nested = node.nested_plans()
    if nested:
        new_nested = [_transform(child, visit) for child in nested]
        if tuple(new_nested) != nested:
            # Only SUBPLAN and GROUP-BY carry nested plans, each exactly one.
            node = node.with_nested_root(new_nested[0])  # type: ignore[attr-defined]
    return visit(node)


def _render(node: Operator, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    lines.append(f"{indent}{node.signature()}")
    for nested in node.nested_plans():
        lines.append(f"{indent}{{")
        _render(nested, depth + 1, lines)
        lines.append(f"{indent}}}")
    for child in node.inputs:
        _render(child, depth + 1, lines)


class VariableGenerator:
    """Generates fresh variable names that cannot clash with user names.

    User variables come from query text and never contain ``#``; generated
    names are ``prefix#N``.
    """

    def __init__(self, existing: set[str] | None = None):
        self._counter = itertools.count()
        self._existing = set(existing or ())

    @classmethod
    def for_plan(cls, plan: LogicalPlan) -> "VariableGenerator":
        """A generator primed with every variable the plan produces."""
        existing: set[str] = set()
        for op in plan.iter_operators():
            existing.update(op.produced_variables())
        return cls(existing)

    def fresh(self, prefix: str = "v") -> str:
        """Return a new variable name not seen before."""
        while True:
            name = f"{prefix}#{next(self._counter)}"
            if name not in self._existing:
                self._existing.add(name)
                return name
