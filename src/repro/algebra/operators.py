"""Logical operators of the Algebricks-style algebra.

The vocabulary matches Section 3.2 of the paper:

- ``EMPTY-TUPLE-SOURCE`` — leaf producing one empty tuple,
- ``DATASCAN`` — partition-aware source; its optional *projection path*
  second argument is the core of the pipelining rules,
- ``ASSIGN`` — evaluate a scalar expression into a new field,
- ``UNNEST`` — evaluate an unnesting expression, one output per item,
- ``AGGREGATE`` — fold a tuple stream into a single tuple,
- ``SUBPLAN`` — run a nested plan per input tuple,
- ``GROUP-BY`` — grouped aggregation with a nested inner-focus plan,
- ``SELECT`` — filter by effective boolean value,
- ``JOIN`` — binary join (introduced for multi-``for`` FLWORs),
- ``DISTRIBUTE-RESULT`` — plan root, emits the query result.

Operators are immutable descriptions; execution lives in
:mod:`repro.hyracks.operators`.  Each operator exposes its child
operators (``inputs``), its expressions (``used_expressions``), and
rebuild methods so that rewrite rules can pattern-match and reconstruct
plans generically.
"""

from __future__ import annotations

from typing import Sequence as TypingSequence

from repro.errors import PlanError
from repro.algebra.expressions import Expression
from repro.jsonlib.path import Path


class Operator:
    """Base class of all logical operators."""

    __slots__ = ()

    #: paper-style operator name, e.g. "ASSIGN"
    name: str = "OPERATOR"

    @property
    def inputs(self) -> tuple["Operator", ...]:
        """Child operators (empty for leaves)."""
        raise NotImplementedError

    def with_inputs(self, inputs: TypingSequence["Operator"]) -> "Operator":
        """Rebuild with new child operators."""
        raise NotImplementedError

    def used_expressions(self) -> tuple[Expression, ...]:
        """All expressions this operator evaluates."""
        return ()

    def with_expressions(
        self, expressions: TypingSequence[Expression]
    ) -> "Operator":
        """Rebuild with new expressions (same order as used_expressions)."""
        if expressions:
            raise PlanError(f"{self.name} takes no expressions")
        return self

    def produced_variables(self) -> tuple[str, ...]:
        """Variables this operator adds to the tuple."""
        return ()

    def nested_plans(self) -> tuple["Operator", ...]:
        """Roots of nested plans (SUBPLAN / GROUP-BY inner focus)."""
        return ()

    def signature(self) -> str:
        """One-line paper-style rendering, e.g. ``ASSIGN( $x : ... )``."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__,))

    def _key(self):
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.signature()


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class EmptyTupleSource(Operator):
    """Outputs a single empty tuple to initiate result production."""

    __slots__ = ()
    name = "EMPTY-TUPLE-SOURCE"

    @property
    def inputs(self):
        return ()

    def with_inputs(self, inputs):
        if inputs:
            raise PlanError("EMPTY-TUPLE-SOURCE is a leaf")
        return self

    def signature(self):
        return "EMPTY-TUPLE-SOURCE"

    def _key(self):
        return ()


class NestedTupleSource(Operator):
    """Leaf of a nested plan: re-emits the outer operator's input tuple."""

    __slots__ = ()
    name = "NESTED-TUPLE-SOURCE"

    @property
    def inputs(self):
        return ()

    def with_inputs(self, inputs):
        if inputs:
            raise PlanError("NESTED-TUPLE-SOURCE is a leaf")
        return self

    def signature(self):
        return "NESTED-TUPLE-SOURCE"

    def _key(self):
        return ()


class DataScan(Operator):
    """Partition-aware collection scan (Algebricks' DATASCAN).

    ``project_path`` is the second argument introduced by the pipelining
    rules (Figures 6-8): the scanner streams only the sub-items of each
    file that match the path, one tuple per matched item.  With an empty
    path the scan emits whole files, one tuple per top-level item.
    """

    __slots__ = ("collection", "variable", "project_path")
    name = "DATASCAN"

    def __init__(self, collection: str, variable: str, project_path: Path = Path()):
        self.collection = collection
        self.variable = variable
        self.project_path = project_path

    @property
    def inputs(self):
        return ()

    def with_inputs(self, inputs):
        if inputs:
            raise PlanError("DATASCAN is a leaf")
        return self

    def produced_variables(self):
        return (self.variable,)

    def with_project_path(self, path: Path) -> "DataScan":
        """Rebuild with a different projection path."""
        return DataScan(self.collection, self.variable, path)

    def signature(self):
        path = str(self.project_path)
        argument = f'collection("{self.collection}")'
        if path:
            argument += f", {path}"
        return f"DATASCAN( ${self.variable} : {argument} )"

    def _key(self):
        return (self.collection, self.variable, self.project_path)


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class Assign(Operator):
    """Evaluates a scalar expression and binds it as a new field."""

    __slots__ = ("input_op", "variable", "expression")
    name = "ASSIGN"

    def __init__(self, input_op: Operator, variable: str, expression: Expression):
        self.input_op = input_op
        self.variable = variable
        self.expression = expression

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return Assign(input_op, self.variable, self.expression)

    def used_expressions(self):
        return (self.expression,)

    def with_expressions(self, expressions):
        (expression,) = expressions
        return Assign(self.input_op, self.variable, expression)

    def produced_variables(self):
        return (self.variable,)

    def signature(self):
        return f"ASSIGN( ${self.variable} : {self.expression.to_string()} )"

    def _key(self):
        return (self.input_op, self.variable, self.expression)


class Unnest(Operator):
    """Evaluates an unnesting expression, emitting one tuple per item."""

    __slots__ = ("input_op", "variable", "expression")
    name = "UNNEST"

    def __init__(self, input_op: Operator, variable: str, expression: Expression):
        self.input_op = input_op
        self.variable = variable
        self.expression = expression

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return Unnest(input_op, self.variable, self.expression)

    def used_expressions(self):
        return (self.expression,)

    def with_expressions(self, expressions):
        (expression,) = expressions
        return Unnest(self.input_op, self.variable, expression)

    def produced_variables(self):
        return (self.variable,)

    def signature(self):
        return f"UNNEST( ${self.variable} : {self.expression.to_string()} )"

    def _key(self):
        return (self.input_op, self.variable, self.expression)


class Select(Operator):
    """Filters tuples by the effective boolean value of a condition."""

    __slots__ = ("input_op", "condition")
    name = "SELECT"

    def __init__(self, input_op: Operator, condition: Expression):
        self.input_op = input_op
        self.condition = condition

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return Select(input_op, self.condition)

    def used_expressions(self):
        return (self.condition,)

    def with_expressions(self, expressions):
        (condition,) = expressions
        return Select(self.input_op, condition)

    def signature(self):
        return f"SELECT( {self.condition.to_string()} )"

    def _key(self):
        return (self.input_op, self.condition)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTIONS = ("sequence", "count", "sum", "avg", "min", "max")


class AggregateSpec:
    """One aggregate binding: ``$var := function(argument)`` over a stream.

    ``sequence`` collects every argument item into one sequence — the
    materializing aggregate the group-by rules eliminate; the others fold
    incrementally and each has a partial/combine decomposition used by the
    two-step aggregation rule.
    """

    __slots__ = ("variable", "function", "argument")

    def __init__(self, variable: str, function: str, argument: Expression):
        if function not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {function!r}")
        self.variable = variable
        self.function = function
        self.argument = argument

    def with_argument(self, argument: Expression) -> "AggregateSpec":
        return AggregateSpec(self.variable, self.function, argument)

    def to_string(self) -> str:
        return f"${self.variable} : {self.function}({self.argument.to_string()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AggregateSpec)
            and self.variable == other.variable
            and self.function == other.function
            and self.argument == other.argument
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.function))

    def __repr__(self) -> str:
        return f"AggregateSpec({self.to_string()})"


class Aggregate(Operator):
    """Folds its input tuple stream into exactly one output tuple."""

    __slots__ = ("input_op", "specs")
    name = "AGGREGATE"

    def __init__(self, input_op: Operator, specs: TypingSequence[AggregateSpec]):
        if not specs:
            raise PlanError("AGGREGATE requires at least one spec")
        self.input_op = input_op
        self.specs = tuple(specs)

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return Aggregate(input_op, self.specs)

    def used_expressions(self):
        return tuple(spec.argument for spec in self.specs)

    def with_expressions(self, expressions):
        specs = [
            spec.with_argument(expr)
            for spec, expr in zip(self.specs, expressions)
        ]
        return Aggregate(self.input_op, specs)

    def produced_variables(self):
        return tuple(spec.variable for spec in self.specs)

    def signature(self):
        inner = ", ".join(spec.to_string() for spec in self.specs)
        return f"AGGREGATE( {inner} )"

    def _key(self):
        return (self.input_op, self.specs)


class Subplan(Operator):
    """Runs a nested plan once per input tuple (Figure 11).

    The nested plan's leaf is a :class:`NestedTupleSource` that re-emits
    the outer tuple; its root must be an :class:`Aggregate`, whose single
    output tuple is merged into the outer tuple.
    """

    __slots__ = ("input_op", "nested_root")
    name = "SUBPLAN"

    def __init__(self, input_op: Operator, nested_root: Operator):
        self.input_op = input_op
        self.nested_root = nested_root

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return Subplan(input_op, self.nested_root)

    def nested_plans(self):
        return (self.nested_root,)

    def with_nested_root(self, nested_root: Operator) -> "Subplan":
        return Subplan(self.input_op, nested_root)

    def produced_variables(self):
        names: list[str] = []
        node: Operator | None = self.nested_root
        while node is not None:
            names.extend(node.produced_variables())
            node = node.inputs[0] if node.inputs else None
        return tuple(names)

    def signature(self):
        return "SUBPLAN"

    def _key(self):
        return (self.input_op, self.nested_root)


class GroupBy(Operator):
    """Grouped aggregation with a nested inner-focus plan (Figure 9).

    ``keys`` are ``(variable, expression)`` pairs evaluated per input
    tuple; tuples with equal key values form a group.  The nested plan is
    always an :class:`Aggregate` directly over a
    :class:`NestedTupleSource` (the constructor rejects any other shape,
    so a rewrite that breaks it fails at compile time): its aggregates
    fold each group's tuples as they arrive, no group member list is
    built, and their values are merged with the key bindings.
    """

    __slots__ = ("input_op", "keys", "nested_root")
    name = "GROUP-BY"

    def __init__(
        self,
        input_op: Operator,
        keys: TypingSequence[tuple[str, Expression]],
        nested_root: Operator,
    ):
        if not keys:
            raise PlanError("GROUP-BY requires at least one key")
        if not (
            isinstance(nested_root, Aggregate)
            and isinstance(nested_root.input_op, NestedTupleSource)
        ):
            raise PlanError(
                "GROUP-BY nested plan must be AGGREGATE over "
                "NESTED-TUPLE-SOURCE"
            )
        self.input_op = input_op
        self.keys = tuple(keys)
        self.nested_root = nested_root

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return GroupBy(input_op, self.keys, self.nested_root)

    def used_expressions(self):
        return tuple(expr for _, expr in self.keys)

    def with_expressions(self, expressions):
        keys = [
            (var, expr) for (var, _), expr in zip(self.keys, expressions)
        ]
        return GroupBy(self.input_op, keys, self.nested_root)

    def nested_plans(self):
        return (self.nested_root,)

    def with_nested_root(self, nested_root: Operator) -> "GroupBy":
        return GroupBy(self.input_op, self.keys, nested_root)

    def produced_variables(self):
        keys = tuple(var for var, _ in self.keys)
        return keys + self.nested_root.produced_variables()

    def signature(self):
        keys = ", ".join(
            f"${var} : {expr.to_string()}" for var, expr in self.keys
        )
        return f"GROUP-BY( {keys} )"

    def _key(self):
        return (self.input_op, self.keys, self.nested_root)


# ---------------------------------------------------------------------------
# Binary operators and root
# ---------------------------------------------------------------------------


#: valid build-side annotations (which input a hash join materializes).
JOIN_BUILD_SIDES = ("right", "left")


class Join(Operator):
    """Binary join; a condition of literal ``true`` is a cross product.

    The translator emits cross products for independent ``for`` clauses;
    a built-in rule folds equality conjuncts from an enclosing SELECT into
    the condition, and the physical layer picks a hash join for
    equi-conditions.

    ``build_side`` is the one physical annotation, set by the cost phase
    (:mod:`repro.stats.cost`) and honored by the executor; the default
    reproduces the un-costed behavior exactly (build on the right).
    """

    __slots__ = ("left", "right", "condition", "build_side")
    name = "JOIN"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        condition: Expression,
        build_side: str = "right",
    ):
        if build_side not in JOIN_BUILD_SIDES:
            raise PlanError(f"unknown join build side {build_side!r}")
        self.left = left
        self.right = right
        self.condition = condition
        self.build_side = build_side

    @property
    def inputs(self):
        return (self.left, self.right)

    def with_inputs(self, inputs):
        left, right = inputs
        return Join(left, right, self.condition, self.build_side)

    def used_expressions(self):
        return (self.condition,)

    def with_expressions(self, expressions):
        (condition,) = expressions
        return Join(self.left, self.right, condition, self.build_side)

    def signature(self):
        base = f"JOIN( {self.condition.to_string()} )"
        if self.build_side == "right":
            return base
        return f"{base} [build={self.build_side}]"

    def _key(self):
        return (self.left, self.right, self.condition, self.build_side)


class Sort(Operator):
    """Orders its input tuples by sort-key expressions.

    ``specs`` are ``(expression, descending)`` pairs.  Sorting is a
    blocking, global operation; the executor runs sorted plans as a
    single instance.
    """

    __slots__ = ("input_op", "specs")
    name = "SORT"

    def __init__(
        self, input_op: Operator, specs: TypingSequence[tuple[Expression, bool]]
    ):
        if not specs:
            raise PlanError("SORT requires at least one sort key")
        self.input_op = input_op
        self.specs = tuple(specs)

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return Sort(input_op, self.specs)

    def used_expressions(self):
        return tuple(expr for expr, _ in self.specs)

    def with_expressions(self, expressions):
        specs = [
            (expr, desc)
            for expr, (_, desc) in zip(expressions, self.specs)
        ]
        return Sort(self.input_op, specs)

    def signature(self):
        keys = ", ".join(
            expr.to_string() + (" desc" if desc else "")
            for expr, desc in self.specs
        )
        return f"SORT( {keys} )"

    def _key(self):
        return (self.input_op, self.specs)


class DistributeResult(Operator):
    """Plan root: evaluates the result expressions for every tuple."""

    __slots__ = ("input_op", "expressions")
    name = "DISTRIBUTE-RESULT"

    def __init__(self, input_op: Operator, expressions: TypingSequence[Expression]):
        self.input_op = input_op
        self.expressions = tuple(expressions)

    @property
    def inputs(self):
        return (self.input_op,)

    def with_inputs(self, inputs):
        (input_op,) = inputs
        return DistributeResult(input_op, self.expressions)

    def used_expressions(self):
        return self.expressions

    def with_expressions(self, expressions):
        return DistributeResult(self.input_op, expressions)

    def signature(self):
        inner = ", ".join(e.to_string() for e in self.expressions)
        return f"DISTRIBUTE-RESULT( {inner} )"

    def _key(self):
        return (self.input_op, self.expressions)
