"""Logical expression tree for the JSONiq algebra.

Expressions evaluate against a *tuple* (a mapping from variable names to
sequences) and an :class:`~repro.algebra.context.EvaluationContext`.
Every value in the algebra is a **sequence** — a Python list of items —
following the XQuery/JSONiq data model; a "scalar" is a singleton
sequence.

Evaluation is **compile-once**: :meth:`Expression.compile` turns a node
into a closure ``fn(tup, ctx) -> sequence`` with everything static
(variable name, step kind and key, operator, builtin, literal operands)
resolved up front, and the runtime calls only that closure per tuple —
the Algebricks/Hyracks split between building evaluators per job and
calling them per tuple.  The closure is the one definition of a node's
semantics; :meth:`Expression.evaluate` just compiles and calls it.
Compiling never raises for a defect in the query (an unknown function,
an unknown treat type): the closure raises when a tuple reaches it.

A node that yields at most one item per tuple may also have a **column
form** (:meth:`Expression.compile_column`): the same semantics over a
*frame*, a dict from variable name to a column with one entry per row
(the item, or ``ABSENT`` for the empty sequence).  A column form is a
comprehension around the item-level rule its closure applies, and it
only has to be right where nothing raises: the runtime re-runs a frame
whose column evaluation raised through the closures, which stay the
authority on errors.

The node vocabulary matches what the paper's plans use:

- variable references and literals,
- **path steps**: the JSONiq *value* and *keys-or-members* navigation
  expressions of Section 3.2,
- the coercion trio ``promote`` / ``data`` / ``treat`` that the path and
  group-by rewrite rules remove,
- function calls into the builtin library (``count``, ``dateTime``, ...),
- comparison / boolean / arithmetic operators,
- ``collection`` and ``json-doc`` source expressions,
- the ``iterate`` expression used by UNNEST,
- object / array constructors.

Every node implements structural equality, a paper-style ``to_string``
used by the plan printer, and ``child_expressions`` /
``with_child_expressions`` so rewrite rules can traverse and rebuild
trees generically.
"""

from __future__ import annotations

import datetime
import operator
from itertools import compress
from typing import Callable, Iterable, Sequence as TypingSequence

from repro.errors import (
    ItemTypeError,
    TranslationError,
    TypeCheckError,
    UnboundVariableError,
    UnknownFunctionError,
)
from repro.algebra.context import EvaluationContext, charge_sequence
from repro.jsonlib.items import (
    ABSENT,
    Item,
    atomize,
    atomize_column,
    item_type_name,
)
from repro.jsonlib.path import (
    KeysOrMembers,
    Path,
    PathStep,
    ValueByIndex,
    ValueByKey,
)

Tuple = dict  # variable name -> sequence (list of items)
#: a compiled expression: ``fn(tup, ctx) -> sequence``
Evaluator = Callable[[Tuple, EvaluationContext], list]
#: a compiled condition: ``fn(tup, ctx) -> bool``
Condition = Callable[[Tuple, EvaluationContext], bool]
#: the builtin library a node compiles against: ``(name, arity) -> f``
FunctionLibrary = dict
#: a frame: variable name -> column, plus under ``None`` the position of
#: each live row in the frame as the scan cut it
Frame = dict


def narrow(frame: Frame, mask: list) -> Frame:
    """*frame* cut down, every column alike, to the rows *mask* holds on
    (a mask entry is True, False or ``ABSENT``)."""
    if mask.count(True) == len(mask):
        return frame
    return {
        name: list(compress(column, mask)) for name, column in frame.items()
    }


def compile_mask(node: "Expression", functions: FunctionLibrary):
    """The column form of ``node.compile_condition``: one truth value per
    live row (``ABSENT`` reads false), or None when *node* has none."""
    column = node.compile_column(functions)
    if column is None or isinstance(node, (ComparisonExpr, _BooleanExpr)):
        return column  # such a column holds only True, False and ABSENT
    return lambda frame: [
        item is not ABSENT and effective_boolean_value([item])
        for item in column(frame)
    ]


class Expression:
    """Base class of all logical expressions."""

    __slots__ = ()

    def child_expressions(self) -> tuple["Expression", ...]:
        """The direct sub-expressions of this node."""
        raise NotImplementedError

    def with_child_expressions(
        self, children: TypingSequence["Expression"]
    ) -> "Expression":
        """Rebuild this node with new sub-expressions."""
        raise NotImplementedError

    def compile(self, functions: FunctionLibrary) -> Evaluator:
        """This node's evaluator ``fn(tup, ctx) -> sequence``.

        Per-tuple callers take it from
        :meth:`EvaluationContext.compiled`, which compiles a node at
        most once per context; nothing is cached on the node itself,
        which is pickled into work units, hashed and compared.
        """
        raise NotImplementedError

    def compile_condition(self, functions: FunctionLibrary) -> Condition:
        """``fn(tup, ctx) -> bool``: this node's effective boolean value.

        What SELECT, join residuals and the boolean operators call; the
        comparison and boolean nodes override it to answer directly,
        without building the singleton sequence first.
        """
        evaluator = self.compile(functions)
        return lambda tup, ctx: effective_boolean_value(evaluator(tup, ctx))

    def compile_column(
        self, functions: FunctionLibrary
    ) -> Callable[[Frame], list] | None:
        """This node's column form ``fn(frame) -> column``, or None (the
        default): a node opts in when it yields at most one item per row
        and every sub-expression has a column form too."""
        return None

    def evaluate(self, tup: Tuple, ctx: EvaluationContext) -> list:
        """Compile and evaluate once (one-off callers and tests)."""
        return self.compile(ctx.functions)(tup, ctx)

    def to_string(self) -> str:
        """Paper-style rendering used by the plan printer."""
        raise NotImplementedError

    def walk(self) -> Iterable["Expression"]:
        """Every node in this subtree, this one first."""
        stack: list[Expression] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.child_expressions())

    def free_variables(self) -> set[str]:
        """All variable names referenced in this subtree."""
        return {node.name for node in self.walk() if isinstance(node, VariableRef)}

    def contains(self, predicate) -> bool:
        """True if any node in this subtree satisfies *predicate*."""
        return any(map(predicate, self.walk()))

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__,))

    def _key(self):
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_string()


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class VariableRef(Expression):
    """Reference to a tuple variable, e.g. ``$x``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def child_expressions(self):
        return ()

    def with_child_expressions(self, children):
        return self

    def compile(self, functions):
        name = self.name

        def variable(tup, ctx):
            try:
                return tup[name]
            except KeyError:
                raise UnboundVariableError(name) from None

        return variable

    def compile_column(self, functions):
        name = self.name
        return lambda frame: frame[name]

    def to_string(self):
        return f"${self.name}"

    def _key(self):
        return self.name


class Literal(Expression):
    """A constant sequence (usually a singleton)."""

    __slots__ = ("sequence",)

    def __init__(self, sequence: list):
        self.sequence = list(sequence)

    @classmethod
    def of(cls, *items: Item) -> "Literal":
        """Literal from items: ``Literal.of(1)`` is the singleton 1."""
        return cls(list(items))

    def child_expressions(self):
        return ()

    def with_child_expressions(self, children):
        return self

    def compile(self, functions):
        sequence = self.sequence
        return lambda tup, ctx: sequence

    def to_string(self):
        if len(self.sequence) == 1:
            item = self.sequence[0]
            if isinstance(item, str):
                return f'"{item}"'
            if item is True:
                return "true"
            if item is False:
                return "false"
            if item is None:
                return "null"
            return str(item)
        inner = ", ".join(str(i) for i in self.sequence)
        return f"({inner})"

    def _key(self):
        # Lists are unhashable; compare by contents with bool identity.
        return [(type(i).__name__, i) for i in self.sequence]


TRUE_LITERAL = Literal([True])
EMPTY_LITERAL = Literal([])


# ---------------------------------------------------------------------------
# Source expressions
# ---------------------------------------------------------------------------


class CollectionExpr(Expression):
    """``collection("/name")`` — materializes the *whole* collection.

    This is the naive strategy of Figure 5: the resulting tuple holds
    every top-level item of every file.  The pipelining rules replace it
    with the streaming DATASCAN operator.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def child_expressions(self):
        return ()

    def with_child_expressions(self, children):
        return self

    def compile(self, functions):
        name = self.name

        def collection(tup, ctx):
            if ctx.source is None:
                raise TranslationError(
                    "no data source configured for collection()"
                )
            items = ctx.source.read_collection(
                name, partition=ctx.partition, report=ctx.report
            )
            charge_sequence(ctx, items)
            return items

        return collection

    def to_string(self):
        return f'collection("{self.name}")'

    def _key(self):
        return self.name


class JsonDocExpr(Expression):
    """``json-doc("uri")`` — materializes one document."""

    __slots__ = ("uri_expr",)

    def __init__(self, uri_expr: Expression):
        self.uri_expr = uri_expr

    def child_expressions(self):
        return (self.uri_expr,)

    def with_child_expressions(self, children):
        (uri_expr,) = children
        return JsonDocExpr(uri_expr)

    def compile(self, functions):
        uris = self.uri_expr.compile(functions)

        def json_doc(tup, ctx):
            if ctx.source is None:
                raise TranslationError(
                    "no data source configured for json-doc()"
                )
            items = [ctx.source.read_document(uri) for uri in uris(tup, ctx)]
            charge_sequence(ctx, items)
            return items

        return json_doc

    def to_string(self):
        return f"json-doc({self.uri_expr.to_string()})"

    def _key(self):
        return self.uri_expr


# ---------------------------------------------------------------------------
# Navigation
# ---------------------------------------------------------------------------


class PathStepExpr(Expression):
    """One JSONiq navigation step applied to each item of the input.

    ``step`` is a :class:`ValueByKey`, :class:`ValueByIndex`, or
    :class:`KeysOrMembers`; results are concatenated across the input
    sequence (JSONiq sequence semantics).
    """

    __slots__ = ("input", "step")

    def __init__(self, input: Expression, step: PathStep):
        self.input = input
        self.step = step

    def child_expressions(self):
        return (self.input,)

    def with_child_expressions(self, children):
        (input_expr,) = children
        return PathStepExpr(input_expr, self.step)

    def compile(self, functions):
        # JSONiq navigation is forgiving (as in jsonlib.path.apply_step):
        # a step over an item of the wrong type yields nothing.
        source = self.input.compile(functions)
        step = self.step
        if isinstance(step, ValueByKey):
            key = step.key

            def value_by_key(tup, ctx):
                out: list = []
                for item in source(tup, ctx):
                    if isinstance(item, dict) and key in item:
                        out.append(item[key])
                return out

            return value_by_key
        if isinstance(step, ValueByIndex):
            position = step.index  # 1-based

            def value_by_index(tup, ctx):
                out: list = []
                for item in source(tup, ctx):
                    if isinstance(item, list) and 1 <= position <= len(item):
                        out.append(item[position - 1])
                return out

            return value_by_index

        def keys_or_members(tup, ctx):
            out: list = []
            for item in source(tup, ctx):
                if isinstance(item, (list, dict)):
                    out.extend(item)  # a dict iterates its keys
            return out

        return keys_or_members

    def compile_column(self, functions):
        source = self.input.compile_column(functions)
        if source is None or not isinstance(self.step, ValueByKey):
            return None  # the other steps can yield several items a row
        key = self.step.key
        return lambda frame: [
            item[key] if isinstance(item, dict) and key in item else ABSENT
            for item in source(frame)
        ]

    def to_string(self):
        return f"{self.input.to_string()}{self.step}"

    def _key(self):
        return (self.input, self.step)

    @staticmethod
    def chain(base: Expression, path: Path | Iterable[PathStep]) -> Expression:
        """Apply every step of *path* on top of *base*."""
        expr = base
        for step in path:
            expr = PathStepExpr(expr, step)
        return expr

    def leading_path(self) -> tuple[Expression, Path]:
        """Split a nested step chain into (innermost input, path).

        ``$x("a")("b")()`` returns ``($x, ("a")("b")())`` — the shape the
        pipelining rules fold into DATASCAN's second argument.
        """
        steps: list[PathStep] = []
        node: Expression = self
        while isinstance(node, PathStepExpr):
            steps.append(node.step)
            node = node.input
        steps.reverse()
        return node, Path(steps)


# ---------------------------------------------------------------------------
# Coercions (the expressions the rewrite rules remove)
# ---------------------------------------------------------------------------

_TYPE_PREDICATES = {
    "item": lambda item: True,
    "object": lambda item: isinstance(item, dict),
    "array": lambda item: isinstance(item, list),
    "string": lambda item: isinstance(item, str),
    "number": lambda item: isinstance(item, (int, float))
    and not isinstance(item, bool),
    "boolean": lambda item: isinstance(item, bool),
    "dateTime": lambda item: isinstance(item, datetime.datetime),
}


def _compile_type_check(
    source: Evaluator, type_name: str, failure: Callable[[Item], str]
) -> Evaluator:
    """*source* as a checked identity: every item must be a *type_name*.

    ``item`` accepts everything, so it compiles to *source* itself.  The
    caller decides what an unknown *type_name* means.
    """
    if type_name == "item":
        return source
    predicate = _TYPE_PREDICATES[type_name]

    def checked(tup, ctx):
        sequence = source(tup, ctx)
        for item in sequence:
            if not predicate(item):
                raise TypeCheckError(failure(item))
        return sequence

    return checked


class PromoteExpr(Expression):
    """Type promotion inserted by the translator (e.g. around json-doc args).

    At runtime it is a checked identity; the path rules remove it when the
    static type already conforms.
    """

    __slots__ = ("input", "type_name")

    def __init__(self, input: Expression, type_name: str):
        self.input = input
        self.type_name = type_name

    def child_expressions(self):
        return (self.input,)

    def with_child_expressions(self, children):
        (input_expr,) = children
        return PromoteExpr(input_expr, self.type_name)

    def compile(self, functions):
        source = self.input.compile(functions)
        type_name = self.type_name
        if type_name not in _TYPE_PREDICATES:
            return source  # an unknown target type is not checked
        return _compile_type_check(
            source,
            type_name,
            lambda item: f"cannot promote {item_type_name(item)} to {type_name}",
        )

    def to_string(self):
        return f"promote({self.input.to_string()}, {self.type_name})"

    def _key(self):
        return (self.input, self.type_name)


class DataExpr(Expression):
    """``data(...)`` — atomization; identity on atomic items."""

    __slots__ = ("input",)

    def __init__(self, input: Expression):
        self.input = input

    def child_expressions(self):
        return (self.input,)

    def with_child_expressions(self, children):
        (input_expr,) = children
        return DataExpr(input_expr)

    def compile(self, functions):
        source = self.input.compile(functions)

        def data(tup, ctx):
            sequence = source(tup, ctx)
            for item in sequence:
                atomize(item)
            return sequence

        return data

    def compile_column(self, functions):
        source = self.input.compile_column(functions)
        if source is None:
            return None
        return lambda frame: atomize_column(source(frame))

    def to_string(self):
        return f"data({self.input.to_string()})"

    def _key(self):
        return self.input


class TreatExpr(Expression):
    """``treat(..., type)`` — runtime type assertion.

    The group-by rules remove the treat that the translator inserts above
    the GROUP-BY's sequence aggregate (Figure 10).
    """

    __slots__ = ("input", "type_name")

    def __init__(self, input: Expression, type_name: str):
        self.input = input
        self.type_name = type_name

    def child_expressions(self):
        return (self.input,)

    def with_child_expressions(self, children):
        (input_expr,) = children
        return TreatExpr(input_expr, self.type_name)

    def compile(self, functions):
        source = self.input.compile(functions)
        type_name = self.type_name
        if type_name not in _TYPE_PREDICATES:

            def unknown_type(tup, ctx):
                source(tup, ctx)
                raise TypeCheckError(f"unknown treat type {type_name!r}")

            return unknown_type
        return _compile_type_check(
            source,
            type_name,
            lambda item: (
                f"treat as {type_name} failed on a "
                f"{item_type_name(item)} item"
            ),
        )

    def to_string(self):
        return f"treat({self.input.to_string()}, {self.type_name})"

    def _key(self):
        return (self.input, self.type_name)


class IterateExpr(Expression):
    """The UNNEST ``iterate`` expression: identity over its input sequence.

    UNNEST(iterate($seq)) yields one tuple per item of ``$seq`` — the
    second half of the two-step keys-or-members evaluation that the path
    rules merge away (Figure 3 → Figure 4).
    """

    __slots__ = ("input",)

    def __init__(self, input: Expression):
        self.input = input

    def child_expressions(self):
        return (self.input,)

    def with_child_expressions(self, children):
        (input_expr,) = children
        return IterateExpr(input_expr)

    def compile(self, functions):
        return self.input.compile(functions)

    def to_string(self):
        return f"iterate({self.input.to_string()})"

    def _key(self):
        return self.input


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------


class FunctionCallExpr(Expression):
    """Call into the scalar builtin library, e.g. ``count(...)``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: TypingSequence[Expression]):
        self.name = name
        self.args = tuple(args)

    def child_expressions(self):
        return self.args

    def with_child_expressions(self, children):
        return FunctionCallExpr(self.name, list(children))

    def compile(self, functions):
        name, arity = self.name, len(self.args)
        function = functions.get((name, arity))
        if function is None:

            def unknown_function(tup, ctx):
                raise UnknownFunctionError(name, arity)

            return unknown_function
        arguments = [arg.compile(functions) for arg in self.args]
        if arity == 1:
            (argument,) = arguments
            return lambda tup, ctx: function([argument(tup, ctx)])
        return lambda tup, ctx: function(
            [argument(tup, ctx) for argument in arguments]
        )

    def compile_column(self, functions):
        # Only a library entry derived from an item kernel has a
        # ``column``; a custom function under a builtin's name has none.
        function = functions.get((self.name, len(self.args)))
        column = getattr(function, "column", None)
        if column is None or len(self.args) != 1:
            return None
        argument = self.args[0].compile_column(functions)
        if argument is None:
            return None
        return lambda frame: column(argument(frame))

    def to_string(self):
        rendered = ", ".join(arg.to_string() for arg in self.args)
        return f"{self.name}({rendered})"

    def _key(self):
        return (self.name, self.args)


# ---------------------------------------------------------------------------
# Boolean, comparison, arithmetic
# ---------------------------------------------------------------------------


def effective_boolean_value(sequence: list) -> bool:
    """XQuery effective boolean value of a sequence."""
    if not sequence:
        return False
    first = sequence[0]
    if len(sequence) == 1:
        if isinstance(first, bool):
            return first
        if isinstance(first, (int, float)):
            return first != 0
        if isinstance(first, str):
            return len(first) > 0
        if first is None:
            return False
        return True  # objects, arrays, dateTimes
    if isinstance(first, (dict, list)):
        return True
    raise ItemTypeError(
        "effective boolean value of a multi-item atomic sequence"
    )


_COMPARISON_OPS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


#: ``c op x`` is ``x _FLIPPED[op] c``
_FLIPPED = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}

#: item types whose values compare with another value of the same type
_SELF_COMPARABLE = frozenset({bool, int, float, str, datetime.datetime})


def _comparable(left: Item, right: Item) -> bool:
    """True when the two (non-null) items are ordered against each other."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    if isinstance(left, str) and isinstance(right, str):
        return True
    return isinstance(left, datetime.datetime) and isinstance(
        right, datetime.datetime
    )


def _compare_unlike(op: str, lv: Item, rv: Item) -> bool:
    """``lv op rv`` for two items not of one self-comparable type (that
    case the callers answer themselves with the operator): the one
    place both gears take every other type rule from."""
    if lv is None or rv is None:
        # null equals null, differs from everything else, and has no order
        return op in ("eq", "le", "ge") if lv is rv else op == "ne"
    if _comparable(lv, rv):
        return _COMPARISON_OPS[op](lv, rv)
    raise ItemTypeError(
        f"cannot compare {item_type_name(lv)} with {item_type_name(rv)}"
    )


def _is_constant(node: "Expression") -> bool:
    return isinstance(node, Literal) and len(node.sequence) == 1


class ComparisonExpr(Expression):
    """Value comparison: ``eq ne lt le gt ge``.

    Follows XQuery value-comparison semantics: the empty sequence on
    either side yields the empty sequence; multi-item operands are a type
    error; incomparable types are a type error.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARISON_OPS:
            raise TranslationError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def child_expressions(self):
        return (self.left, self.right)

    def with_child_expressions(self, children):
        left, right = children
        return ComparisonExpr(self.op, left, right)

    def compile(self, functions):
        return self._compile(functions, as_condition=False)

    def compile_condition(self, functions):
        return self._compile(functions, as_condition=True)

    def _compile(self, functions, as_condition: bool):
        """The comparison closure; *as_condition* picks what it answers:
        the boolean itself (the empty sequence reads false) or the
        sequence holding it."""
        op = self.op
        holds = _COMPARISON_OPS[op]
        multi_item = f"value comparison {op!r} over a multi-item sequence"
        left = self.left.compile(functions)
        right_node = self.right
        if _is_constant(right_node):
            # ``expr op constant``: the right operand and its type are
            # known now, so only the left side is evaluated and checked.
            (rv,) = right_node.sequence
            constant_kind = type(rv) if type(rv) in _SELF_COMPARABLE else None

            def comparison_with_constant(tup, ctx):
                lhs = left(tup, ctx)
                if not lhs:
                    return False if as_condition else []
                if len(lhs) > 1:
                    raise ItemTypeError(multi_item)
                lv = lhs[0]
                if type(lv) is constant_kind:
                    result = holds(lv, rv)
                else:
                    result = _compare_unlike(op, lv, rv)
                return result if as_condition else [result]

            return comparison_with_constant
        right = right_node.compile(functions)

        def comparison(tup, ctx):
            lhs = left(tup, ctx)
            rhs = right(tup, ctx)
            if not lhs or not rhs:
                return False if as_condition else []
            if len(lhs) > 1 or len(rhs) > 1:
                raise ItemTypeError(multi_item)
            lv, rv = lhs[0], rhs[0]
            kind = type(lv)
            if kind is type(rv) and kind in _SELF_COMPARABLE:
                result = holds(lv, rv)
            else:
                result = _compare_unlike(op, lv, rv)
            return result if as_condition else [result]

        return comparison

    def compile_column(self, functions):
        op, left_node, right_node = self.op, self.left, self.right
        if _is_constant(left_node):
            op, left_node, right_node = _FLIPPED[op], right_node, left_node
        holds = _COMPARISON_OPS[op]
        left = left_node.compile_column(functions)
        if left is None:
            return None
        if _is_constant(right_node):
            (rv,) = right_node.sequence
            constant_kind = type(rv) if type(rv) in _SELF_COMPARABLE else None
            return lambda frame: [
                holds(lv, rv) if type(lv) is constant_kind
                else lv if lv is ABSENT
                else _compare_unlike(op, lv, rv)
                for lv in left(frame)
            ]
        right = right_node.compile_column(functions)
        if right is None:
            return None
        return lambda frame: [
            holds(lv, rv) if type(lv) is type(rv) and type(lv) in _SELF_COMPARABLE
            else ABSENT if lv is ABSENT or rv is ABSENT
            else _compare_unlike(op, lv, rv)
            for lv, rv in zip(left(frame), right(frame))
        ]

    def to_string(self):
        return f"{self.left.to_string()} {self.op} {self.right.to_string()}"

    def _key(self):
        return (self.op, self.left, self.right)


class _BooleanExpr(Expression):
    """A node whose value is one boolean: it defines
    ``compile_condition``, and its sequence form wraps that answer."""

    __slots__ = ()

    def compile(self, functions):
        condition = self.compile_condition(functions)
        return lambda tup, ctx: [condition(tup, ctx)]


class AndExpr(_BooleanExpr):
    """Logical conjunction over effective boolean values."""

    __slots__ = ("operands",)

    def __init__(self, operands: TypingSequence[Expression]):
        self.operands = tuple(operands)

    def child_expressions(self):
        return self.operands

    def with_child_expressions(self, children):
        return AndExpr(list(children))

    def compile_condition(self, functions):
        conditions = [
            operand.compile_condition(functions) for operand in self.operands
        ]

        def conjunction(tup, ctx):
            for condition in conditions:
                if not condition(tup, ctx):
                    return False
            return True

        return conjunction

    def compile_column(self, functions):
        masks = [compile_mask(operand, functions) for operand in self.operands]
        if None in masks:
            return None

        def conjunction_column(frame):
            # Each operand sees only the rows the ones before it held
            # on: the short circuit of ``conjunction``.
            rows = len(frame[None])
            live = {**frame, None: range(rows)}
            for mask in masks:
                live = narrow(live, mask(live))
            held = [False] * rows
            for row in live[None]:
                held[row] = True
            return held

        return conjunction_column

    def to_string(self):
        return " and ".join(o.to_string() for o in self.operands)

    def _key(self):
        return self.operands

    def conjuncts(self) -> tuple[Expression, ...]:
        """Flattened conjunct list (nested ANDs folded in)."""
        out: list[Expression] = []
        for operand in self.operands:
            if isinstance(operand, AndExpr):
                out.extend(operand.conjuncts())
            else:
                out.append(operand)
        return tuple(out)


class OrExpr(_BooleanExpr):
    """Logical disjunction over effective boolean values."""

    __slots__ = ("operands",)

    def __init__(self, operands: TypingSequence[Expression]):
        self.operands = tuple(operands)

    def child_expressions(self):
        return self.operands

    def with_child_expressions(self, children):
        return OrExpr(list(children))

    def compile_condition(self, functions):
        conditions = [
            operand.compile_condition(functions) for operand in self.operands
        ]

        def disjunction(tup, ctx):
            for condition in conditions:
                if condition(tup, ctx):
                    return True
            return False

        return disjunction

    def to_string(self):
        return " or ".join(f"({o.to_string()})" for o in self.operands)

    def _key(self):
        return self.operands


class NotExpr(_BooleanExpr):
    """``not(...)`` over the effective boolean value."""

    __slots__ = ("input",)

    def __init__(self, input: Expression):
        self.input = input

    def child_expressions(self):
        return (self.input,)

    def with_child_expressions(self, children):
        (input_expr,) = children
        return NotExpr(input_expr)

    def compile_condition(self, functions):
        condition = self.input.compile_condition(functions)
        return lambda tup, ctx: not condition(tup, ctx)

    def to_string(self):
        return f"not({self.input.to_string()})"

    def _key(self):
        return self.input


def _as_number(item: Item) -> int | float:
    if isinstance(item, bool) or not isinstance(item, (int, float)):
        raise ItemTypeError(
            f"arithmetic over a {item_type_name(item)} item"
        )
    return item


_ARITHMETIC_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "div": operator.truediv,
    "idiv": lambda a, b: int(a // b),
    "mod": operator.mod,
}


class ArithmeticExpr(Expression):
    """Binary arithmetic: ``+ - * div idiv mod``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITHMETIC_OPS:
            raise TranslationError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def child_expressions(self):
        return (self.left, self.right)

    def with_child_expressions(self, children):
        left, right = children
        return ArithmeticExpr(self.op, left, right)

    def compile(self, functions):
        apply = _ARITHMETIC_OPS[self.op]
        left = self.left.compile(functions)
        right = self.right.compile(functions)

        def arithmetic(tup, ctx):
            lhs = left(tup, ctx)
            rhs = right(tup, ctx)
            if not lhs or not rhs:
                return []
            if len(lhs) > 1 or len(rhs) > 1:
                raise ItemTypeError("arithmetic over a multi-item sequence")
            lv, rv = _as_number(lhs[0]), _as_number(rhs[0])
            try:
                return [apply(lv, rv)]
            except ZeroDivisionError:
                raise ItemTypeError("division by zero") from None

        return arithmetic

    def to_string(self):
        return f"{self.left.to_string()} {self.op} {self.right.to_string()}"

    def _key(self):
        return (self.op, self.left, self.right)


# ---------------------------------------------------------------------------
# Constructors and sequences
# ---------------------------------------------------------------------------


def _singleton(sequence: list, what: str) -> Item:
    if len(sequence) != 1:
        raise ItemTypeError(
            f"{what} requires a singleton, got {len(sequence)} items"
        )
    return sequence[0]


def _compile_concatenation(
    expressions: TypingSequence[Expression], functions: FunctionLibrary
) -> Evaluator:
    """One fresh list holding every expression's items, in order."""
    evaluators = [expr.compile(functions) for expr in expressions]

    def concatenation(tup, ctx):
        out: list = []
        for evaluator in evaluators:
            out.extend(evaluator(tup, ctx))
        return out

    return concatenation


class ObjectConstructorExpr(Expression):
    """JSONiq object constructor ``{ "k": expr, ... }``."""

    __slots__ = ("keys", "value_exprs")

    def __init__(self, pairs: TypingSequence[tuple[str, Expression]]):
        self.keys = tuple(key for key, _ in pairs)
        self.value_exprs = tuple(expr for _, expr in pairs)

    def child_expressions(self):
        return self.value_exprs

    def with_child_expressions(self, children):
        return ObjectConstructorExpr(list(zip(self.keys, children)))

    def compile(self, functions):
        pairs = [
            (key, expr.compile(functions), f'object value for key "{key}"')
            for key, expr in zip(self.keys, self.value_exprs)
        ]

        def construct_object(tup, ctx):
            return [
                {
                    key: _singleton(value(tup, ctx), what)
                    for key, value, what in pairs
                }
            ]

        return construct_object

    def to_string(self):
        inner = ", ".join(
            f'"{k}": {v.to_string()}' for k, v in zip(self.keys, self.value_exprs)
        )
        return "{" + inner + "}"

    def _key(self):
        return (self.keys, self.value_exprs)


class ArrayConstructorExpr(Expression):
    """JSONiq array constructor ``[ expr, ... ]``.

    Member expressions contribute their whole sequences, flattened —
    ``[ (1, 2), 3 ]`` is the array ``[1, 2, 3]``.
    """

    __slots__ = ("members",)

    def __init__(self, members: TypingSequence[Expression]):
        self.members = tuple(members)

    def child_expressions(self):
        return self.members

    def with_child_expressions(self, children):
        return ArrayConstructorExpr(list(children))

    def compile(self, functions):
        concatenate = _compile_concatenation(self.members, functions)
        return lambda tup, ctx: [concatenate(tup, ctx)]

    def to_string(self):
        return "[" + ", ".join(m.to_string() for m in self.members) + "]"

    def _key(self):
        return self.members


class SequenceExpr(Expression):
    """Comma sequence: concatenation of operand sequences."""

    __slots__ = ("operands",)

    def __init__(self, operands: TypingSequence[Expression]):
        self.operands = tuple(operands)

    def child_expressions(self):
        return self.operands

    def with_child_expressions(self, children):
        return SequenceExpr(list(children))

    def compile(self, functions):
        return _compile_concatenation(self.operands, functions)

    def to_string(self):
        return "(" + ", ".join(o.to_string() for o in self.operands) + ")"

    def _key(self):
        return self.operands


class IfExpr(Expression):
    """``if (cond) then ... else ...``."""

    __slots__ = ("condition", "then_branch", "else_branch")

    def __init__(
        self,
        condition: Expression,
        then_branch: Expression,
        else_branch: Expression,
    ):
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch

    def child_expressions(self):
        return (self.condition, self.then_branch, self.else_branch)

    def with_child_expressions(self, children):
        condition, then_branch, else_branch = children
        return IfExpr(condition, then_branch, else_branch)

    def compile(self, functions):
        condition = self.condition.compile_condition(functions)
        then_branch = self.then_branch.compile(functions)
        else_branch = self.else_branch.compile(functions)

        def conditional(tup, ctx):
            if condition(tup, ctx):
                return then_branch(tup, ctx)
            return else_branch(tup, ctx)

        return conditional

    def to_string(self):
        return (
            f"if ({self.condition.to_string()}) "
            f"then {self.then_branch.to_string()} "
            f"else {self.else_branch.to_string()}"
        )

    def _key(self):
        return (self.condition, self.then_branch, self.else_branch)


# ---------------------------------------------------------------------------
# Helpers used by the rewrite rules
# ---------------------------------------------------------------------------


def value_by_key(input: Expression, key: str) -> PathStepExpr:
    """Shorthand for the paper's value expression ``input("key")``."""
    return PathStepExpr(input, ValueByKey(key))


def keys_or_members(input: Expression) -> PathStepExpr:
    """Shorthand for the paper's keys-or-members expression ``input()``."""
    return PathStepExpr(input, KeysOrMembers())


def value_by_index(input: Expression, index: int) -> PathStepExpr:
    """Shorthand for the positional value expression ``input(i)``."""
    return PathStepExpr(input, ValueByIndex(index))
