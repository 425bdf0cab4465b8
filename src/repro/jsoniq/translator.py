"""AST → naive logical plan translation.

The translator is deliberately *naive*: it produces exactly the plan
shapes the paper shows **before** rewriting (Figures 3, 5, and 9), so
that the rewrite rules of :mod:`repro.algebra.rules` have the patterns
they expect and the before/after experiments measure the same gap the
paper measures.

Key naive shapes:

- a ``for`` over a collection path becomes ``ASSIGN collection`` +
  ``UNNEST iterate`` + ``ASSIGN`` (value steps) and, for a trailing
  keys-or-members, the *two-step* ``ASSIGN keys-or-members`` +
  ``UNNEST iterate`` pair (Figure 3 / 5);
- ``json-doc`` arguments get wrapped in ``promote(data(...), string)``
  (Figure 3's first ASSIGN);
- ``group by`` materializes each group with a nested
  ``AGGREGATE sequence`` and re-binds grouped variables through
  ``ASSIGN treat(..., item)`` (Figure 9);
- an aggregate function over a nested FLWOR becomes a SUBPLAN whose root
  aggregates incrementally (Figure 11) — at top level it is inlined into
  the main pipeline;
- a second, independent ``for`` becomes a JOIN with condition ``true``
  (a cross product); built-in rules later fold SELECT predicates into it.
"""

from __future__ import annotations

from repro.errors import TranslationError, UnboundVariableError
from repro.algebra.expressions import (
    AndExpr,
    ArithmeticExpr,
    ArrayConstructorExpr,
    CollectionExpr,
    ComparisonExpr,
    DataExpr,
    Expression,
    FunctionCallExpr,
    IfExpr,
    IterateExpr,
    JsonDocExpr,
    Literal,
    ObjectConstructorExpr,
    OrExpr,
    PathStepExpr,
    PromoteExpr,
    SequenceExpr,
    TreatExpr,
    TRUE_LITERAL,
    VariableRef,
    keys_or_members,
)
from repro.algebra.operators import (
    Aggregate,
    AggregateSpec,
    Assign,
    DistributeResult,
    EmptyTupleSource,
    GroupBy,
    Join,
    NestedTupleSource,
    Operator,
    Select,
    Sort,
    Subplan,
    Unnest,
)
from repro.algebra.plan import LogicalPlan, VariableGenerator
from repro.jsonlib.path import KeysOrMembers, ValueByIndex, ValueByKey
from repro.jsoniq.ast import (
    ArrayConstructorNode,
    AstNode,
    BinaryOpNode,
    FlworNode,
    ForClause,
    FunctionCallNode,
    GroupByClause,
    IfNode,
    LetClause,
    LiteralNode,
    LookupNode,
    ObjectConstructorNode,
    OrderByClause,
    SequenceNode,
    UnaryMinusNode,
    VarNode,
    WhereClause,
)
from repro.jsoniq.functions import AGGREGATE_FUNCTION_NAMES

_COMPARISON_OPS = frozenset(["eq", "ne", "lt", "le", "gt", "ge"])
_ARITHMETIC_OPS = frozenset(["+", "-", "*", "div", "idiv", "mod"])


def ast_free_variables(node: AstNode, bound: frozenset = frozenset()) -> set[str]:
    """Free query-variable names of an AST node."""
    if isinstance(node, VarNode):
        return set() if node.name in bound else {node.name}
    if isinstance(node, LiteralNode):
        return set()
    if isinstance(node, FlworNode):
        free: set[str] = set()
        inner_bound = set(bound)
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                free |= ast_free_variables(clause.source, frozenset(inner_bound))
                inner_bound.add(clause.variable)
            elif isinstance(clause, LetClause):
                free |= ast_free_variables(clause.value, frozenset(inner_bound))
                inner_bound.add(clause.variable)
            elif isinstance(clause, WhereClause):
                free |= ast_free_variables(clause.condition, frozenset(inner_bound))
            elif isinstance(clause, GroupByClause):
                for variable, expr in clause.keys:
                    if expr is not None:
                        free |= ast_free_variables(expr, frozenset(inner_bound))
                    inner_bound.add(variable)
            elif isinstance(clause, OrderByClause):
                for expr, _ in clause.specs:
                    free |= ast_free_variables(expr, frozenset(inner_bound))
        free |= ast_free_variables(node.return_expr, frozenset(inner_bound))
        return free
    # Generic structural nodes.
    free = set()
    for child in _ast_children(node):
        free |= ast_free_variables(child, bound)
    return free


def _ast_children(node: AstNode) -> list[AstNode]:
    if isinstance(node, FunctionCallNode):
        return list(node.args)
    if isinstance(node, LookupNode):
        return [node.base] + ([node.key] if node.key is not None else [])
    if isinstance(node, BinaryOpNode):
        return [node.left, node.right]
    if isinstance(node, UnaryMinusNode):
        return [node.operand]
    if isinstance(node, SequenceNode):
        return list(node.items)
    if isinstance(node, ObjectConstructorNode):
        return [expr for _, expr in node.pairs]
    if isinstance(node, ArrayConstructorNode):
        return list(node.members)
    if isinstance(node, IfNode):
        return [node.condition, node.then_branch, node.else_branch]
    return []


class _PathChain:
    """A decomposed source path: base call plus static lookup steps."""

    __slots__ = ("kind", "argument", "steps")

    def __init__(self, kind: str, argument: str, steps: list):
        self.kind = kind  # "collection" | "json-doc"
        self.argument = argument
        self.steps = steps


def _decompose_source_path(node: AstNode) -> _PathChain | None:
    """Recognize ``collection("/x")("a")()...`` / ``json-doc(...)...``.

    Returns None when the node is not such a chain (dynamic keys, other
    bases), in which case the generic translation applies.
    """
    steps: list = []
    while isinstance(node, LookupNode):
        if node.key is None:
            steps.append(KeysOrMembers())
        elif isinstance(node.key, LiteralNode) and isinstance(node.key.value, str):
            steps.append(ValueByKey(node.key.value))
        elif isinstance(node.key, LiteralNode) and isinstance(node.key.value, int):
            steps.append(ValueByIndex(node.key.value))
        else:
            return None
        node = node.base
    steps.reverse()
    if (
        isinstance(node, FunctionCallNode)
        and node.name in ("collection", "json-doc")
        and len(node.args) == 1
        and isinstance(node.args[0], LiteralNode)
        and isinstance(node.args[0].value, str)
    ):
        return _PathChain(node.name, node.args[0].value, steps)
    return None


class Translator:
    """Translates one query AST into a naive :class:`LogicalPlan`."""

    def __init__(self) -> None:
        self._vargen = VariableGenerator()
        self._used_names: set[str] = set()

    # -- public --------------------------------------------------------------

    def translate(self, ast: AstNode) -> LogicalPlan:
        """Translate a full query."""
        chain: Operator = EmptyTupleSource()
        scope: dict[str, str] = {}
        if isinstance(ast, FlworNode):
            chain, result_var = self._translate_flwor(ast, chain, scope)
        elif _decompose_source_path(ast) is not None:
            # A bare path query like Listing 2's bookstore example gets
            # the unnesting plan of Figure 3, as if it were
            # ``for $item in <path> return $item``.
            implicit = ForClause("item", ast)
            chain = self._translate_for_source(implicit, chain, scope)
            result_var = scope["item"]
        else:
            expr, chain = self._translate_expression(ast, chain, scope)
            result_var = self._fresh("result")
            chain = Assign(chain, result_var, expr)
        root = DistributeResult(chain, [VariableRef(result_var)])
        return LogicalPlan(root)

    # -- naming --------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        return self._vargen.fresh(prefix)

    def _bind_name(self, query_var: str) -> str:
        """Plan variable for a query variable (stable when unambiguous)."""
        if query_var not in self._used_names:
            self._used_names.add(query_var)
            return query_var
        return self._fresh(query_var)

    # -- FLWOR ---------------------------------------------------------------

    def _translate_flwor(
        self, flwor: FlworNode, chain: Operator, outer_scope: dict[str, str]
    ) -> tuple[Operator, str]:
        previous_flwor = self._current_flwor
        self._current_flwor = flwor
        try:
            scope = dict(outer_scope)
            chain = self._translate_clauses(flwor.clauses, chain, scope)
            return_expr, chain = self._translate_expression(
                flwor.return_expr, chain, scope
            )
            result_var = self._fresh("ret")
            chain = Assign(chain, result_var, return_expr)
            return chain, result_var
        finally:
            self._current_flwor = previous_flwor

    def _translate_clauses(
        self, clauses, chain: Operator, scope: dict[str, str]
    ) -> Operator:
        saw_for = not isinstance(chain, (EmptyTupleSource,))
        for clause in clauses:
            if isinstance(clause, ForClause):
                chain = self._translate_for(clause, chain, scope, saw_for)
                saw_for = True
            elif isinstance(clause, LetClause):
                expr, chain = self._translate_expression(clause.value, chain, scope)
                plan_var = self._bind_name(clause.variable)
                chain = Assign(chain, plan_var, expr)
                scope[clause.variable] = plan_var
            elif isinstance(clause, WhereClause):
                condition, chain = self._translate_expression(
                    clause.condition, chain, scope
                )
                chain = Select(chain, condition)
            elif isinstance(clause, GroupByClause):
                chain = self._translate_group_by(clause, chain, scope, clauses)
            elif isinstance(clause, OrderByClause):
                specs = []
                for expr_ast, descending in clause.specs:
                    expr, chain = self._translate_expression(
                        expr_ast, chain, scope
                    )
                    specs.append((expr, descending))
                chain = Sort(chain, specs)
            else:  # pragma: no cover - clause types are closed
                raise TranslationError(f"unknown clause {clause!r}")
        return chain

    def _translate_for(
        self,
        clause: ForClause,
        chain: Operator,
        scope: dict[str, str],
        saw_for: bool,
    ) -> Operator:
        free = ast_free_variables(clause.source)
        independent = not (free & scope.keys())
        if independent and saw_for:
            # An independent second `for` is a cross product: build the
            # right branch on its own EMPTY-TUPLE-SOURCE and JOIN.  The
            # built-in rules later fold SELECT equi-predicates into it.
            right_scope: dict[str, str] = {}
            right = self._translate_for_source(
                clause, EmptyTupleSource(), right_scope
            )
            scope[clause.variable] = right_scope[clause.variable]
            return Join(chain, right, TRUE_LITERAL)
        return self._translate_for_source(clause, chain, scope)

    def _translate_for_source(
        self, clause: ForClause, chain: Operator, scope: dict[str, str]
    ) -> Operator:
        plan_var = self._bind_name(clause.variable)
        source = _decompose_source_path(clause.source)
        if source is not None and source.kind == "collection":
            chain = self._translate_collection_source(source, chain, plan_var)
        elif source is not None:
            chain = self._translate_document_source(source, chain, plan_var)
        else:
            expr, chain = self._translate_expression(clause.source, chain, scope)
            if not isinstance(expr, VariableRef):
                seq_var = self._fresh("seq")
                chain = Assign(chain, seq_var, expr)
                expr = VariableRef(seq_var)
            chain = Unnest(chain, plan_var, IterateExpr(expr))
        scope[clause.variable] = plan_var
        return chain

    def _translate_collection_source(
        self, source: _PathChain, chain: Operator, plan_var: str
    ) -> Operator:
        """Figure 5's naive shape: ASSIGN collection + UNNEST iterate +
        ASSIGN value-steps + the two-step keys-or-members."""
        coll_var = self._fresh("coll")
        chain = Assign(chain, coll_var, CollectionExpr(source.argument))
        file_var = self._fresh("file")
        chain = Unnest(chain, file_var, IterateExpr(VariableRef(coll_var)))
        return self._translate_path_steps(
            chain, VariableRef(file_var), source.steps, plan_var
        )

    def _translate_document_source(
        self, source: _PathChain, chain: Operator, plan_var: str
    ) -> Operator:
        """Figure 3's naive shape: one ASSIGN holding promote/data around
        the json-doc argument plus the leading value steps."""
        doc_expr = JsonDocExpr(
            PromoteExpr(DataExpr(Literal.of(source.argument)), "string")
        )
        return self._translate_path_steps(chain, doc_expr, source.steps, plan_var)

    def _translate_path_steps(
        self,
        chain: Operator,
        base: Expression,
        steps: list,
        plan_var: str,
    ) -> Operator:
        trailing_km = bool(steps) and isinstance(steps[-1], KeysOrMembers)
        value_steps = steps[:-1] if trailing_km else steps
        current: Expression = base
        if value_steps:
            current = PathStepExpr.chain(current, value_steps)
        if not isinstance(current, VariableRef):
            seq_var = self._fresh("seq")
            chain = Assign(chain, seq_var, current)
            current = VariableRef(seq_var)
        if trailing_km:
            # The two-step evaluation of Figure 3: materialize the
            # keys-or-members sequence, then iterate it.
            km_var = self._fresh("km")
            chain = Assign(chain, km_var, keys_or_members(current))
            current = VariableRef(km_var)
        return Unnest(chain, plan_var, IterateExpr(current))

    def _translate_group_by(
        self,
        clause: GroupByClause,
        chain: Operator,
        scope: dict[str, str],
        all_clauses,
    ) -> Operator:
        # Evaluate key expressions with ASSIGNs below the GROUP-BY
        # (Figure 9's ASSIGN for the author key).
        key_pairs: list[tuple[str, Expression]] = []
        key_query_vars: set[str] = set()
        for query_var, key_ast in clause.keys:
            if key_ast is None:
                if query_var not in scope:
                    raise UnboundVariableError(query_var)
                key_var = scope[query_var]
            else:
                expr, chain = self._translate_expression(key_ast, chain, scope)
                key_var = self._bind_name(query_var)
                chain = Assign(chain, key_var, expr)
            key_pairs.append((key_var, VariableRef(key_var)))
            key_query_vars.add(query_var)

        # Variables still needed above the GROUP-BY get materialized with
        # a nested AGGREGATE sequence, then re-bound via ASSIGN treat
        # (Figure 9) — the shape the group-by rules clean up.
        needed = self._variables_needed_after_group_by(clause, all_clauses)
        grouped = [
            query_var
            for query_var in needed
            if query_var in scope and query_var not in key_query_vars
        ]
        specs = []
        rebinds: list[tuple[str, str]] = []
        for query_var in grouped:
            agg_var = self._fresh("seqagg")
            specs.append(
                AggregateSpec(agg_var, "sequence", VariableRef(scope[query_var]))
            )
            rebinds.append((query_var, agg_var))
        if not specs:
            # GROUP-BY always carries an inner focus; aggregate the key
            # itself so each group yields one tuple even when no grouped
            # variable is needed above.
            specs.append(
                AggregateSpec(self._fresh("seqagg"), "sequence", key_pairs[0][1])
            )
        nested = Aggregate(NestedTupleSource(), specs)
        chain = GroupBy(chain, key_pairs, nested)
        for query_var, agg_var in rebinds:
            treat_var = self._bind_name(query_var)
            chain = Assign(
                chain, treat_var, TreatExpr(VariableRef(agg_var), "item")
            )
            scope[query_var] = treat_var
        for (key_var, _), (query_var, _) in zip(key_pairs, clause.keys):
            scope[query_var] = key_var
        return chain

    def _variables_needed_after_group_by(self, clause, all_clauses) -> list[str]:
        """Query variables referenced by clauses after the group-by."""
        index = list(all_clauses).index(clause)
        needed: set[str] = set()
        for later in list(all_clauses)[index + 1 :]:
            if isinstance(later, WhereClause):
                needed |= ast_free_variables(later.condition)
            elif isinstance(later, LetClause):
                needed |= ast_free_variables(later.value)
            elif isinstance(later, ForClause):
                needed |= ast_free_variables(later.source)
            elif isinstance(later, GroupByClause):
                for _, expr in later.keys:
                    if expr is not None:
                        needed |= ast_free_variables(expr)
        flwor = self._current_flwor
        if flwor is not None:
            needed |= ast_free_variables(flwor.return_expr)
        return sorted(needed)

    # -- expressions ----------------------------------------------------------

    _current_flwor: FlworNode | None = None

    def _translate_expression(
        self, node: AstNode, chain: Operator, scope: dict[str, str]
    ) -> tuple[Expression, Operator]:
        if isinstance(node, LiteralNode):
            return Literal.of(node.value), chain
        if isinstance(node, VarNode):
            if node.name not in scope:
                raise UnboundVariableError(node.name)
            return VariableRef(scope[node.name]), chain
        if isinstance(node, LookupNode):
            return self._translate_lookup(node, chain, scope)
        if isinstance(node, FunctionCallNode):
            return self._translate_function_call(node, chain, scope)
        if isinstance(node, BinaryOpNode):
            return self._translate_binary(node, chain, scope)
        if isinstance(node, UnaryMinusNode):
            operand, chain = self._translate_expression(node.operand, chain, scope)
            return ArithmeticExpr("-", Literal.of(0), operand), chain
        if isinstance(node, SequenceNode):
            exprs = []
            for item in node.items:
                expr, chain = self._translate_expression(item, chain, scope)
                exprs.append(expr)
            return SequenceExpr(exprs), chain
        if isinstance(node, ObjectConstructorNode):
            pairs = []
            for key, value_ast in node.pairs:
                expr, chain = self._translate_expression(value_ast, chain, scope)
                pairs.append((key, expr))
            return ObjectConstructorExpr(pairs), chain
        if isinstance(node, ArrayConstructorNode):
            members = []
            for member_ast in node.members:
                expr, chain = self._translate_expression(member_ast, chain, scope)
                members.append(expr)
            return ArrayConstructorExpr(members), chain
        if isinstance(node, IfNode):
            condition, chain = self._translate_expression(
                node.condition, chain, scope
            )
            then_branch, chain = self._translate_expression(
                node.then_branch, chain, scope
            )
            else_branch, chain = self._translate_expression(
                node.else_branch, chain, scope
            )
            return IfExpr(condition, then_branch, else_branch), chain
        if isinstance(node, FlworNode):
            return self._translate_nested_flwor("sequence", node, chain, scope)
        raise TranslationError(f"cannot translate AST node {node!r}")

    def _translate_lookup(
        self, node: LookupNode, chain: Operator, scope: dict[str, str]
    ) -> tuple[Expression, Operator]:
        base, chain = self._translate_expression(node.base, chain, scope)
        if node.key is None:
            return keys_or_members(base), chain
        if isinstance(node.key, LiteralNode) and isinstance(node.key.value, str):
            return PathStepExpr(base, ValueByKey(node.key.value)), chain
        if isinstance(node.key, LiteralNode) and isinstance(node.key.value, int):
            return PathStepExpr(base, ValueByIndex(node.key.value)), chain
        raise TranslationError(
            "dynamic lookup keys are not supported; use a literal key"
        )

    def _translate_function_call(
        self, node: FunctionCallNode, chain: Operator, scope: dict[str, str]
    ) -> tuple[Expression, Operator]:
        if node.name == "collection" and len(node.args) == 1:
            arg = node.args[0]
            if isinstance(arg, LiteralNode) and isinstance(arg.value, str):
                return CollectionExpr(arg.value), chain
            raise TranslationError("collection() requires a literal string")
        if node.name == "json-doc" and len(node.args) == 1:
            expr, chain = self._translate_expression(node.args[0], chain, scope)
            return (
                JsonDocExpr(PromoteExpr(DataExpr(expr), "string")),
                chain,
            )
        if (
            node.name in AGGREGATE_FUNCTION_NAMES
            and len(node.args) == 1
            and isinstance(node.args[0], FlworNode)
        ):
            return self._translate_nested_flwor(
                node.name, node.args[0], chain, scope
            )
        args = []
        for arg_ast in node.args:
            expr, chain = self._translate_expression(arg_ast, chain, scope)
            args.append(expr)
        return FunctionCallExpr(node.name, args), chain

    def _translate_binary(
        self, node: BinaryOpNode, chain: Operator, scope: dict[str, str]
    ) -> tuple[Expression, Operator]:
        left, chain = self._translate_expression(node.left, chain, scope)
        right, chain = self._translate_expression(node.right, chain, scope)
        if node.op == "and":
            return AndExpr([left, right]), chain
        if node.op == "or":
            return OrExpr([left, right]), chain
        if node.op in _COMPARISON_OPS:
            return ComparisonExpr(node.op, left, right), chain
        if node.op in _ARITHMETIC_OPS:
            return ArithmeticExpr(node.op, left, right), chain
        raise TranslationError(f"unknown operator {node.op!r}")

    def _translate_nested_flwor(
        self,
        aggregate: str,
        flwor: FlworNode,
        chain: Operator,
        scope: dict[str, str],
    ) -> tuple[Expression, Operator]:
        """An aggregate over a nested FLWOR.

        A FLWOR that reads no variable of the enclosing scope is built on
        its own EMPTY-TUPLE-SOURCE and capped with an AGGREGATE; over an
        EMPTY-TUPLE-SOURCE that is the whole pipeline (the shape that
        lets the two-step aggregation parallelize Q2's ``avg``), over
        anything else its one tuple joins the chain's.  Otherwise, and
        inside a nested plan (which holds no JOIN), it becomes a SUBPLAN
        (Figure 11).
        """
        previous_flwor = self._current_flwor
        self._current_flwor = flwor
        try:
            result_var = self._fresh("agg")
            leaf = chain
            while leaf.inputs:
                leaf = leaf.inputs[0]
            if not isinstance(leaf, NestedTupleSource) and not (
                ast_free_variables(flwor) & scope.keys()
            ):
                inner_scope: dict[str, str] = {}
                inner_chain = self._translate_clauses(
                    flwor.clauses, EmptyTupleSource(), inner_scope
                )
                return_expr, inner_chain = self._translate_expression(
                    flwor.return_expr, inner_chain, inner_scope
                )
                inner_chain = Aggregate(
                    inner_chain,
                    [AggregateSpec(result_var, aggregate, return_expr)],
                )
                if not isinstance(chain, EmptyTupleSource):
                    inner_chain = Join(chain, inner_chain, TRUE_LITERAL)
                return VariableRef(result_var), inner_chain
            nested_scope = dict(scope)
            nested: Operator = NestedTupleSource()
            nested = self._translate_clauses(flwor.clauses, nested, nested_scope)
            return_expr, nested = self._translate_expression(
                flwor.return_expr, nested, nested_scope
            )
            nested = Aggregate(
                nested, [AggregateSpec(result_var, aggregate, return_expr)]
            )
            chain = Subplan(chain, nested)
            return VariableRef(result_var), chain
        finally:
            self._current_flwor = previous_flwor


def translate(ast: AstNode) -> LogicalPlan:
    """Translate a parsed query AST into a naive logical plan."""
    translator = Translator()
    if isinstance(ast, FlworNode):
        translator._current_flwor = ast
    return translator.translate(ast)
