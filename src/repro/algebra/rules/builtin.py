"""Algebricks-style built-in rules, applied regardless of configuration.

These are the generic (language-independent) optimizations the paper
attributes to Algebricks itself: variable inlining, dead-code removal,
and folding SELECT predicates into JOINs so equi-joins can execute as
hash joins.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    AndExpr,
    ComparisonExpr,
    Expression,
    Literal,
    TRUE_LITERAL,
    VariableRef,
)
from repro.algebra.operators import (
    Aggregate,
    Assign,
    GroupBy,
    Join,
    Operator,
    Select,
)
from repro.algebra.plan import LogicalPlan
from repro.algebra.rules.base import (
    RewriteRule,
    conjuncts as _conjuncts,
    replace_operator,
    substitute_variable_in_plan,
    subtree_variables as _subtree_variables,
    variable_use_count,
)


def _combine(conjuncts: list[Expression]) -> Expression:
    if not conjuncts:
        return TRUE_LITERAL
    if len(conjuncts) == 1:
        return conjuncts[0]
    return AndExpr(conjuncts)


def _is_true_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.sequence == [True]


class InlineVariableAssignRule(RewriteRule):
    """``ASSIGN $x := $y`` is redundant: substitute and drop.

    This is the step that finishes the treat removal of Figure 10 ("the
    whole ASSIGN can now be removed since it is a redundant operator").
    """

    name = "inline-variable-assign"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        for op in plan.iter_operators():
            if isinstance(op, Assign) and isinstance(op.expression, VariableRef):
                without = replace_operator(plan, op, op.input_op)
                return substitute_variable_in_plan(
                    without, op.variable, op.expression
                )
        return None


class RemoveUnusedAssignRule(RewriteRule):
    """Drop an ASSIGN whose variable is referenced nowhere."""

    name = "remove-unused-assign"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        for op in plan.iter_operators():
            if isinstance(op, Assign) and variable_use_count(plan, op.variable) == 0:
                return replace_operator(plan, op, op.input_op)
        return None


class PushSelectIntoJoinRule(RewriteRule):
    """Fold a SELECT's predicates into the JOIN below it.

    Equality conjuncts spanning both branches become the join condition
    (enabling the hash join); single-branch conjuncts are pushed into
    their branch; anything else stays above the join.
    """

    name = "push-select-into-join"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        for op in plan.iter_operators():
            if not (isinstance(op, Select) and isinstance(op.input_op, Join)):
                continue
            join = op.input_op
            left_vars = _subtree_variables(join.left)
            right_vars = _subtree_variables(join.right)
            join_conjuncts: list[Expression] = []
            left_conjuncts: list[Expression] = []
            right_conjuncts: list[Expression] = []
            residual: list[Expression] = []
            for conjunct in _conjuncts(op.condition):
                free = conjunct.free_variables()
                if free and free <= left_vars:
                    left_conjuncts.append(conjunct)
                elif free and free <= right_vars:
                    right_conjuncts.append(conjunct)
                elif (
                    isinstance(conjunct, ComparisonExpr)
                    and conjunct.op == "eq"
                    and self._spans(conjunct, left_vars, right_vars)
                ):
                    join_conjuncts.append(conjunct)
                else:
                    residual.append(conjunct)
            if not (join_conjuncts or left_conjuncts or right_conjuncts):
                continue  # nothing to move for this SELECT+JOIN pair
            left = join.left
            if left_conjuncts:
                left = Select(left, _combine(left_conjuncts))
            right = join.right
            if right_conjuncts:
                right = Select(right, _combine(right_conjuncts))
            condition_parts = list(join_conjuncts)
            if not _is_true_literal(join.condition):
                condition_parts.extend(_conjuncts(join.condition))
            new_join = Join(left, right, _combine(condition_parts))
            replacement: Operator = new_join
            if residual:
                replacement = Select(new_join, _combine(residual))
            return replace_operator(plan, op, replacement)
        return None

    @staticmethod
    def _spans(
        conjunct: ComparisonExpr, left_vars: set[str], right_vars: set[str]
    ) -> bool:
        """True when one operand depends only on the left branch and the
        other only on the right (either orientation)."""
        a = conjunct.left.free_variables()
        b = conjunct.right.free_variables()
        if not a or not b:
            return False
        return (a <= left_vars and b <= right_vars) or (
            a <= right_vars and b <= left_vars
        )


class RemoveUnusedAggregateSpecRule(RewriteRule):
    """Drop aggregate bindings whose variable is never referenced.

    Applies to the nested AGGREGATE of a GROUP-BY (at least one spec is
    always kept, since GROUP-BY must emit one tuple per group).
    """

    name = "remove-unused-aggregate-spec"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        for op in plan.iter_operators():
            if not isinstance(op, GroupBy):
                continue
            nested = op.nested_root
            if len(nested.specs) <= 1:
                continue
            kept = [
                spec
                for spec in nested.specs
                if variable_use_count(plan, spec.variable) > 0
            ]
            if len(kept) == len(nested.specs):
                continue
            if not kept:
                kept = [nested.specs[0]]
            new_group = op.with_nested_root(Aggregate(nested.input_op, kept))
            return replace_operator(plan, op, new_group)
        return None


BUILTIN_RULES = (
    InlineVariableAssignRule(),
    PushSelectIntoJoinRule(),
    RemoveUnusedAssignRule(),
    RemoveUnusedAggregateSpecRule(),
)
