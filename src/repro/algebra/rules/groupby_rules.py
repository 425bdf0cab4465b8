"""Group-by rules (Section 4.3 of the paper).

Three rewrites (applying to XML and JSON queries alike):

1. **Remove the redundant treat** (Figure 10): the translator guards the
   grouped sequence with ``treat(..., item)``; since everything in this
   data model is an item, the assertion is statically satisfied and the
   expression is dropped.  The built-in inline-variable-assign rule then
   removes the whole ASSIGN.
2. **Convert the scalar aggregate to an aggregation** (Figure 11): an
   ``ASSIGN $c := count(<path over $seq>)`` applied to a GROUP-BY's
   materialized group sequence becomes a SUBPLAN whose inner focus
   iterates the sequence and counts incrementally.
3. **Push the SUBPLAN's aggregate into the GROUP-BY** (Figure 12): when
   the SUBPLAN sits directly above the GROUP-BY and consumes exactly the
   grouped sequence, the aggregate replaces the ``sequence`` aggregate in
   the GROUP-BY's inner focus — the count is computed *while* each group
   forms, and no per-group sequence is ever materialized.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    Expression,
    FunctionCallExpr,
    IterateExpr,
    PathStepExpr,
    TreatExpr,
    VariableRef,
)
from repro.algebra.operators import (
    Aggregate,
    AggregateSpec,
    Assign,
    GroupBy,
    NestedTupleSource,
    Operator,
    Subplan,
    Unnest,
)
from repro.algebra.plan import LogicalPlan, VariableGenerator
from repro.algebra.rules.base import (
    RewriteRule,
    replace_operator,
    rewrite_all_expressions,
    substitute_variable,
    variable_use_count,
)
from repro.jsoniq.functions import AGGREGATE_FUNCTION_NAMES


class RemoveRedundantTreatRule(RewriteRule):
    """``treat(expr, item)`` is the identity: drop it (Figure 10)."""

    name = "remove-redundant-treat"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        changed = False

        def visit(expr: Expression) -> Expression:
            nonlocal changed
            if isinstance(expr, TreatExpr) and expr.type_name == "item":
                changed = True
                return expr.input
            return expr

        rewritten = rewrite_all_expressions(plan, visit)
        return rewritten if changed else None


def _sequence_spec_of(group_by: GroupBy, variable: str) -> AggregateSpec | None:
    """The GROUP-BY's ``sequence`` spec producing *variable*, if any."""
    for spec in group_by.nested_root.specs:
        if spec.variable == variable and spec.function == "sequence":
            return spec
    return None


def _is_path_over(expr: Expression, variable: str) -> bool:
    """True if *expr* is ``$variable`` or a pure path chain over it."""
    if isinstance(expr, VariableRef):
        return expr.name == variable
    if isinstance(expr, PathStepExpr):
        base, _ = expr.leading_path()
        return isinstance(base, VariableRef) and base.name == variable
    return False


def _group_by_below(op: Operator) -> GroupBy | None:
    """The GROUP-BY reachable from *op* walking single-input chains."""
    node: Operator = op
    while node.inputs:
        node = node.inputs[0]
        if isinstance(node, GroupBy):
            return node
        if len(node.inputs) > 1:
            return None
    return None


class ConvertScalarAggregateToSubplanRule(RewriteRule):
    """Scalar aggregate over a grouped sequence → SUBPLAN (Figure 11)."""

    name = "convert-scalar-aggregate-to-subplan"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        for op in plan.iter_operators():
            if not isinstance(op, Assign):
                continue
            expr = op.expression
            if not (
                isinstance(expr, FunctionCallExpr)
                and expr.name in AGGREGATE_FUNCTION_NAMES
                and len(expr.args) == 1
            ):
                continue
            argument = expr.args[0]
            free = argument.free_variables()
            if len(free) != 1:
                continue
            (seq_var,) = free
            if not _is_path_over(argument, seq_var):
                # The elementwise decomposition count(f(seq)) ==
                # sum_j count(f(j)) only holds for mapping expressions;
                # path chains map, arbitrary functions may not.
                continue
            group_by = _group_by_below(op)
            if group_by is None or _sequence_spec_of(group_by, seq_var) is None:
                continue
            vargen = VariableGenerator.for_plan(plan)
            item_var = vargen.fresh("j")
            inner_arg = substitute_variable(
                argument, seq_var, VariableRef(item_var)
            )
            nested: Operator = NestedTupleSource()
            nested = Unnest(
                nested, item_var, IterateExpr(VariableRef(seq_var))
            )
            nested = Aggregate(
                nested, [AggregateSpec(op.variable, expr.name, inner_arg)]
            )
            return replace_operator(plan, op, Subplan(op.input_op, nested))
        return None


class PushSubplanAggregateIntoGroupByRule(RewriteRule):
    """SUBPLAN aggregate directly above GROUP-BY → into the inner focus
    (Figure 12): the aggregate computes while each group forms and the
    per-group sequence disappears."""

    name = "push-subplan-aggregate-into-groupby"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        for op in plan.iter_operators():
            if not (isinstance(op, Subplan) and isinstance(op.input_op, GroupBy)):
                continue
            group_by = op.input_op
            pattern = self._match_nested(op.nested_root)
            if pattern is None:
                continue
            aggregate, unnest = pattern
            iterate = unnest.expression
            if not (
                isinstance(iterate, IterateExpr)
                and isinstance(iterate.input, VariableRef)
            ):
                continue
            seq_var = iterate.input.name
            sequence_spec = _sequence_spec_of(group_by, seq_var)
            if sequence_spec is None:
                continue
            # The grouped sequence must be consumed by this SUBPLAN alone.
            if variable_use_count(plan, seq_var) != 1:
                continue
            # Every pushed aggregate must depend only on the per-item var.
            item_var = unnest.variable
            if any(
                spec.argument.free_variables() - {item_var}
                for spec in aggregate.specs
            ):
                continue
            pushed = [
                spec.with_argument(
                    substitute_variable(
                        spec.argument, item_var, sequence_spec.argument
                    )
                )
                for spec in aggregate.specs
            ]
            old_nested = group_by.nested_root
            kept = [s for s in old_nested.specs if s.variable != seq_var]
            new_nested = Aggregate(NestedTupleSource(), kept + pushed)
            new_group = GroupBy(group_by.input_op, group_by.keys, new_nested)
            return replace_operator(plan, op, new_group)
        return None

    @staticmethod
    def _match_nested(nested_root: Operator) -> tuple[Aggregate, Unnest] | None:
        """Match AGGREGATE over UNNEST over NESTED-TUPLE-SOURCE."""
        if not isinstance(nested_root, Aggregate):
            return None
        unnest = nested_root.input_op
        if not isinstance(unnest, Unnest):
            return None
        if not isinstance(unnest.input_op, NestedTupleSource):
            return None
        return nested_root, unnest


GROUPBY_RULES = (
    RemoveRedundantTreatRule(),
    ConvertScalarAggregateToSubplanRule(),
    PushSubplanAggregateIntoGroupByRule(),
)
