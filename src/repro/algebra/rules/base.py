"""Rewrite-rule framework: the Algebricks-style fixpoint engine.

A :class:`RewriteRule` inspects a whole plan and either returns a
rewritten plan or ``None`` (no match).  The :class:`RuleEngine` applies
an ordered rule list to a fixpoint: whenever any rule fires, scanning
restarts from the first rule, so cleanups re-run after every structural
change.  Plans are small (tens of operators), so whole-plan rules keep
the pattern code simple without costing anything measurable.

The module also provides the analysis helpers every rule needs:
variable-usage counting and variable/expression substitution.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import RewriteError
from repro.algebra.expressions import Expression, VariableRef
from repro.algebra.operators import Operator
from repro.algebra.plan import LogicalPlan

_MAX_REWRITE_PASSES = 500


class RewriteRule:
    """Base class for rewrite rules."""

    #: human-readable rule name (used by explain traces)
    name: str = "rule"

    def apply(self, plan: LogicalPlan) -> LogicalPlan | None:
        """Return the rewritten plan, or None if the rule does not match."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<rule {self.name}>"


class RuleEngine:
    """Applies an ordered rule list to a fixpoint.

    When *validator* is given (a callable raising on an invalid
    :class:`LogicalPlan`), the input plan is validated once up front and
    the rewritten plan is re-validated after **every** rule fire, so a
    rule that breaks a structural invariant fails immediately with the
    offending rule's name instead of executing a corrupt plan.
    """

    def __init__(
        self,
        rules: Sequence[RewriteRule],
        validator: Callable[[LogicalPlan], None] | None = None,
    ):
        self.rules = list(rules)
        self.validator = validator

    def rewrite(
        self,
        plan: LogicalPlan,
        trace: list[tuple[str, LogicalPlan]] | None = None,
        audit=None,
    ) -> LogicalPlan:
        """Rewrite *plan* to a fixpoint.

        When *trace* is given, every applied step is appended as a
        ``(rule_name, plan_after)`` pair — used by ``explain``.  When
        *audit* (a :class:`~repro.observability.rewrite_audit.RewriteAudit`)
        is given, every firing is recorded with its operator-count delta
        — used by the query profiles.
        """
        self._validate(plan, "translated plan")
        for _ in range(_MAX_REWRITE_PASSES):
            for rule in self.rules:
                rewritten = rule.apply(plan)
                if rewritten is not None:
                    self._validate(rewritten, f"rule {rule.name}")
                    if trace is not None:
                        trace.append((rule.name, rewritten))
                    if audit is not None:
                        audit.record(rule.name, plan, rewritten)
                    plan = rewritten
                    break
            else:
                return plan
        raise RewriteError(
            f"rewrite did not reach a fixpoint in {_MAX_REWRITE_PASSES} passes"
        )

    def _validate(self, plan: LogicalPlan, origin: str) -> None:
        if self.validator is None:
            return
        try:
            self.validator(plan)
        except RewriteError as error:
            raise type(error)(f"after {origin}: {error}") from error


# ---------------------------------------------------------------------------
# Expression transforms
# ---------------------------------------------------------------------------


def transform_expression(
    expr: Expression, visit: Callable[[Expression], Expression]
) -> Expression:
    """Rebuild an expression tree bottom-up through *visit*."""
    children = expr.child_expressions()
    if children:
        new_children = [transform_expression(c, visit) for c in children]
        if tuple(new_children) != children:
            expr = expr.with_child_expressions(new_children)
    return visit(expr)


def rewrite_all_expressions(
    plan: LogicalPlan, visit: Callable[[Expression], Expression]
) -> LogicalPlan:
    """Apply an expression transform to every expression in the plan."""

    def rebuild(op: Operator) -> Operator:
        expressions = op.used_expressions()
        if not expressions:
            return op
        new_expressions = [transform_expression(e, visit) for e in expressions]
        if tuple(new_expressions) == expressions:
            return op
        return op.with_expressions(new_expressions)

    return plan.transform_bottom_up(rebuild)


def substitute_variable(expr: Expression, old: str, new: Expression) -> Expression:
    """Replace every ``$old`` reference in *expr* with *new*."""

    def visit(node: Expression) -> Expression:
        if isinstance(node, VariableRef) and node.name == old:
            return new
        return node

    return transform_expression(expr, visit)


def substitute_variable_in_plan(
    plan: LogicalPlan, old: str, new: Expression
) -> LogicalPlan:
    """Replace ``$old`` with *new* in every expression of the plan."""
    return rewrite_all_expressions(
        plan,
        lambda node: new
        if isinstance(node, VariableRef) and node.name == old
        else node,
    )


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def variable_use_count(plan: LogicalPlan, name: str) -> int:
    """Number of ``$name`` references across all plan expressions."""
    count = 0
    for op in plan.iter_operators():
        for expr in op.used_expressions():
            count += _count_refs(expr, name)
    return count


def _count_refs(expr: Expression, name: str) -> int:
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, VariableRef) and node.name == name:
            count += 1
        stack.extend(node.child_expressions())
    return count


def conjuncts(condition: Expression) -> tuple[Expression, ...]:
    """Flatten a condition into its top-level AND conjuncts."""
    from repro.algebra.expressions import AndExpr

    if isinstance(condition, AndExpr):
        return condition.conjuncts()
    return (condition,)


def subtree_variables(op: Operator) -> set[str]:
    """All variables produced anywhere in *op*'s subtree."""
    names: set[str] = set()
    for node in LogicalPlan(op).iter_operators():
        names.update(node.produced_variables())
    return names


def replace_operator(
    plan: LogicalPlan, target: Operator, replacement: Operator
) -> LogicalPlan:
    """Replace the (identity-matched) *target* operator with *replacement*."""
    replaced = False

    def visit(op: Operator) -> Operator:
        nonlocal replaced
        if op is target:
            replaced = True
            return replacement
        return op

    rewritten = plan.transform_bottom_up(visit)
    if not replaced:
        raise RewriteError("operator to replace not found in plan")
    return rewritten
