"""Plan invariant validator: catches deliberately broken plans and
accepts every plan the default pipeline produces."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Literal, VariableRef
from repro.algebra.operators import (
    Aggregate,
    AggregateSpec,
    Assign,
    DataScan,
    DistributeResult,
    EmptyTupleSource,
    GroupBy,
    NestedTupleSource,
    Select,
    Subplan,
)
from repro.algebra.plan import LogicalPlan
from repro.algebra.rules import TOGGLE_CONFIGS, rule_pipeline
from repro.bench.queries import ALL_QUERIES
from repro.compiler.pipeline import compile_query
from repro.correctness.validator import PlanInvariantError, validate_plan
from repro.errors import RewriteError
from repro.jsoniq.parser import parse_query
from repro.jsoniq.translator import translate
from repro.jsonlib.path import Path


def _scan(variable: str = "x") -> DataScan:
    return DataScan("/c", variable)


def _valid_plan() -> LogicalPlan:
    return LogicalPlan(
        DistributeResult(_scan(), [VariableRef("x")])
    )


class TestAccepts:
    def test_minimal_plan(self):
        validate_plan(_valid_plan())

    @pytest.mark.parametrize("query_name", sorted(ALL_QUERIES))
    @pytest.mark.parametrize("toggle", sorted(TOGGLE_CONFIGS))
    def test_every_paper_query_under_every_toggle(self, query_name, toggle):
        query = ALL_QUERIES[query_name](collection="/sensors", wrapped=True)
        compiled = compile_query(query, TOGGLE_CONFIGS[toggle])
        validate_plan(compiled.naive_plan)
        validate_plan(compiled.plan)

    def test_rebinding_across_scopes_is_fine(self):
        # Figure 9 rebinds grouped variables via ASSIGN treat; the same
        # name may be bound again downstream of an AGGREGATE boundary.
        inner = Aggregate(
            NestedTupleSource(),
            [AggregateSpec("agg", "sequence", VariableRef("x"))],
        )
        group = GroupBy(_scan(), [("k", VariableRef("x"))], inner)
        rebind = Assign(group, "x", VariableRef("agg"))
        validate_plan(
            LogicalPlan(DistributeResult(rebind, [VariableRef("x")]))
        )


class TestRejects:
    def test_root_must_be_distribute_result(self):
        with pytest.raises(PlanInvariantError, match="root"):
            validate_plan(LogicalPlan(_scan()))

    def test_distribute_result_below_root(self):
        nested = DistributeResult(_scan(), [VariableRef("x")])
        plan = LogicalPlan(DistributeResult(nested, [VariableRef("x")]))
        with pytest.raises(PlanInvariantError, match="below the plan root"):
            validate_plan(plan)

    def test_dangling_variable(self):
        plan = LogicalPlan(
            DistributeResult(_scan("x"), [VariableRef("gone")])
        )
        with pytest.raises(PlanInvariantError, match=r"\$gone"):
            validate_plan(plan)

    def test_variable_not_visible_through_aggregate(self):
        # AGGREGATE emits a fresh tuple of its spec variables only; the
        # input variable $x must not leak through.
        agg = Aggregate(
            _scan("x"), [AggregateSpec("n", "count", VariableRef("x"))]
        )
        plan = LogicalPlan(DistributeResult(agg, [VariableRef("x")]))
        with pytest.raises(PlanInvariantError, match=r"\$x"):
            validate_plan(plan)

    def test_nested_tuple_source_in_main_tree(self):
        plan = LogicalPlan(
            DistributeResult(NestedTupleSource(), [Literal([1])])
        )
        with pytest.raises(PlanInvariantError, match="outside a nested"):
            validate_plan(plan)

    def test_nested_plan_root_must_be_aggregate(self):
        nested = Select(NestedTupleSource(), Literal([True]))
        plan = LogicalPlan(
            DistributeResult(Subplan(_scan(), nested), [VariableRef("x")])
        )
        with pytest.raises(PlanInvariantError, match="must be AGGREGATE"):
            validate_plan(plan)

    def test_nested_plan_leaf_must_be_nested_tuple_source(self):
        nested = Aggregate(
            EmptyTupleSource(),
            [AggregateSpec("n", "count", Literal([1]))],
        )
        plan = LogicalPlan(
            DistributeResult(Subplan(_scan(), nested), [VariableRef("n")])
        )
        with pytest.raises(PlanInvariantError, match="NESTED-TUPLE-SOURCE"):
            validate_plan(plan)

    def test_duplicate_group_by_keys(self):
        inner = Aggregate(
            NestedTupleSource(),
            [AggregateSpec("n", "count", VariableRef("x"))],
        )
        group = GroupBy(
            _scan(),
            [("k", VariableRef("x")), ("k", VariableRef("x"))],
            inner,
        )
        plan = LogicalPlan(DistributeResult(group, [VariableRef("n")]))
        with pytest.raises(PlanInvariantError, match="twice"):
            validate_plan(plan)

    def test_duplicate_aggregate_specs(self):
        agg = Aggregate(
            _scan("x"),
            [
                AggregateSpec("n", "count", VariableRef("x")),
                AggregateSpec("n", "sum", VariableRef("x")),
            ],
        )
        plan = LogicalPlan(DistributeResult(agg, [VariableRef("n")]))
        with pytest.raises(PlanInvariantError, match="twice"):
            validate_plan(plan)

    def test_malformed_projection_path(self):
        scan = DataScan("/c", "x", Path(("not-a-step",)))
        plan = LogicalPlan(DistributeResult(scan, [VariableRef("x")]))
        with pytest.raises(PlanInvariantError, match="non-step"):
            validate_plan(plan)


class TestEngineIntegration:
    def test_engine_validates_after_every_fire(self):
        """A rule that breaks the plan is caught and named."""
        from repro.algebra.rules.base import RewriteRule, RuleEngine

        class BreakPlan(RewriteRule):
            name = "BreakPlanRule"

            def apply(self, plan):
                return LogicalPlan(
                    DistributeResult(
                        plan.root.input_op, [VariableRef("nope")]
                    )
                )

        engine = RuleEngine([BreakPlan()], validator=validate_plan)
        with pytest.raises(RewriteError, match="BreakPlanRule"):
            engine.rewrite(translate(parse_query("1 + 1")))

    def test_engine_validates_translated_plan(self):
        from repro.algebra.rules.base import RuleEngine

        engine = RuleEngine([], validator=validate_plan)
        broken = LogicalPlan(
            DistributeResult(EmptyTupleSource(), [VariableRef("ghost")])
        )
        with pytest.raises(RewriteError, match="translated plan"):
            engine.rewrite(broken)

    def test_every_pipeline_wires_the_validator(self):
        for config in TOGGLE_CONFIGS.values():
            assert rule_pipeline(config).validator is validate_plan

    def test_default_pipeline_compiles_with_validator(self):
        query = 'for $x in collection("/c")() where $x gt 1 return $x'
        compiled = compile_query(query)
        validate_plan(compiled.plan)
