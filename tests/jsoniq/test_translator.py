"""Unit tests for AST → naive plan translation (paper figure shapes)."""

import json

import pytest

from repro.errors import TranslationError, UnboundVariableError
from repro.algebra.expressions import (
    CollectionExpr,
    DataExpr,
    IterateExpr,
    JsonDocExpr,
    PathStepExpr,
    PromoteExpr,
    TreatExpr,
    VariableRef,
)
from repro.algebra.operators import (
    Aggregate,
    Assign,
    DistributeResult,
    EmptyTupleSource,
    GroupBy,
    Join,
    Select,
    Subplan,
    Unnest,
)
from repro.jsonlib.path import KeysOrMembers
from repro.jsoniq.parser import parse_query
from repro.jsoniq.translator import ast_free_variables, translate


def plan_of(text):
    return translate(parse_query(text))


def chain_of(plan):
    """Operators from root to leaf along the first-input chain."""
    ops = []
    node = plan.root
    while True:
        ops.append(node)
        if not node.inputs:
            return ops
        node = node.inputs[0]


class TestFigure3Shape:
    """json-doc path query -> Figure 3's naive plan."""

    def test_operator_sequence(self):
        plan = plan_of('json-doc("b.json")("bookstore")("book")()')
        names = [op.name for op in chain_of(plan)]
        assert names == [
            "DISTRIBUTE-RESULT",
            "UNNEST",
            "ASSIGN",  # keys-or-members (two-step, first half)
            "ASSIGN",  # json-doc + value steps
            "EMPTY-TUPLE-SOURCE",
        ]

    def test_promote_data_around_argument(self):
        plan = plan_of('json-doc("b.json")("bookstore")("book")()')
        assigns = plan.operators_of(Assign)
        doc_assign = [
            a
            for a in assigns
            if a.expression.contains(lambda e: isinstance(e, JsonDocExpr))
        ]
        assert doc_assign
        assert doc_assign[0].expression.contains(
            lambda e: isinstance(e, PromoteExpr)
        )
        assert doc_assign[0].expression.contains(
            lambda e: isinstance(e, DataExpr)
        )

    def test_two_step_keys_or_members(self):
        plan = plan_of('json-doc("b.json")("bookstore")("book")()')
        (unnest,) = plan.operators_of(Unnest)
        assert isinstance(unnest.expression, IterateExpr)
        km_assign = unnest.input_op
        assert isinstance(km_assign, Assign)
        assert isinstance(km_assign.expression, PathStepExpr)
        assert isinstance(km_assign.expression.step, KeysOrMembers)


class TestFigure5Shape:
    """collection query -> Figure 5's naive plan."""

    def test_collection_assign_and_iterate(self):
        plan = plan_of('for $x in collection("/b")("bookstore")("book")() return $x')
        names = [op.name for op in chain_of(plan)]
        assert names == [
            "DISTRIBUTE-RESULT",
            "ASSIGN",  # return expr
            "UNNEST",  # iterate over keys-or-members
            "ASSIGN",  # keys-or-members
            "ASSIGN",  # value steps over the file
            "UNNEST",  # iterate over the collection (per file)
            "ASSIGN",  # collection()
            "EMPTY-TUPLE-SOURCE",
        ]
        coll_assigns = [
            op
            for op in plan.operators_of(Assign)
            if isinstance(op.expression, CollectionExpr)
        ]
        assert len(coll_assigns) == 1


class TestFigure9Shape:
    """group-by query -> Figure 9's naive plan."""

    QUERY = (
        'for $x in collection("/b")("bookstore")("book")() '
        'group by $author := $x("author") '
        'return count($x("title"))'
    )

    def test_group_by_with_sequence_aggregate(self):
        plan = plan_of(self.QUERY)
        (group,) = plan.operators_of(GroupBy)
        nested = group.nested_root
        assert isinstance(nested, Aggregate)
        assert [spec.function for spec in nested.specs] == ["sequence"]

    def test_treat_above_group_by(self):
        plan = plan_of(self.QUERY)
        treat_assigns = [
            op
            for op in plan.operators_of(Assign)
            if isinstance(op.expression, TreatExpr)
        ]
        assert len(treat_assigns) == 1
        assert treat_assigns[0].expression.type_name == "item"

    def test_key_assign_below_group_by(self):
        plan = plan_of(self.QUERY)
        (group,) = plan.operators_of(GroupBy)
        below = group.input_op
        assert isinstance(below, Assign)
        assert below.variable == "author"


class TestNestedFlwor:
    def test_subplan_for_nested_aggregate(self):
        plan = plan_of(
            'for $x in collection("/b")("root")() '
            'group by $k := $x("k") '
            "return count(for $j in $x return $j)"
        )
        assert len(plan.operators_of(Subplan)) == 1

    def test_top_level_aggregate_inlined(self):
        plan = plan_of('count(for $x in collection("/b")("root")() return $x)')
        assert plan.operators_of(Subplan) == []
        aggregates = plan.operators_of(Aggregate)
        assert len(aggregates) == 1
        assert aggregates[0].specs[0].function == "count"

    def test_nested_flwor_as_plain_sequence(self):
        plan = plan_of(
            'for $x in collection("/b")("root")() '
            "return [for $j in $x return $j]"
        )
        (subplan,) = plan.operators_of(Subplan)
        assert isinstance(subplan.nested_root, Aggregate)
        assert subplan.nested_root.specs[0].function == "sequence"


class TestTwoAggregatedFlwors:
    """A FLWOR that reads nothing of the enclosing scope is built on its
    own EMPTY-TUPLE-SOURCE and capped with its AGGREGATE, the second one
    in an expression too; it never lands in a SUBPLAN's nested plan."""

    COUNT_R = 'count(for $r in collection("/c") return $r)'
    COUNT_S = 'count(for $s in collection("/c") return $s)'
    QUERIES = {
        f"{COUNT_R} + {COUNT_S}": [10],
        f"({COUNT_R}, {COUNT_S})": [5, 5],
        f"let $x := {COUNT_R} let $y := {COUNT_S} return $x + $y": [10],
        'sum(for $r in collection("/c") return $r("v")) div ' + COUNT_S: [3],
        f'for $r in collection("/c") where $r("v") gt 3 return {COUNT_S}': [5, 5],
    }

    def test_the_second_flwor_joins_its_aggregate(self):
        plan = plan_of(f"{self.COUNT_R} + {self.COUNT_S}")
        assert plan.operators_of(Subplan) == []
        (join,) = plan.operators_of(Join)
        assert isinstance(join.left, Aggregate)
        assert isinstance(join.right, Aggregate)

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("rewrites", ["all", "none"])
    def test_answers(self, rewrites, backend):
        from repro import InMemorySource, JsonProcessor
        from repro.algebra.rules import RewriteConfig

        rows = [{"v": v} for v in range(1, 6)]
        texts = ["\n".join(json.dumps(row) for row in rows[:3]),
                 "\n".join(json.dumps(row) for row in rows[3:])]
        source = InMemorySource({"/c": [[texts[0]], [texts[1]]]})
        config = getattr(RewriteConfig, rewrites)()
        with JsonProcessor(source=source, rewrite=config, backend=backend) as processor:
            for query, expected in self.QUERIES.items():
                assert processor.execute(query).items == expected, query


class TestJoins:
    def test_independent_second_for_becomes_join(self):
        plan = plan_of(
            'for $a in collection("/x")("r")() '
            'for $b in collection("/y")("r")() '
            "return 1"
        )
        assert len(plan.operators_of(Join)) == 1

    def test_dependent_second_for_stays_unnest(self):
        plan = plan_of(
            'for $a in collection("/x")("r")() '
            "for $b in $a return $b"
        )
        assert plan.operators_of(Join) == []

    def test_where_becomes_select(self):
        plan = plan_of(
            'for $a in collection("/x")("r")() where $a eq 1 return $a'
        )
        assert len(plan.operators_of(Select)) == 1


class TestScoping:
    def test_unbound_variable_rejected(self):
        with pytest.raises(UnboundVariableError):
            plan_of("for $x in $nope return $x")

    def test_shadowing_gets_fresh_names(self):
        plan = plan_of(
            'for $x in collection("/a")("r")() '
            "return count(for $x in $x return $x)"
        )
        # Two binders named $x must map to distinct plan variables.
        binders = [op.variable for op in plan.operators_of(Unnest)]
        assert len(binders) == len(set(binders))
        assert "x" in binders

    def test_let_binds(self):
        plan = plan_of("let $a := 5 return $a + 1")
        assert any(
            op.variable == "a"
            for op in plan.operators_of(Assign)
        )

    def test_order_by_becomes_sort(self):
        from repro.algebra.operators import Sort

        plan = plan_of(
            'for $x in collection("/a")("r")() order by $x descending return $x'
        )
        (sort,) = plan.operators_of(Sort)
        assert sort.specs[0][1] is True  # descending

    def test_dynamic_lookup_keys_rejected(self):
        with pytest.raises(TranslationError):
            plan_of("let $k := \"a\" return {\"a\": 1}($k)")


class TestAstFreeVariables:
    def test_flwor_binding(self):
        ast = parse_query("for $x in $src return $x($k)")
        assert ast_free_variables(ast) == {"src", "k"}

    def test_let_binding(self):
        ast = parse_query("let $a := $b return $a")
        assert ast_free_variables(ast) == {"b"}

    def test_group_by_key_expression(self):
        ast = parse_query("for $x in $s group by $g := $x($k) return $g")
        assert ast_free_variables(ast) == {"s", "k"}

    def test_distribute_result_root(self):
        plan = plan_of("1 + 1")
        assert isinstance(plan.root, DistributeResult)
        assert isinstance(chain_of(plan)[-1], EmptyTupleSource)
