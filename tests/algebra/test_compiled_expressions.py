"""Compile-once expression evaluation.

Four properties of the closures the runtime calls per tuple:

- each expression node is compiled at most once per evaluation context,
  however many tuples flow and however often a nested plan re-runs;
- nothing is cached on plan nodes: an executed plan still pickles,
  hashes and compares as before, and a pool worker can run it;
- compiling never raises for a defect in the query — the closure raises
  when a tuple reaches it;
- ``compile(functions)(tup, ctx)`` of every node class follows the
  documented semantics, error classes and messages included.
"""

import collections
import datetime
import json
import pickle

import pytest

from repro.errors import (
    ItemTypeError,
    PartitionExecutionError,
    TranslationError,
    TypeCheckError,
    UnboundVariableError,
    UnknownFunctionError,
)
from repro.algebra import expressions as X
from repro.algebra.context import EvaluationContext
from repro.algebra.operators import DataScan, DistributeResult
from repro.algebra.plan import LogicalPlan
from repro.algebra.rules import RewriteConfig
from repro.compiler.pipeline import compile_query
from repro.data.catalog import InMemorySource
from repro.hyracks.executor import PartitionedExecutor
from repro.jsoniq.functions import BUILTIN_FUNCTIONS
from repro.jsonlib.path import KeysOrMembers, Path, ValueByIndex, ValueByKey


def expression_classes():
    """Every concrete Expression subclass (private helper bases too)."""
    found, stack = [], [X.Expression]
    while stack:
        for cls in stack.pop().__subclasses__():
            found.append(cls)
            stack.append(cls)
    return found


def run(source, plan, **executor_options):
    executor = PartitionedExecutor(source, **executor_options)
    try:
        return executor.run(plan).items
    finally:
        executor.close()


def source_of(rows_per_partition, partitions=2):
    return InMemorySource(
        collections={
            "/c": [
                [
                    "\n".join(
                        json.dumps({"k": i % 3, "v": p * 1000 + i, "s": f"s{i % 2}"})
                        for i in range(rows_per_partition)
                    )
                ]
                for p in range(partitions)
            ]
        }
    )


# ---------------------------------------------------------------------------
# At most one compile per node per context
# ---------------------------------------------------------------------------


@pytest.fixture
def compile_spy(monkeypatch):
    """Counts every ``compile``/``compile_condition`` call, keyed by the
    context whose memo asked for it, the node, and the method; and every
    request to a memo, keyed by the node."""
    spy = collections.namedtuple("Spy", "calls requests contexts nodes")(
        collections.Counter(), collections.Counter(), [], []
    )
    asking = []  # contexts currently inside compiled(), innermost last
    original_compiled = EvaluationContext.compiled

    def compiled(self, expression, as_condition=False):
        asking.append(self)
        spy.contexts.append(self)  # kept alive: ids stay unique
        spy.requests[id(expression)] += 1
        try:
            return original_compiled(self, expression, as_condition)
        finally:
            asking.pop()

    monkeypatch.setattr(EvaluationContext, "compiled", compiled)

    def spied(original, method):
        def call(self, functions):
            spy.nodes.append(self)
            context = id(asking[-1]) if asking else None
            spy.calls[(context, id(self), method)] += 1
            return original(self, functions)

        return call

    for cls in [X.Expression] + expression_classes():
        for method in ("compile", "compile_condition"):
            if method in vars(cls):
                monkeypatch.setattr(cls, method, spied(vars(cls)[method], method))
    return spy


SELECT_QUERY = (
    'for $r in collection("/c") '
    'let $d := $r("v") + 1 '
    'where $r("k") eq 1 and $d gt 3 '
    'return {"v": $d, "s": $r("s")}'
)
GROUP_QUERY = (
    'for $r in collection("/c") '
    'group by $k := $r("k") '
    'return count(for $i in $r return $i("s"))'
)
JOIN_QUERY = (
    'for $a in collection("/c") for $b in collection("/c") '
    'where $a("v") eq $b("v") and $a("k") le $b("k") '
    'return $a("v")'
)
SORT_QUERY = 'for $r in collection("/c") order by $r("v") descending return $r("s")'


class TestCompiledOncePerContext:
    @pytest.mark.parametrize(
        "config", [RewriteConfig.all(), RewriteConfig.none()], ids=["all", "none"]
    )
    @pytest.mark.parametrize(
        "query",
        [SELECT_QUERY, GROUP_QUERY, JOIN_QUERY, SORT_QUERY],
        ids=["select", "group-subplan", "join", "sort"],
    )
    def test_compiles_do_not_grow_with_the_input(self, compile_spy, query, config):
        plan = compile_query(query, config).plan

        def compiles_for(rows):
            compile_spy.calls.clear()
            # in process, where the spy can see every compile
            assert run(source_of(rows), plan, backend="sequential")
            return dict(compile_spy.calls)

        small = compiles_for(4)
        large = compiles_for(60)
        # Every compile was asked for by a context's memo, and no memo
        # compiled a node twice: not per tuple, not per group, not per
        # re-run of a nested plan.
        assert all(context is not None for context, _, _ in large)
        assert set(large.values()) == {1}
        # 15 times the tuples (and more groups) compile exactly as much.
        assert sorted(node for _, node, _ in small) == sorted(
            node for _, node, _ in large
        )

    def test_subplan_reruns_hit_the_memo(self, compile_spy):
        """Under RewriteConfig.none() the grouped count runs a SUBPLAN per
        group: its nested operators start once per outer tuple, but each
        of their expressions compiles once per context."""
        plan = compile_query(GROUP_QUERY, RewriteConfig.none()).plan
        assert "SUBPLAN" in plan.explain()
        run(source_of(30, partitions=1), plan, backend="sequential")
        # The nested plan did re-run (the same node was requested again
        # and again) ...
        assert max(compile_spy.requests.values()) >= 3
        # ... and still nothing compiled twice in one context.
        assert set(compile_spy.calls.values()) == {1}

    def test_memo_is_keyed_by_identity_not_equality(self):
        ctx = EvaluationContext()
        first, twin = X.VariableRef("x"), X.VariableRef("x")
        assert first == twin and hash(first) == hash(twin)
        assert ctx.compiled(first) is ctx.compiled(first)
        assert ctx.compiled(first) is not ctx.compiled(twin)
        assert ctx.compiled(first) is not ctx.compiled(first, as_condition=True)
        assert EvaluationContext().compiled(first) is not ctx.compiled(first)


# ---------------------------------------------------------------------------
# Nothing cached on plan nodes
# ---------------------------------------------------------------------------


class TestPlanNodesStayStateless:
    @pytest.mark.parametrize(
        "query", [SELECT_QUERY, GROUP_QUERY, JOIN_QUERY], ids=["select", "group", "join"]
    )
    def test_executed_plan_pickles_hashes_and_compares_as_before(self, query):
        plan = compile_query(query, RewriteConfig.all()).plan
        blob = pickle.dumps(plan)
        twin = pickle.loads(blob)
        hashes = [hash(op) for op in plan.iter_operators()]
        source = source_of(12)
        expected = run(source, plan)
        assert pickle.dumps(plan) == blob
        assert plan == twin
        assert [hash(op) for op in plan.iter_operators()] == hashes
        # The executed plan object itself ships to pool workers, and an
        # unpickled copy answers the same in this process.
        assert run(source, plan, backend="process", max_workers=2) == expected
        assert run(source, twin) == expected

    def test_nodes_cannot_hold_runtime_state(self):
        for cls in expression_classes():
            assert "__dict__" not in dir(cls), cls


# ---------------------------------------------------------------------------
# Errors surface per tuple, never at compile
# ---------------------------------------------------------------------------


def scan_then(expression, rows):
    """``DISTRIBUTE-RESULT(expression)`` over a DATASCAN of *rows*."""
    plan = LogicalPlan(
        DistributeResult(DataScan("/c", "r", Path()), [expression])
    )
    source = InMemorySource(
        collections={"/c": [["\n".join(json.dumps(row) for row in rows)]]}
    )
    return run(source, plan)


DEFECTS = [
    (
        X.FunctionCallExpr("no-such-fn", [X.VariableRef("r")]),
        UnknownFunctionError,
        "no-such-fn",
    ),
    (X.VariableRef("nope"), UnboundVariableError, "nope"),
    (X.TreatExpr(X.VariableRef("r"), "no-such-type"), TypeCheckError, "unknown treat type"),
]


class TestErrorsWaitForATuple:
    @pytest.mark.parametrize("expression,error,match", DEFECTS)
    def test_compile_is_silent(self, expression, error, match):
        expression.compile(BUILTIN_FUNCTIONS)
        expression.compile_condition(BUILTIN_FUNCTIONS)
        wrapped = X.AndExpr([X.Literal.of(True), X.NotExpr(expression)])
        wrapped.compile(BUILTIN_FUNCTIONS)
        EvaluationContext().compiled(wrapped, as_condition=True)

    @pytest.mark.parametrize("expression,error,match", DEFECTS)
    def test_empty_collection_stays_silent(self, expression, error, match):
        assert scan_then(expression, []) == []

    @pytest.mark.parametrize("expression,error,match", DEFECTS)
    def test_first_tuple_raises(self, expression, error, match):
        with pytest.raises(PartitionExecutionError, match=match) as excinfo:
            scan_then(expression, [{"a": 1}])
        assert isinstance(excinfo.value.__cause__, error)

    def test_unknown_function_in_query_text(self):
        query = 'for $r in collection("/c") return no-such-fn($r)'
        plan = compile_query(query, RewriteConfig.all()).plan
        empty = InMemorySource(collections={"/c": [[""]]})
        assert run(empty, plan) == []
        with pytest.raises(PartitionExecutionError) as excinfo:
            run(source_of(1, partitions=1), plan)
        assert isinstance(excinfo.value.__cause__, UnknownFunctionError)

    def test_unknown_function_raises_before_its_arguments(self):
        call = X.FunctionCallExpr("no-such-fn", [X.VariableRef("unbound")])
        with pytest.raises(UnknownFunctionError):
            call.compile(BUILTIN_FUNCTIONS)({}, EvaluationContext())


# ---------------------------------------------------------------------------
# One case (or a few) per Expression subclass
# ---------------------------------------------------------------------------

V = X.VariableRef
L = X.Literal
WHEN = datetime.datetime(2003, 12, 25)


class Raises:
    def __init__(self, error, message):
        self.error, self.message = error, message


class Source:
    """A data source answering the two materializing expressions."""

    def read_collection(self, name, partition=None, report=None):
        return [{"name": name, "partition": partition}]

    def read_document(self, uri):
        return {"uri": uri}


SEMANTICS = [
    # VariableRef: the bound sequence itself; unbound is an error
    ("variable", V("x"), {"x": [1, 2]}, [1, 2]),
    ("variable-unbound", V("x"), {}, Raises(UnboundVariableError, r"unbound variable: \$x")),
    # Literal: its constant sequence, whatever the tuple
    ("literal", L([1, "a"]), {}, [1, "a"]),
    ("literal-empty", X.EMPTY_LITERAL, {"x": [1]}, []),
    # CollectionExpr / JsonDocExpr: materialize through ctx.source
    ("collection", X.CollectionExpr("/c"), {}, [{"name": "/c", "partition": 7}]),
    ("json-doc", X.JsonDocExpr(L(["a", "b"])), {}, [{"uri": "a"}, {"uri": "b"}]),
    # PathStepExpr: forgiving navigation, concatenated over the input
    ("value-by-key", X.value_by_key(V("x"), "a"), {"x": [{"a": 1}, {"b": 2}, 3, {"a": None}]}, [1, None]),
    ("value-by-index", X.value_by_index(V("x"), 2), {"x": [[1, 2], [3], {"a": 1}, [4, 5, 6]]}, [2, 5]),
    ("value-by-index-zero", X.value_by_index(V("x"), 0), {"x": [[1, 2]]}, []),
    ("keys-or-members", X.keys_or_members(V("x")), {"x": [[1, 2], {"k": 3, "j": 4}, "s", []]}, [1, 2, "k", "j"]),
    ("path-chain", X.PathStepExpr.chain(V("x"), Path([ValueByKey("a"), KeysOrMembers(), ValueByIndex(1)])), {"x": [{"a": [[7, 8], [9]]}]}, [7, 9]),
    # PromoteExpr: checked identity; an unknown target type is unchecked
    ("promote", X.PromoteExpr(V("x"), "string"), {"x": ["a", "b"]}, ["a", "b"]),
    ("promote-wrong", X.PromoteExpr(V("x"), "string"), {"x": ["a", 1]}, Raises(TypeCheckError, "cannot promote number to string")),
    ("promote-bool-is-no-number", X.PromoteExpr(V("x"), "number"), {"x": [True]}, Raises(TypeCheckError, "cannot promote boolean to number")),
    ("promote-unknown-type", X.PromoteExpr(V("x"), "mystery"), {"x": [1]}, [1]),
    # DataExpr: atomization is the identity on atomic items
    ("data", X.DataExpr(V("x")), {"x": [1, "a", None, WHEN]}, [1, "a", None, WHEN]),
    ("data-object", X.DataExpr(V("x")), {"x": [1, {"a": 1}]}, Raises(ItemTypeError, "cannot atomize a object item")),
    # TreatExpr: runtime type assertion
    ("treat", X.TreatExpr(V("x"), "object"), {"x": [{"a": 1}]}, [{"a": 1}]),
    ("treat-item", X.TreatExpr(V("x"), "item"), {"x": [1, [2], {}]}, [1, [2], {}]),
    ("treat-wrong", X.TreatExpr(V("x"), "array"), {"x": [[1], "s"]}, Raises(TypeCheckError, "treat as array failed on a string item")),
    ("treat-unknown-type", X.TreatExpr(V("x"), "mystery"), {"x": [1]}, Raises(TypeCheckError, "unknown treat type 'mystery'")),
    ("treat-unknown-type-evaluates-input-first", X.TreatExpr(V("nope"), "mystery"), {}, Raises(UnboundVariableError, "nope")),
    # IterateExpr: identity over its input
    ("iterate", X.IterateExpr(V("x")), {"x": [1, 2]}, [1, 2]),
    # FunctionCallExpr: the builtin over the argument sequences
    ("call-unary", X.FunctionCallExpr("count", [V("x")]), {"x": [5, 6, 7]}, [3]),
    ("call-binary", X.FunctionCallExpr("contains", [V("x"), L(["b"])]), {"x": ["abc"]}, [True]),
    ("call-nullary", X.FunctionCallExpr("null", []), {}, [None]),
    ("call-ternary", X.FunctionCallExpr("substring", [V("x"), L([2]), L([2])]), {"x": ["abcd"]}, ["bc"]),
    ("call-unknown", X.FunctionCallExpr("count", [V("x"), V("x")]), {"x": [1]}, Raises(UnknownFunctionError, "count")),
    ("call-type-error", X.FunctionCallExpr("sum", [V("x")]), {"x": ["a"]}, Raises(ItemTypeError, r"sum\(\) expects a number, got string")),
    # ComparisonExpr: value comparison
    ("compare-constant", X.ComparisonExpr("eq", V("x"), L(["TMIN"])), {"x": ["TMIN"]}, [True]),
    ("compare-constant-false", X.ComparisonExpr("gt", V("x"), L([3])), {"x": [3]}, [False]),
    ("compare-int-float", X.ComparisonExpr("eq", V("x"), L([2.0])), {"x": [2]}, [True]),
    ("compare-operands", X.ComparisonExpr("lt", V("x"), V("y")), {"x": ["a"], "y": ["b"]}, [True]),
    ("compare-datetimes", X.ComparisonExpr("ge", V("x"), V("y")), {"x": [WHEN], "y": [WHEN]}, [True]),
    ("compare-empty-left", X.ComparisonExpr("eq", V("x"), L([1])), {"x": []}, []),
    ("compare-empty-right", X.ComparisonExpr("eq", V("x"), V("y")), {"x": [1], "y": []}, []),
    ("compare-empty-constant", X.ComparisonExpr("eq", V("x"), X.EMPTY_LITERAL), {"x": [1]}, []),
    ("compare-multi", X.ComparisonExpr("eq", V("x"), L([1])), {"x": [1, 2]}, Raises(ItemTypeError, "value comparison 'eq' over a multi-item sequence")),
    ("compare-multi-right", X.ComparisonExpr("ne", V("x"), V("y")), {"x": [1], "y": [1, 2]}, Raises(ItemTypeError, "value comparison 'ne' over a multi-item sequence")),
    ("compare-multi-constant", X.ComparisonExpr("le", V("x"), L([1, 2])), {"x": [1]}, Raises(ItemTypeError, "value comparison 'le' over a multi-item sequence")),
    ("compare-unlike", X.ComparisonExpr("eq", V("x"), L(["1"])), {"x": [1]}, Raises(ItemTypeError, "cannot compare number with string")),
    ("compare-bool-number", X.ComparisonExpr("eq", V("x"), L([1])), {"x": [True]}, Raises(ItemTypeError, "cannot compare boolean with number")),
    ("compare-objects", X.ComparisonExpr("eq", V("x"), V("x")), {"x": [{}]}, Raises(ItemTypeError, "cannot compare object with object")),
    ("compare-null-null", X.ComparisonExpr("eq", V("x"), L([None])), {"x": [None]}, [True]),
    ("compare-null-eq", X.ComparisonExpr("eq", V("x"), L([None])), {"x": [1]}, [False]),
    ("compare-null-ne", X.ComparisonExpr("ne", V("x"), V("y")), {"x": [None], "y": ["a"]}, [True]),
    ("compare-null-lt", X.ComparisonExpr("lt", V("x"), L([None])), {"x": [1]}, [False]),
    # AndExpr / OrExpr / NotExpr: effective boolean values, short circuit
    ("and", X.AndExpr([V("x"), L(["s"])]), {"x": [1]}, [True]),
    ("and-short-circuit", X.AndExpr([L([0]), V("nope")]), {}, [False]),
    ("and-empty-operand", X.AndExpr([V("x"), L([True])]), {"x": []}, [False]),
    ("and-multi-atomic", X.AndExpr([V("x")]), {"x": [1, 2]}, Raises(ItemTypeError, "effective boolean value of a multi-item atomic sequence")),
    ("or", X.OrExpr([V("x"), L([""])]), {"x": [None]}, [False]),
    ("or-short-circuit", X.OrExpr([L([{}]), V("nope")]), {}, [True]),
    ("or-of-comparisons", X.OrExpr([X.ComparisonExpr("eq", V("x"), L([1])), X.ComparisonExpr("eq", V("x"), L([2]))]), {"x": [2]}, [True]),
    ("not", X.NotExpr(V("x")), {"x": []}, [True]),
    ("not-comparison", X.NotExpr(X.ComparisonExpr("eq", V("x"), L([1]))), {"x": [1]}, [False]),
    ("not-empty-comparison", X.NotExpr(X.ComparisonExpr("eq", V("x"), L([1]))), {"x": []}, [True]),
    # ArithmeticExpr
    ("add", X.ArithmeticExpr("+", V("x"), L([2])), {"x": [1]}, [3]),
    ("sub-floats", X.ArithmeticExpr("-", V("x"), V("y")), {"x": [1.5], "y": [1]}, [0.5]),
    ("mul", X.ArithmeticExpr("*", V("x"), V("x")), {"x": [3]}, [9]),
    ("div", X.ArithmeticExpr("div", V("x"), L([2])), {"x": [3]}, [1.5]),
    ("idiv", X.ArithmeticExpr("idiv", V("x"), L([2])), {"x": [7.0]}, [3]),
    ("mod", X.ArithmeticExpr("mod", V("x"), L([4])), {"x": [7]}, [3]),
    ("arithmetic-empty", X.ArithmeticExpr("+", V("x"), L([2])), {"x": []}, []),
    ("arithmetic-multi", X.ArithmeticExpr("+", V("x"), L([2])), {"x": [1, 2]}, Raises(ItemTypeError, "arithmetic over a multi-item sequence")),
    ("arithmetic-string", X.ArithmeticExpr("+", V("x"), L([2])), {"x": ["1"]}, Raises(ItemTypeError, "arithmetic over a string item")),
    ("arithmetic-bool", X.ArithmeticExpr("*", L([2]), V("x")), {"x": [True]}, Raises(ItemTypeError, "arithmetic over a boolean item")),
    ("div-zero", X.ArithmeticExpr("div", V("x"), L([0])), {"x": [1]}, Raises(ItemTypeError, "division by zero")),
    ("idiv-zero", X.ArithmeticExpr("idiv", V("x"), L([0])), {"x": [1]}, Raises(ItemTypeError, "division by zero")),
    ("mod-zero", X.ArithmeticExpr("mod", V("x"), L([0])), {"x": [1]}, Raises(ItemTypeError, "division by zero")),
    # ObjectConstructorExpr: every value a singleton; later duplicates win
    ("object", X.ObjectConstructorExpr([("a", V("x")), ("b", L(["s"]))]), {"x": [1]}, [{"a": 1, "b": "s"}]),
    ("object-duplicate-key", X.ObjectConstructorExpr([("a", L([1])), ("a", L([2]))]), {}, [{"a": 2}]),
    ("object-empty-value", X.ObjectConstructorExpr([("a", V("x"))]), {"x": []}, Raises(ItemTypeError, 'object value for key "a" requires a singleton, got 0 items')),
    ("object-multi-value", X.ObjectConstructorExpr([("a", L([1])), ("b", V("x"))]), {"x": [1, 2]}, Raises(ItemTypeError, 'object value for key "b" requires a singleton, got 2 items')),
    # ArrayConstructorExpr / SequenceExpr: members flatten in order
    ("array", X.ArrayConstructorExpr([V("x"), L([3]), X.EMPTY_LITERAL]), {"x": [1, 2]}, [[1, 2, 3]]),
    ("array-empty", X.ArrayConstructorExpr([]), {}, [[]]),
    ("sequence", X.SequenceExpr([V("x"), L([3]), V("x")]), {"x": [1, 2]}, [1, 2, 3, 1, 2]),
    ("sequence-empty", X.SequenceExpr([]), {}, []),
    # IfExpr: only the chosen branch runs
    ("if-then", X.IfExpr(V("x"), L(["yes"]), V("nope")), {"x": [1]}, ["yes"]),
    ("if-else", X.IfExpr(X.ComparisonExpr("eq", V("x"), L([1])), V("nope"), L(["no"])), {"x": []}, ["no"]),
]


class TestSemanticsPerNodeClass:
    @pytest.mark.parametrize(
        "expression,tup,expected",
        [case[1:] for case in SEMANTICS],
        ids=[case[0] for case in SEMANTICS],
    )
    def test_compiled_closure(self, expression, tup, expected):
        ctx = EvaluationContext(source=Source(), partition=7)
        evaluate = expression.compile(ctx.functions)
        if isinstance(expected, Raises):
            with pytest.raises(expected.error, match=expected.message):
                evaluate(tup, ctx)
            with pytest.raises(expected.error, match=expected.message):
                expression.compile_condition(ctx.functions)(tup, ctx)
            return
        result = evaluate(tup, ctx)
        assert result == expected
        assert [type(item) for item in result] == [type(item) for item in expected]
        # the closure is reusable, the base-class evaluate is the same
        # thing compiled on the spot, and the memo hands out the same
        assert evaluate(tup, ctx) == expected
        assert expression.evaluate(tup, ctx) == expected
        assert ctx.compiled(expression)(tup, ctx) == expected

    @pytest.mark.parametrize(
        "expression,tup,expected",
        [case[1:] for case in SEMANTICS if not isinstance(case[3], Raises)],
        ids=[case[0] for case in SEMANTICS if not isinstance(case[3], Raises)],
    )
    def test_condition_is_the_effective_boolean_value(self, expression, tup, expected):
        ctx = EvaluationContext(source=Source(), partition=7)
        condition = expression.compile_condition(ctx.functions)
        try:
            truth = X.effective_boolean_value(expected)
        except ItemTypeError as error:
            with pytest.raises(ItemTypeError, match=str(error)):
                condition(tup, ctx)
        else:
            assert condition(tup, ctx) is truth

    def test_every_node_class_is_covered(self):
        covered = set()
        for _, expression, _, _ in SEMANTICS:
            stack = [expression]
            while stack:
                node = stack.pop()
                covered.add(type(node))
                stack.extend(node.child_expressions())
        concrete = {cls for cls in expression_classes() if not cls.__name__.startswith("_")}
        assert concrete <= covered, concrete - covered

    def test_sources_need_a_configured_source(self):
        ctx = EvaluationContext()
        for expression, name in (
            (X.CollectionExpr("/c"), r"collection\(\)"),
            (X.JsonDocExpr(L(["u"])), r"json-doc\(\)"),
        ):
            with pytest.raises(TranslationError, match=f"no data source configured for {name}"):
                expression.compile(ctx.functions)({}, ctx)

    def test_collection_charges_the_memory_tracker(self):
        from repro.hyracks.memory import MemoryTracker

        tracker = MemoryTracker()
        ctx = EvaluationContext(source=Source(), memory=tracker)
        X.CollectionExpr("/c").compile(ctx.functions)({}, ctx)
        assert tracker.used > 0

    def test_compile_binds_the_library_it_was_given(self):
        call = X.FunctionCallExpr("twice", [V("x")])
        library = {("twice", 1): lambda args: args[0] + args[0]}
        assert call.compile(library)({"x": [1]}, EvaluationContext()) == [1, 1]
        with pytest.raises(UnknownFunctionError):
            call.compile(BUILTIN_FUNCTIONS)({"x": [1]}, EvaluationContext())
        ctx = EvaluationContext(functions=library)
        assert call.evaluate({"x": [1]}, ctx) == [1, 1]
