"""The frame gear against the tuple gear.

``execute()`` runs the SELECT / ASSIGN operators that sit on a DATASCAN
a column at a time over the scan's frames when every expression has a
column form; ``run_chain`` over ``_execute_datascan`` is the tuple gear
the same plan took before.  The two must agree on everything a caller
can see: the tuples and their order, the exception and its message, what
the scan accounted and every profile counter, also when the consumer
stops early or the source fails inside a frame.  ``keyed_tuples`` keys a
join's input in the same gear, against ``join_key`` over the tuple gear,
and a GROUP-BY folds its input's key and argument columns
(``grouped_input``), against the same GROUP-BY over the tuple gear.

The vocabulary is not a list kept by hand: whatever answers
``compile_column`` (an ``Expression`` subclass) or carries a ``column``
(a library function) must turn up in the generated runs
(``test_every_column_form_is_in_the_vocabulary``).
"""

import datetime
import os
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hyracks.operators as physical
import repro.hyracks.spill as spill_module
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import (
    AndExpr,
    ArithmeticExpr,
    ComparisonExpr,
    DataExpr,
    Expression,
    FunctionCallExpr,
    Literal,
    OrExpr,
    VariableRef,
    keys_or_members,
    value_by_key,
)
from repro.algebra.operators import (
    Aggregate,
    AggregateSpec,
    Assign,
    DataScan,
    EmptyTupleSource,
    GroupBy,
    Join,
    NestedTupleSource,
    Select,
)
from repro.algebra.plan import LogicalPlan
from repro.errors import ItemTypeError, ReproError, UnboundVariableError
from repro.hyracks.executor import ExecutionStats
from repro.hyracks.memory import MemoryTracker
from repro.hyracks.spill import SpillConfig, SpillManager
from repro.jsoniq.functions import BUILTIN_FUNCTIONS
from repro.jsonlib.items import sizeof_rows
from repro.jsonlib.path import parse_path
from repro.observability.profile import ProfileCollector, ProfileConfig

PATH = parse_path("()")


class FrameSource:
    """*files* of rows, served like a catalog (``scan_units``: one sized
    frame per file, as a warm segment cache does) or, with *sized* off,
    as one unsized stream that may raise *fail* after *fail_after* rows."""

    def __init__(self, files, sized=False, fail_after=None, fail=None):
        self.files, self.fail_after, self.fail = files, fail_after, fail
        if sized:
            self.scan_units = lambda name, path, partition, report: (
                (list(rows), sizeof_rows(rows)) for rows in self.files
            )

    def scan_collection(self, name, path, partition=None, report=None):
        rows = (row for rows in self.files for row in rows)
        if self.fail is None:
            return rows
        return self._failing(rows)

    def _failing(self, rows):
        yield from islice(rows, self.fail_after)
        raise self.fail


def outcome(make_stream, source, run, pull, profiled, functions=None, root=None):
    """Everything one execution of *run* over a scan of *source* shows
    (*root*: the operator the profiled plan hangs from, when not the
    run's top)."""
    scan = run[0].input_op if run else None
    stats = ExecutionStats()
    profile = None
    if profiled:
        profile = ProfileCollector(
            LogicalPlan(root or run[-1]), ProfileConfig(clock="counter")
        )
    ctx = EvaluationContext(
        source=source, stats=stats, profile=profile, functions=functions
    )
    stream = make_stream(scan, run, ctx)
    tuples, error = [], None
    try:
        for tup in stream:
            tuples.append(tup)
            if len(tuples) == pull:
                break
    except Exception as raised:  # compared, not handled
        error = (type(raised), str(raised))
    finally:
        stream.close()
    counters = None
    if profiled:
        counters = {
            index: node["counters"] for index, node in profile.data().items()
        }
    return {
        "tuples": tuples,
        "error": error,
        "scanned": (stats.items_scanned, stats.scanned_item_bytes),
        "counters": counters,
    }


def tuple_gear(scan, run, ctx):
    stream = physical._execute_datascan(scan, ctx)
    if ctx.profile is not None:
        stream = ctx.profile.observe(scan, stream)
    return physical.run_chain(run, stream, ctx)


def frame_gear(scan, run, ctx):
    return physical.execute(run[-1], ctx)


def build_run(specs):
    """A run over a fresh DATASCAN: ``(variable, expression)`` is an
    ASSIGN, ``(None, condition)`` a SELECT; bottom-most first."""
    op = DataScan("/c", "$r", PATH)
    run = []
    for variable, expression in specs:
        if variable is None:
            op = Select(op, expression)
        else:
            op = Assign(op, variable, expression)
        run.append(op)
    return run


def assert_gears_agree(source_of, specs, pulls=(None,), functions=None, column=True):
    run = build_run(specs)
    library = BUILTIN_FUNCTIONS if functions is None else functions
    assert (physical._frame_steps(run, library) is not None) is column
    seen = None
    for pull in pulls:
        for profiled in (False, True):
            expected = outcome(tuple_gear, source_of(), run, pull, profiled, functions)
            actual = outcome(frame_gear, source_of(), run, pull, profiled, functions)
            assert actual == expected
            seen = expected
    return seen


# -- the property -------------------------------------------------------------------

KEYS = ("a", "b", "d")
NUMBERS = st.sampled_from([0, 1, 2, -3, 2.5, 1.0])
STRINGS = st.sampled_from(["", "x", "TMIN", "12"])
DATES = st.sampled_from(
    ["2003-12-25T00:00:00", "20131225T07:30", "20040229T00:00:59"]
)
ATOMS = st.one_of(NUMBERS, STRINGS, DATES, st.sampled_from([True, False, None]))
VALUES = st.one_of(ATOMS, ATOMS, st.just([1, 2]), st.just({"a": 1}), st.just([]))
# Mostly flat rows of one shape; then rows with keys missing, null,
# extra, reordered or holding anything; then items that are no objects.
ROWS = st.one_of(
    *[st.fixed_dictionaries({"a": NUMBERS, "b": STRINGS, "d": DATES})] * 5,
    st.fixed_dictionaries({"d": DATES, "b": st.none(), "extra": VALUES, "a": NUMBERS}),
    st.dictionaries(st.sampled_from(KEYS + ("extra",)), VALUES, max_size=4),
    VALUES,
)
OPS = st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"])


def call(name, argument):
    return FunctionCallExpr(name, [argument])


@lru_cache(maxsize=None)
def expressions(variables):
    """``(conditions, values)`` over the tuple *variables*: mostly well
    typed (a number against a number), sometimes anything against
    anything.  Built once per tuple: building is most of a draw's cost."""
    leaves = st.sampled_from(variables).map(VariableRef)

    def step(name):
        return st.builds(value_by_key, leaves, st.just(name))

    def calls(sample, kind, argument):
        return st.builds(call, st.sampled_from(library(sample, kind)), argument)

    a_number, a_date = (int, float), datetime.datetime
    date = calls("2003-12-25T00:00:00", a_date, step("d").map(DataExpr))
    number = st.one_of(
        step("a"),
        calls(2.5, a_number, step("a")),
        calls(datetime.datetime(2003, 12, 25), a_number, date),
        calls("x", a_number, step("b")),
    )
    string = st.one_of(
        step("b"), calls("x", str, step("b")), calls(2.5, str, number)
    )
    anything = st.one_of(
        leaves,
        st.builds(value_by_key, st.one_of(leaves, step("extra")), st.sampled_from(KEYS)),
        st.builds(
            call, st.sampled_from(ITEM_FUNCTIONS), st.one_of(leaves, step("a"), step("b"))
        ),
    )
    comparison = st.one_of(
        st.builds(ComparisonExpr, OPS, number, NUMBERS.map(Literal.of)),
        st.builds(ComparisonExpr, OPS, NUMBERS.map(Literal.of), number),
        st.builds(ComparisonExpr, OPS, number, number),
        st.builds(ComparisonExpr, OPS, string, STRINGS.map(Literal.of)),
        st.builds(ComparisonExpr, OPS, date, date),
        st.builds(ComparisonExpr, OPS, anything, ATOMS.map(Literal.of)),
        st.builds(ComparisonExpr, OPS, anything, anything),
    )
    value = st.one_of(number, string, date, anything, comparison)
    conjunction = st.lists(
        st.one_of(comparison, comparison, value), min_size=2, max_size=3
    ).map(AndExpr)
    condition = st.one_of(
        comparison,
        conjunction,
        st.builds(ComparisonExpr, OPS, conjunction, st.booleans().map(Literal.of)),
        value,
    )
    return condition, st.one_of(value, condition)


ITEM_FUNCTIONS = sorted(
    name for (name, arity), f in BUILTIN_FUNCTIONS.items() if hasattr(f, "column")
)


@lru_cache(maxsize=None)
def library(sample, kind):
    """The item functions that make a *kind* of *sample*: the well-typed
    vocabulary, read off the library by trying each entry (once)."""
    names = []
    for name in ITEM_FUNCTIONS:
        try:
            result = BUILTIN_FUNCTIONS[name, 1]([[sample]])
        except ReproError:
            continue
        if isinstance(result[0], kind) and not isinstance(result[0], bool):
            names.append(name)
    return names


@st.composite
def runs(draw, shortest=1, keys=0):
    """The specs of a run, and with *keys* that many join-key
    expressions over its variables as well."""
    variables, specs = ["$r"], []
    for index in range(draw(st.integers(shortest, 4))):
        condition, value = expressions(tuple(variables))
        if draw(st.booleans()):
            specs.append((None, draw(condition)))
        else:
            # a fresh variable, or one there already (the scan's too)
            variable = draw(st.sampled_from([f"$v{index}", "$v0", "$r"]))
            specs.append((variable, draw(value)))
            if variable not in variables:
                variables.append(variable)
    if not keys:
        return specs
    value = expressions(tuple(variables))[1]
    return specs, draw(st.lists(value, min_size=1, max_size=keys))


def column_forms():
    """Every ``Expression`` subclass with a column form of its own."""
    found, stack = set(), [Expression]
    while stack:
        node = stack.pop()
        stack.extend(node.__subclasses__())
        if "compile_column" in vars(node):
            found.add(node)
    return found - {Expression}


def test_every_column_form_is_in_the_vocabulary():
    classes, functions = set(), set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(runs())
    def collect(specs):
        stack = [expression for _, expression in specs]
        while stack:
            node = stack.pop()
            stack.extend(node.child_expressions())
            if node.compile_column(BUILTIN_FUNCTIONS) is not None:
                classes.add(type(node))
                if isinstance(node, FunctionCallExpr):
                    functions.add(node.name)

    collect()
    assert classes == column_forms()
    assert functions == set(ITEM_FUNCTIONS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    files=st.lists(st.lists(ROWS, max_size=12), min_size=1, max_size=4),
    specs=runs(),
    sized=st.booleans(),
    frame_rows=st.sampled_from([3, 256]),
    pull=st.integers(1, 6),
    fail_after=st.one_of(st.none(), st.integers(0, 30)),
)
def test_gears_agree(files, specs, sized, frame_rows, pull, fail_after):
    fail = None if sized or fail_after is None else ValueError("source broke")
    original = physical._FRAME_ROWS
    physical._FRAME_ROWS = frame_rows
    try:
        assert_gears_agree(
            lambda: FrameSource(files, sized, fail_after, fail),
            specs,
            pulls=(None, pull),
        )
    finally:
        physical._FRAME_ROWS = original


# -- the keyed stream ---------------------------------------------------------------


def keyed_streams(specs, keys):
    """``(run, join, frame route, tuple route)`` of a join whose left
    input is the run of *specs* and whose key expressions are *keys*."""
    run = build_run(specs)
    top = run[-1] if run else DataScan("/c", "$r", PATH)
    join = Join(top, EmptyTupleSource(), Literal.of(True))

    def frame_route(scan, run, ctx):
        return physical.keyed_tuples(top, keys, ctx, join)

    def tuple_route(scan, run, ctx):
        closures = [ctx.compiled(expression) for expression in keys]
        scan = run[0].input_op if run else top
        for tup in tuple_gear(scan, run, ctx):
            key = physical.join_key(tup, closures, ctx)
            if key is None and ctx.profile is not None:
                ctx.profile.add(join, "join_keys_dropped", 1)
            yield key, tup

    return run, join, frame_route, tuple_route


def assert_keyed_routes_agree(source_of, specs, keys, pulls=(None,), column=True):
    run, join, frame_route, tuple_route = keyed_streams(specs, keys)
    geared = physical._scan_run(join.left, BUILTIN_FUNCTIONS) is not None and all(
        key.compile_column(BUILTIN_FUNCTIONS) is not None for key in keys
    )
    assert geared is column
    seen = None
    for pull in pulls:
        for profiled in (False, True):
            expected = outcome(tuple_route, source_of(), run, pull, profiled, root=join)
            actual = outcome(frame_route, source_of(), run, pull, profiled, root=join)
            assert actual == expected
            seen = expected
    return seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    files=st.lists(st.lists(ROWS, max_size=12), min_size=1, max_size=4),
    keyed_run=runs(shortest=0, keys=2),
    sized=st.booleans(),
    frame_rows=st.sampled_from([3, 256]),
    pull=st.integers(1, 6),
    fail_after=st.one_of(st.none(), st.integers(0, 30)),
)
def test_keyed_routes_agree(files, keyed_run, sized, frame_rows, pull, fail_after):
    fail = None if sized or fail_after is None else ValueError("source broke")
    original = physical._FRAME_ROWS
    physical._FRAME_ROWS = frame_rows
    try:
        assert_keyed_routes_agree(
            lambda: FrameSource(files, sized, fail_after, fail),
            *keyed_run,
            pulls=(None, pull),
        )
    finally:
        physical._FRAME_ROWS = original


def test_every_kind_of_key_a_frame_can_hold():
    when = "2003-12-25T00:00:00"
    rows = [
        {"k": "a", "n": 1, "d": when},
        {"k": "b", "n": 1.0, "d": when},
        {"k": "a", "n": True, "d": when},
        {"k": "a", "n": None, "d": when},
        {"k": "a", "d": when},  # n missing: dropped, and counted
        {"n": 2, "d": when},  # k missing
    ]
    keys = [key("k"), key("n"), call("dateTime", DataExpr(key("d")))]
    seen = assert_keyed_routes_agree(one_file(rows), [], keys, pulls=(5, None))
    stamp = (("datetime", datetime.datetime(2003, 12, 25)),)
    assert [pair[0] for pair in seen["tuples"]] == [
        ((("str", "a"),), (("num", 1),), stamp),
        ((("str", "b"),), (("num", 1),), stamp),  # 1 and 1.0 unify
        ((("str", "a"),), (("bool", True),), stamp),
        ((("str", "a"),), (("NoneType", None),), stamp),
        None,
        None,
    ]
    assert seen["counters"][0] == {"join_keys_dropped": 2}
    # a column of nothing but strings takes the inline branch
    strings = assert_keyed_routes_agree(one_file(rows[:5]), [], [key("k")])
    assert [pair[0] for pair in strings["tuples"]][:2] == [
        ((("str", "a"),),), ((("str", "b"),),)
    ]


def test_an_object_key_is_the_tuple_gears_error():
    rows = [{"k": 1}, {"k": 2}, {"k": {"x": 1}}, {"k": 3}]
    seen = assert_keyed_routes_agree(one_file(rows), [], [key("k")], pulls=(None, 2))
    assert seen["error"] is None  # closed after two pairs: no error yet
    seen = assert_keyed_routes_agree(one_file(rows), [], [key("k")])
    assert seen["error"] == (
        ItemTypeError, "value comparison 'eq' over an object item"
    )
    assert [pair[0] for pair in seen["tuples"]] == [((("num", 1),),), ((("num", 2),),)]
    assert seen["scanned"][0] == 3
    # under a SELECT that rejects the row, nothing raises
    specs = [(None, compare("ne", key("v"), 0))]
    rows = [{"k": 1, "v": 1}, {"k": [1], "v": 0}]
    seen = assert_keyed_routes_agree(one_file(rows), specs, [key("k")])
    assert seen["error"] is None and len(seen["tuples"]) == 1


def test_a_multi_item_key_has_no_column_form():
    rows = [{"ks": [1]}, {"ks": []}, {"ks": [1, 2]}]
    seen = assert_keyed_routes_agree(
        one_file(rows), [], [keys_or_members(key("ks"))], column=False
    )
    assert seen["error"] == (
        ItemTypeError, "value comparison 'eq' over a multi-item sequence"
    )
    assert [pair[0] for pair in seen["tuples"]] == [((("num", 1),),), None]


# -- the grouped route --------------------------------------------------------------

AGGREGATES = ("count", "sum", "avg", "min", "max", "sequence")


@st.composite
def grouped_runs(draw):
    """The specs of a run, 1-2 group keys and 1-3 aggregate specs, each
    ``(function, argument)``, over the run's variables."""
    specs, keys = draw(runs(shortest=0, keys=2))
    variables = ["$r"] + [v for v, _ in specs if v is not None and v != "$r"]
    value = expressions(tuple(sorted(set(variables))))[1]
    aggregates = draw(
        st.lists(st.tuples(st.sampled_from(AGGREGATES), value), min_size=1, max_size=3)
    )
    return specs, keys, aggregates


def grouped_streams(specs, keys, aggregates):
    """``(run, group_by, column route, tuple route)`` of a GROUP-BY over
    the run of *specs* keyed by *keys* folding *aggregates*."""
    run = build_run(specs)
    top = run[-1] if run else DataScan("/c", "$r", PATH)
    group_by = GroupBy(
        top,
        [(f"$k{i}", key) for i, key in enumerate(keys)],
        Aggregate(
            NestedTupleSource(),
            [AggregateSpec(f"$a{i}", f, arg) for i, (f, arg) in enumerate(aggregates)],
        ),
    )

    def column_route(scan, run, ctx):
        return physical.execute(group_by, ctx)

    def tuple_route(scan, run, ctx):
        scan = run[0].input_op if run else top
        return physical.run_chain([group_by], tuple_gear(scan, run, ctx), ctx)

    return run, group_by, column_route, tuple_route


def assert_grouped_routes_agree(
    source_of, specs, keys, aggregates, pulls=(None,), column=True
):
    run, group_by, column_route, tuple_route = grouped_streams(specs, keys, aggregates)
    expressions = [*keys, *(argument for _, argument in aggregates)]
    geared = physical._scan_run(group_by.input_op, BUILTIN_FUNCTIONS) is not None
    geared &= all(e.compile_column(BUILTIN_FUNCTIONS) is not None for e in expressions)
    assert geared is column
    seen = None
    for pull in pulls:
        for profiled in (False, True):
            expected = outcome(
                tuple_route, source_of(), run, pull, profiled, root=group_by
            )
            actual = outcome(
                column_route, source_of(), run, pull, profiled, root=group_by
            )
            assert actual == expected
            # 1 and 1.0 are equal: the raw key a group keeps must be too
            assert repr(actual["tuples"]) == repr(expected["tuples"])
            seen = expected
    return seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    files=st.lists(st.lists(ROWS, max_size=12), min_size=1, max_size=4),
    grouped_run=grouped_runs(),
    sized=st.booleans(),
    frame_rows=st.sampled_from([3, 256]),
    pull=st.integers(1, 6),
    fail_after=st.one_of(st.none(), st.integers(0, 30)),
)
def test_grouped_routes_agree(files, grouped_run, sized, frame_rows, pull, fail_after):
    fail = None if sized or fail_after is None else ValueError("source broke")
    original = physical._FRAME_ROWS
    physical._FRAME_ROWS = frame_rows
    try:
        assert_grouped_routes_agree(
            lambda: FrameSource(files, sized, fail_after, fail),
            *grouped_run,
            pulls=(None, pull),
        )
    finally:
        physical._FRAME_ROWS = original


def test_a_null_key_and_a_missing_key_are_two_groups():
    rows = [{"k": None, "v": 1}, {"v": 2}, {"k": None, "v": 3}, {"v": 4}]
    seen = assert_grouped_routes_agree(
        one_file(rows), [], [key("k")], [("count", key("v")), ("sum", key("v"))]
    )
    assert seen["tuples"] == [
        {"$k0": [None], "$a0": [2], "$a1": [4]},
        {"$k0": [], "$a0": [2], "$a1": [6]},
    ]
    assert seen["counters"][0] == {"tuples_in": 4, "tuples_out": 2, "groups": 2}


def test_one_and_one_point_zero_land_in_one_group():
    rows = [{"k": 1, "v": 1}, {"k": 1.0, "v": 2.5}, {"k": "1", "v": 4}]
    seen = assert_grouped_routes_agree(
        one_file(rows), [], [key("k")], [("max", key("v")), ("sequence", key("v"))]
    )
    assert repr(seen["tuples"]) == repr([
        {"$k0": [1], "$a0": [2.5], "$a1": [1, 2.5]},
        {"$k0": ["1"], "$a0": [4], "$a1": [4]},
    ])


def test_a_sum_type_error_on_the_last_row_of_a_later_frame():
    rows = [{"k": i % 3, "v": i} for i in range(physical._FRAME_ROWS + 40)]
    rows.append({"k": 0, "v": "x"})
    specs = [(None, compare("ge", key("k"), 0))]
    for source in (one_file(rows), lambda: FrameSource([rows[:200], rows[200:]], True)):
        seen = assert_grouped_routes_agree(
            source, specs, [key("k")], [("count", key("v")), ("sum", key("v"))]
        )
        assert seen["error"] == (ItemTypeError, "sum() expects a number, got string")
        assert seen["scanned"][0] == len(rows)
    # under a SELECT that rejects the row, nothing raises
    specs = [(None, compare("ne", key("k"), 0))]
    seen = assert_grouped_routes_agree(
        one_file(rows), specs, [key("k")], [("sum", key("v"))]
    )
    assert seen["error"] is None and len(seen["tuples"]) == 2


def test_a_key_column_that_raises_is_the_tuple_gears_error():
    rows = [{"d": "2003-12-25T00:00:00", "v": 1}] * 5 + [{"d": "not a date", "v": 2}]
    keys = [call("dateTime", key("d"))]
    seen = assert_grouped_routes_agree(
        lambda: FrameSource([rows, rows]), [], keys, [("count", key("v"))]
    )
    assert seen["error"] == (ItemTypeError, "cannot parse dateTime from 'not a date'")
    assert seen["scanned"][0] == 6
    # the rows that parse group as one, a frame at a time
    seen = assert_grouped_routes_agree(
        one_file(rows[:5]), [], keys, [("count", key("v"))]
    )
    assert seen["tuples"] == [{"$k0": [datetime.datetime(2003, 12, 25)], "$a0": [5]}]


def test_an_argument_without_a_column_form_keeps_the_tuple_route():
    rows = [{"k": 1, "v": [1, 2]}, {"k": 1, "v": [3]}, {"k": 2}]
    seen = assert_grouped_routes_agree(
        one_file(rows), [], [key("k")], [("count", keys_or_members(key("v")))],
        column=False,
    )
    assert [tup["$a0"] for tup in seen["tuples"]] == [[3], [0]]


def test_a_budget_sheds_the_table_alike_on_both_routes(tmp_path, monkeypatch):
    rows = [{"k": i % 40, "v": i} for i in range(300)] + [{"v": 0}]
    specs = [(None, compare("ge", key("v"), 0))]
    _, group_by, column_route, tuple_route = grouped_streams(
        specs, [key("k")], [("count", key("v")), ("sum", key("v"))]
    )
    run = build_run(specs)
    monkeypatch.setattr(spill_module, "FANOUT", 2)
    monkeypatch.setattr(spill_module, "MAX_RECURSION", 3)

    def spilled(route):
        labels = []

        class Manager(SpillManager):
            def new_run(self, label="run"):
                labels.append(label)
                return super().new_run(label)

        memory = MemoryTracker(96 * 9)
        spill = Manager(SpillConfig(directory=str(tmp_path)))
        stats = ExecutionStats()
        ctx = EvaluationContext(
            source=FrameSource([rows[:150], rows[150:]], sized=True),
            memory=memory, spill=spill, stats=stats,
        )
        try:
            tuples = list(route(run[0].input_op, run, ctx))
        finally:
            spill.close()
        return {
            "tuples": repr(tuples),
            "spill": (spill.events, spill.run_files, spill.max_recursion_depth, labels),
            "peak": memory.peak,
            "scanned": (stats.items_scanned, stats.scanned_item_bytes),
        }, spill.bytes_spilled

    expected, expected_bytes = spilled(tuple_route)
    actual, actual_bytes = spilled(column_route)
    assert actual == expected
    assert actual_bytes <= expected_bytes
    events, files, depth, labels = actual["spill"]
    assert events > 1 and depth > 1 and labels[:2] == ["group-b0", "group-b1"]
    assert os.listdir(tmp_path) == []


# -- cases worth naming -------------------------------------------------------------


def one_file(rows):
    return lambda: FrameSource([rows])


def key(name, variable="$r"):
    return value_by_key(VariableRef(variable), name)


def compare(op, left, constant):
    return ComparisonExpr(op, left, Literal.of(constant))


def test_more_rows_than_one_frame_and_an_empty_file():
    rows = [{"a": i % 7, "d": f"2003-{1 + i % 12:02d}-25T00:00:00"} for i in range(700)]
    specs = [
        ("$t", call("dateTime", DataExpr(key("d")))),
        (None, AndExpr([
            compare("eq", call("month-from-dateTime", VariableRef("$t")), 12),
            compare("ge", key("a"), 3),
        ])),
    ]
    for sized in (False, True):
        seen = assert_gears_agree(
            lambda: FrameSource([rows[:300], [], rows[300:]], sized),
            specs,
            pulls=(None, 1, 20),
        )
        assert seen["scanned"][0] < 700  # closed after 20 tuples, mid-frame
    everything = assert_gears_agree(one_file(rows), specs)
    assert len(everything["tuples"]) == 33
    assert everything["tuples"][0] == {
        "$r": [rows[11]], "$t": [datetime.datetime(2003, 12, 25)]
    }
    assert everything["counters"][0] == {"tuples_in": 700, "tuples_out": 33}


def test_a_constant_on_either_side():
    rows = [{"a": 0}, {"a": 1}, {"a": 2}, {"a": None}, {}]
    for op, mirrored, expected in (
        ("lt", "gt", [2]),
        ("le", "ge", [1, 2]),
        ("gt", "lt", [0]),
        ("ge", "le", [0, 1]),
        ("eq", "eq", [1]),
        ("ne", "ne", [0, 2, None]),  # null differs from 1; () does not
    ):
        for condition in (
            ComparisonExpr(op, Literal.of(1), key("a")),  # 1 op $r("a")
            compare(mirrored, key("a"), 1),
        ):
            seen = assert_gears_agree(one_file(rows), [(None, condition)])
            assert [tup["$r"][0]["a"] for tup in seen["tuples"]] == expected


def test_a_later_conjunct_never_sees_a_row_an_earlier_one_rejected():
    # "x" lt 5 is a type error, but no row holding "x" gets that far
    rows = [{"k": "n", "v": 1}, {"k": "s", "v": "x"}, {"k": "n", "v": 9}]
    condition = AndExpr([compare("eq", key("k"), "n"), compare("lt", key("v"), 5)])
    seen = assert_gears_agree(one_file(rows), [(None, condition)])
    assert seen["error"] is None
    assert seen["tuples"] == [{"$r": [rows[0]]}]
    # ...nor does the operator above: the same two tests as two SELECTs,
    # and as a conjunction that is a value.
    assert assert_gears_agree(
        one_file(rows), [(None, condition.operands[0]), (None, condition.operands[1])]
    )["tuples"] == seen["tuples"]
    kept = assert_gears_agree(one_file(rows), [("$keep", condition)])
    assert [tup["$keep"] for tup in kept["tuples"]] == [[True], [False], [False]]
    # (an operand answers for the rows it was shown, in their places)
    mild = [{"k": "n", "v": 1}, {"k": "s", "v": 1}, {"k": "n", "v": 9}]
    kept = assert_gears_agree(one_file(mild), [("$keep", condition)])
    assert [tup["$keep"] for tup in kept["tuples"]] == [[True], [False], [False]]
    # the other way round the error is the tuple gear's, message and all
    swapped = assert_gears_agree(
        one_file(rows), [(None, AndExpr(condition.operands[::-1]))]
    )
    assert swapped["error"] == (ItemTypeError, "cannot compare string with number")
    assert swapped["tuples"] == seen["tuples"]  # row 0 went out before it


def test_a_type_error_on_the_last_row_of_a_later_frame():
    rows = [{"v": i} for i in range(physical._FRAME_ROWS + 40)] + [{"v": "x"}]
    specs = [(None, compare("ge", key("v"), 250))]
    seen = assert_gears_agree(one_file(rows), specs, pulls=(None, 3))
    assert seen["error"] is None  # closed after three tuples: no error yet
    seen = assert_gears_agree(one_file(rows), specs)
    assert seen["error"] == (ItemTypeError, "cannot compare string with number")
    assert len(seen["tuples"]) == 46  # both frames' survivors came out first
    assert seen["scanned"][0] == len(rows)


def test_an_expression_without_a_column_form_keeps_the_tuple_gear():
    rows = [{"v": [1, 2]}, {"v": 3}, {"w": 4}]
    for expression in (
        ArithmeticExpr("+", key("v"), Literal.of(1)),
        keys_or_members(key("v")),
        OrExpr([key("w"), Literal.of(False)]),
        call("count", VariableRef("$r")),
        call("no-such-function", VariableRef("$r")),
    ):
        assert_gears_agree(one_file(rows), [("$x", expression)], column=False)
    # A run is taken from the scan up as far as the column forms reach.
    run = build_run([(None, key("v")), ("$n", call("count", VariableRef("$r")))])
    ctx = EvaluationContext(source=FrameSource([rows]))
    assert list(physical.execute(run[-1], ctx)) == [
        {"$r": [rows[0]], "$n": [1]}, {"$r": [rows[1]], "$n": [1]}
    ]


def test_an_unbound_variable_is_the_tuple_gears_error():
    seen = assert_gears_agree(
        one_file([{"v": 1}]), [(None, compare("eq", VariableRef("$nope"), 1))]
    )
    assert seen["error"][0] is UnboundVariableError
    assert assert_gears_agree(one_file([]), [(None, VariableRef("$nope"))])["error"] is None


def test_a_library_that_overrides_datetime_runs_its_own_function():
    calls = []

    def my_datetime(args):
        calls.append(args)
        return [datetime.datetime(1999, 1, 1)] if args[0] else []

    library = {**BUILTIN_FUNCTIONS, ("dateTime", 1): my_datetime}
    rows = [{"d": "2003-12-25T00:00:00"}, {"d": "not a date"}, {}]
    specs = [
        ("$t", call("dateTime", key("d"))),
        (None, compare("eq", call("year-from-dateTime", VariableRef("$t")), 1999)),
    ]
    seen = assert_gears_agree(one_file(rows), specs, functions=library, column=False)
    assert [tup["$r"] for tup in seen["tuples"]] == [[rows[0]], [rows[1]]]
    assert len(calls) == 2 * 2 * 3  # both gears, profiled or not, every row
    # the builtin under its own name has a column form, and an opinion
    builtin = assert_gears_agree(one_file(rows), specs)
    assert builtin["error"] == (ItemTypeError, "cannot parse dateTime from 'not a date'")


@pytest.mark.parametrize("profiled", [False, True])
def test_a_source_failing_inside_a_frame(profiled):
    rows = [{"v": i} for i in range(20)]
    specs = [(None, compare("ge", key("v"), 10))]
    run = build_run(specs)
    source = FrameSource([rows], fail_after=15, fail=ValueError("source broke"))
    seen = outcome(frame_gear, source, run, None, profiled)
    assert seen == outcome(tuple_gear, source, run, None, profiled)
    assert seen["error"] == (ValueError, "source broke")
    assert [tup["$r"][0]["v"] for tup in seen["tuples"]] == [10, 11, 12, 13, 14]
    assert seen["scanned"] == (15, sum(sizeof_rows(rows[:15])))
