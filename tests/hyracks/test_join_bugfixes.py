"""Regression tests for the join-semantics and limits bugfix sweep.

Three fixes, each with a failing-before/passing-after test:

- the nested-loop build checks limits once per frame of the inner
  side, so cancellation can unwind while the inner side is still streaming
  (before: ``list(right_stream)`` consumed the whole input first);
- a join keyed on a multi-item sequence raises the same
  ``ItemTypeError`` on every physical path (naive nested loop, hash,
  exchange across partitions, grace/spill) instead of only on some;
- ``build_tuples``/``probe_tuples`` profile counters follow the
  *physical* build side chosen by the cost phase, and dropped
  empty-key tuples are counted as ``join_keys_dropped``.
"""

import json

import pytest

from repro import JsonProcessor
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import Literal
from repro.algebra.operators import EmptyTupleSource, Join
from repro.algebra.rules import RewriteConfig
from repro.data.catalog import InMemorySource
from repro.errors import ItemTypeError, QueryCancelledError, ReproError
from repro.hyracks.limits import CHECK_STRIDE, CancellationToken, ExecutionLimits
from repro.hyracks.operators import _nested_loop_join

MULTI_SEQ_MESSAGE = "value comparison 'eq' over a multi-item sequence"


# ---------------------------------------------------------------------------
# Fix 1: nested-loop build-side cancellation
# ---------------------------------------------------------------------------


class TestNestedLoopBuildCancellation:
    def test_cancel_unwinds_mid_build(self):
        token = CancellationToken()
        consumed = []

        def right_stream(total=50_000):
            for index in range(total):
                if index == 100:
                    token.cancel("test cancel")
                consumed.append(index)
                yield {"r": [index]}

        op = Join(EmptyTupleSource(), EmptyTupleSource(), Literal([True]))
        ctx = EvaluationContext(limits=ExecutionLimits(token=token))
        joined = _nested_loop_join(
            iter([{"l": [0]}]), right_stream(), op, ctx
        )
        with pytest.raises(QueryCancelledError):
            list(joined)
        # The regression: without the per-frame check the build loop
        # materialized all 50k tuples before anything could raise.
        assert 100 < len(consumed) < 50_000

    def test_uncancelled_build_joins_everything(self):
        op = Join(EmptyTupleSource(), EmptyTupleSource(), Literal([True]))
        ctx = EvaluationContext(
            limits=ExecutionLimits(token=CancellationToken())
        )
        left = [{"l": [i]} for i in range(3)]
        right = ({"r": [i]} for i in range(2 * CHECK_STRIDE + 1))
        joined = list(_nested_loop_join(iter(left), right, op, ctx))
        assert len(joined) == 3 * (2 * CHECK_STRIDE + 1)


# ---------------------------------------------------------------------------
# Fix 2: multi-item join keys raise the same error on every path
# ---------------------------------------------------------------------------


MEASUREMENTS = [
    {"station": "a", "attributes": ["x", "y"]},
    {"station": "b", "attributes": ["x"]},
    {"station": "c", "attributes": []},
    {"station": "d", "attributes": ["x"]},
]

SELF_JOIN = (
    'for $a in collection("/m")() '
    'for $b in collection("/m")() '
    'where $a("attributes")() eq $b("attributes")() '
    'return $b("station")'
)


def measurements_source(rows, partitions=1):
    parts = [[] for _ in range(partitions)]
    for index, row in enumerate(rows):
        parts[index % partitions].append(row)
    return InMemorySource(
        {"/m": [[json.dumps(part)] for part in parts]}, stats_sample=0
    )


def assert_multiseq_error(run):
    with pytest.raises(ReproError) as info:
        run()
    node, seen = info.value, set()
    while node is not None and id(node) not in seen:
        if isinstance(node, ItemTypeError) and MULTI_SEQ_MESSAGE in str(node):
            return
        seen.add(id(node))
        node = node.__cause__ or node.__context__
    pytest.fail(
        f"expected ItemTypeError({MULTI_SEQ_MESSAGE!r}) in the cause "
        f"chain, got {info.value!r}"
    )


class TestMultiItemJoinKeys:
    def test_naive_nested_loop_raises(self):
        processor = JsonProcessor(
            source=measurements_source(MEASUREMENTS),
            rewrite=RewriteConfig.none(),
        )
        assert_multiseq_error(lambda: processor.evaluate(SELF_JOIN))

    def test_hash_join_raises(self):
        processor = JsonProcessor(source=measurements_source(MEASUREMENTS))
        assert_multiseq_error(lambda: processor.evaluate(SELF_JOIN))

    def test_exchange_path_raises(self):
        with JsonProcessor(
            source=measurements_source(MEASUREMENTS, partitions=2),
            backend="process",
            max_workers=2,
        ) as processor:
            assert_multiseq_error(lambda: processor.evaluate(SELF_JOIN))

    def test_grace_spill_path_raises(self):
        processor = JsonProcessor(
            source=measurements_source(MEASUREMENTS * 20),
            memory_budget_bytes=2048,
        )
        assert_multiseq_error(lambda: processor.evaluate(SELF_JOIN))

    def test_single_item_keys_still_join(self):
        rows = [row for row in MEASUREMENTS if len(row["attributes"]) <= 1]
        expected = None
        for config in (RewriteConfig.none(), RewriteConfig.all()):
            processor = JsonProcessor(
                source=measurements_source(rows), rewrite=config
            )
            result = sorted(processor.evaluate(SELF_JOIN))
            if expected is None:
                # b and d share the "x" attribute; c's empty sequence
                # never compares equal (and never errors).
                assert result == ["b", "b", "d", "d"]
                expected = result
            assert result == expected


# ---------------------------------------------------------------------------
# Fix 3: profile counters follow the physical build side
# ---------------------------------------------------------------------------


SMALL = [{"k": i % 5, "s": f"s{i}"} for i in range(5)]
BIG = [{"k": i % 5, "v": i} for i in range(200)] + [
    {"v": 1000 + i} for i in range(10)  # no key: dropped, not joined
]

COUNTER_JOIN = (
    'for $s in collection("/small")() '
    'for $b in collection("/big")() '
    'where $s("k") eq $b("k") '
    'return $b("v")'
)


def counter_source():
    return InMemorySource(
        {
            "/small": [[json.dumps(SMALL)]],
            "/big": [[json.dumps(BIG)]],
        },
        stats_sample=10_000,
    )


def join_counters(processor):
    profile = processor.profile(COUNTER_JOIN)
    nodes = profile.find("JOIN")
    assert nodes, "no JOIN operator in the profile"
    merged: dict[str, int] = {}
    for node in nodes:
        for name, value in node.counters.items():
            merged[name] = merged.get(name, 0) + value
    return merged


class TestJoinCounters:
    def test_default_build_side_is_right(self):
        counters = join_counters(
            JsonProcessor(source=counter_source(), cost=False)
        )
        assert counters["build_tuples"] == len(BIG)
        assert counters["probe_tuples"] == len(SMALL)

    def test_counters_follow_cost_chosen_build_side(self):
        # The cost phase builds on the small side; the counters must
        # report the physical roles, not the syntactic left/right.
        counters = join_counters(
            JsonProcessor(source=counter_source(), cost=True)
        )
        assert counters["build_tuples"] == len(SMALL)
        assert counters["probe_tuples"] == len(BIG)

    @pytest.mark.parametrize("cost", [True, False])
    def test_dropped_keys_are_counted(self, cost):
        counters = join_counters(
            JsonProcessor(source=counter_source(), cost=cost)
        )
        assert counters["join_keys_dropped"] == 10


# ---------------------------------------------------------------------------
# Fix 4: an object or array is no join key
# ---------------------------------------------------------------------------


STRUCTURED_A = [{"k": {"x": 1}, "v": 1}, {"k": [1], "v": 2}, {"k": None, "v": 3}]
STRUCTURED_B = [{"k": {"x": 1.0}, "w": 10}, {"k": [1], "w": 20}, {"k": None, "w": 30}]
FILLER = [{"k": i, "w": 100 + i} for i in range(200)]

STRUCTURED_JOIN = (
    'for $a in collection("/a")() for $b in collection("/b")() '
    'where $a("k") eq $b("k") return [$a("v"), $b("w")]'
)


def structured_source(a_rows, b_rows, a_partitions=1, b_partitions=1):
    def spread(rows, partitions):
        return [[json.dumps(rows[p::partitions])] for p in range(partitions)]

    return InMemorySource(
        {"/a": spread(a_rows, a_partitions), "/b": spread(b_rows, b_partitions)},
        stats_sample=10_000,
    )


def assert_structured_error(run, kind):
    with pytest.raises(ReproError) as info:
        run()
    node = info.value
    while not isinstance(node, ItemTypeError):
        assert node.__cause__ is not None, f"no ItemTypeError under {info.value!r}"
        node = node.__cause__
    assert str(node) == f"value comparison 'eq' over an {kind} item"


class TestStructuredJoinKeys:
    """``{"x": 1} eq {"x": 1.0}`` is a type error, so no join path may
    match the two by their canonical form (``null eq null`` still holds)."""

    ROUTES = {
        # differently partitioned collections run one global instance
        "in-process hash": dict(a_partitions=1, b_partitions=2),
        "exchange": dict(a_partitions=2, b_partitions=2),
        # a larger /b: the costed plan builds on /a
        "build-left": dict(a_partitions=2, b_partitions=2, filler=True, cost=True),
        "grace": dict(memory_budget_bytes=300),
        "rewrites off": dict(rewrite=RewriteConfig.none()),
    }

    def processor(self, a_rows, b_rows, a_partitions=1, b_partitions=1,
                  filler=False, **options):
        if filler:
            b_rows = b_rows + FILLER
        source = structured_source(a_rows, b_rows, a_partitions, b_partitions)
        return JsonProcessor(source=source, **options)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("kind, row", [("object", 0), ("array", 1)])
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_every_route_raises(self, route, kind, row, backend):
        a_rows = [STRUCTURED_A[row], STRUCTURED_A[2]]
        b_rows = [STRUCTURED_B[row], STRUCTURED_B[2]]
        with self.processor(
            a_rows, b_rows, backend=backend, max_workers=2, **self.ROUTES[route]
        ) as processor:
            if route == "build-left":
                assert "[build=left]" in processor.explain(STRUCTURED_JOIN)
            assert_structured_error(
                lambda: processor.evaluate(STRUCTURED_JOIN), kind
            )

    @pytest.mark.parametrize("route", ROUTES)
    def test_null_still_equals_null(self, route):
        with self.processor(
            STRUCTURED_A[2:], STRUCTURED_B[2:], **self.ROUTES[route]
        ) as processor:
            result = processor.execute(STRUCTURED_JOIN)
        assert result.items == [[3, 30]]
        if route == "grace":
            assert result.stats.spill_events > 0

    def test_the_comparison_it_was_extracted_from_raises_too(self):
        same_side = (
            'for $a in collection("/a")() where $a("k") eq $a("k") return $a("v")'
        )
        processor = self.processor(STRUCTURED_A[:1], STRUCTURED_B)
        with pytest.raises(ReproError, match="cannot compare object with object"):
            processor.evaluate(same_side)


# ---------------------------------------------------------------------------
# Keyed once: the in-process join and the grace overflow
# ---------------------------------------------------------------------------


KEYED_A = [{"k": i % 7, "v": i} for i in range(60)] + [{"v": 99}, {"k": None, "v": 98}]
KEYED_B = [{"k": i % 9, "w": i} for i in range(80)] + [{"w": 97}]


class TestKeyedOnce:
    def test_the_in_process_join_keys_each_input_tuple_once(self, keying):
        # one partition against two: a single global instance
        source = structured_source(KEYED_A, KEYED_B, 1, 2)
        result = JsonProcessor(source=source).execute(
            STRUCTURED_JOIN, profile="counter"
        )
        events = keying.take()
        assert result.strategy == "global"
        (join,) = result.profile.find("JOIN")
        assert join.counters["join_keys_dropped"] == 2
        pulled = join.counters["build_tuples"] + join.counters["probe_tuples"]
        assert pulled == len(KEYED_A) + len(KEYED_B)
        assert keying.keyed(events) == pulled
        # a stream that carries no sizes: each build tuple that can join
        # is sized once, by the join itself
        sized = sum(1 for event in events if event[0] == "sizeof_tuple")
        assert sized == join.counters["build_tuples"] - 1

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_a_grace_overflow_keys_nothing_a_second_time(self, backend, keying):
        def run(**options):
            source = structured_source(KEYED_A * 4, KEYED_B * 4, 2, 2)
            with JsonProcessor(
                source=source, backend=backend, max_workers=2, **options
            ) as processor:
                return processor.execute(STRUCTURED_JOIN, profile="counter")

        unlimited = run()
        keying.take()
        spilled = run(memory_budget_bytes=512)
        events = keying.take()
        assert spilled.stats.spill_events > 0
        assert spilled.items == unlimited.items
        assert keying.keyed(events) == 4 * (len(KEYED_A) + len(KEYED_B))
        assert keying.keyed(events) == keying.keyed(events, "1")
        assert not [e for e in events if e[0] == "canonical_atomic" and e[2] != "1"]


# ---------------------------------------------------------------------------
# Fix 5: NaN is no join key
# ---------------------------------------------------------------------------


#: ``1e400`` reads as infinity, so ``k - k`` is NaN on the first two rows
NAN_ROWS = [
    '{"k": 1e400, "t": "a"}',
    '{"k": 1e400, "t": "b"}',
    '{"k": 2, "t": "a"}',
    '{"k": 2, "t": "b"}',
]
NAN_JOIN = (
    'count(for $a in collection("/c") for $b in collection("/c") '
    'where $a("k") - $a("k") eq $b("k") - $b("k") '
    'and $a("t") eq "a" and $b("t") eq "b" return 1)'
)


def nan_source(rows, partitions, **collections):
    texts = [["\n".join(rows[p::partitions])] for p in range(partitions)]
    return InMemorySource({"/c": texts, **collections}, stats_sample=10_000)


class TestNaNJoinKeys:
    """``NaN eq NaN`` is false, so a NaN key joins nothing on any route,
    while grouping keeps every NaN in one group."""

    CONFIGS = {"all": RewriteConfig(), "none": RewriteConfig.none()}
    #: budgets that send each plan's join down the grace path; the naive
    #: plan holds both materialized collections besides
    GRACE_BUDGETS = {"all": 1024, "none": 100_000}

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_a_nan_key_joins_nothing(self, config, backend, partitions):
        with JsonProcessor(
            source=nan_source(NAN_ROWS, partitions),
            rewrite=self.CONFIGS[config],
            backend=backend,
            max_workers=2,
        ) as processor:
            result = processor.execute(NAN_JOIN)
        assert result.strategy == ("hash-join" if config == "all" else "global")
        assert result.items == [1]

    def test_the_comparison_agrees(self):
        compared = NAN_JOIN.replace("count(", "(").replace(
            'where $a("k") - $a("k") eq $b("k") - $b("k") and ', "where "
        ).replace("return 1", 'return ($a("k") - $a("k")) eq ($b("k") - $b("k"))')
        processor = JsonProcessor(source=nan_source(NAN_ROWS, 1))
        # (NaN, NaN), (NaN, 0), (0, NaN), (0, 0)
        assert processor.evaluate(compared) == [False, False, False, True]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_the_grace_path(self, config, backend):
        rows = NAN_ROWS * 30
        with JsonProcessor(
            source=nan_source(rows, 2),
            rewrite=self.CONFIGS[config],
            backend=backend,
            max_workers=2,
            memory_budget_bytes=self.GRACE_BUDGETS[config],
        ) as processor:
            result = processor.execute(NAN_JOIN)
        assert result.stats.spill_events > 0
        assert result.items == [30 * 30]

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_the_build_left_path(self, backend):
        query = NAN_JOIN.replace('collection("/c") where', 'collection("/big") where')
        big = [json.dumps({"k": i, "t": "c"}) for i in range(300)]
        texts = [["\n".join(NAN_ROWS + big[p::2])] for p in range(2)]
        with JsonProcessor(
            source=nan_source(NAN_ROWS[:1] + NAN_ROWS[2:3], 2, **{"/big": texts}),
            backend=backend,
            max_workers=2,
            cost=True,
        ) as processor:
            assert "[build=left]" in processor.explain(query)
            assert processor.evaluate(query) == [2]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_grouping_keeps_nan_one_group(self, config, backend):
        query = (
            'for $r in collection("/c") group by $g := $r("k") - $r("k") '
            "return count($r)"
        )
        with JsonProcessor(
            source=nan_source(NAN_ROWS, 2),
            rewrite=self.CONFIGS[config],
            backend=backend,
            max_workers=2,
        ) as processor:
            assert sorted(processor.evaluate(query)) == [2, 2]


# ---------------------------------------------------------------------------
# Aware dateTime keys: equal instants at different offsets
# ---------------------------------------------------------------------------


class TestAwareDateTimeJoinKeys:
    """``eq`` compares aware dateTimes as instants, so every route must
    join equal instants written at different offsets."""

    A = ['{"d": "2003-12-25T00:00:00+00:00"}', '{"d": "2004-01-01T00:00:00"}']
    B = ['{"d": "2003-12-25T03:00:00+03:00"}', '{"d": "2003-12-24T23:00:00-01:00"}']
    QUERY = (
        'for $a in collection("/a") for $b in collection("/b") '
        'where dateTime($a("d")) eq dateTime($b("d")) return 1'
    )
    #: the budget of each route; two partitions a side, except that
    #: "in-process hash" puts /a in one, and differently partitioned
    #: collections run one global instance
    ROUTES = {"in-process hash": None, "exchange": None, "grace": 64}

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_every_route_joins_equal_instants(self, route, backend):
        a_texts = [[row] for row in self.A]
        if route == "in-process hash":
            a_texts = [["\n".join(self.A)]]
        source = InMemorySource({"/a": a_texts, "/b": [[row] for row in self.B]})
        with JsonProcessor(
            source=source,
            backend=backend,
            max_workers=2,
            memory_budget_bytes=self.ROUTES[route],
        ) as processor:
            result = processor.execute(self.QUERY)
        assert result.items == [1, 1]
        if route == "grace":
            assert result.stats.spill_events > 0
        else:
            assert result.strategy == (
                "global" if route == "in-process hash" else "hash-join"
            )

    def test_the_comparison_agrees(self):
        source = InMemorySource(
            {"/a": [["\n".join(self.A)]], "/b": [["\n".join(self.B)]]}
        )
        processor = JsonProcessor(source=source, rewrite=RewriteConfig.none())
        assert processor.evaluate(self.QUERY) == [1, 1]
