"""Physical (pull-based) execution of logical operators.

There are two gears.  In the **tuple gear** every unary operator is a
generator transformer: it consumes an input tuple iterator and yields
output tuples, so a fully pipelined plan (the post-rewrite shape) never
materializes more than one tuple's worth of state per operator.
Materializing operators — JOIN's build side, the GROUP-BY table,
``sequence`` aggregates, and the naive ``collection`` expression —
charge the context's memory tracker, which is what makes the paper's
before/after memory comparisons measurable.  No operator walks an
expression tree per tuple: each takes the compiled closures of its
expressions once per run from the context's memo
(:meth:`~repro.algebra.context.EvaluationContext.compiled`) and calls
only those in its loop.

The **frame gear** runs the SELECT and ASSIGN operators that sit
directly on a DATASCAN inside the scan's own loop, a column at a time
over the frames the scan cuts (:func:`_execute_datascan`): an ASSIGN
adds a column, each conjunct of a SELECT narrows the frame, and only
the rows left at the top become tuples for the operators above; a join
above takes their keys a column at a time too (:func:`keyed_tuples`),
and a GROUP-BY above takes its keys and aggregate arguments that way
and no tuples at all (:func:`grouped_input`).  It is taken when every
expression involved has a column form
(:meth:`~repro.algebra.expressions.Expression.compile_column`); a frame
whose column evaluation raises is run again through the tuple gear,
which stays the authority on errors.

Entry points:

- :func:`execute` — recursive execution of a (sub)plan,
- :func:`run_operator` — one unary operator over a given input stream
  (used by the partitioned executor to re-run plan fragments over
  exchanged tuples),
- :func:`run_plan` — full plan to a list of result items.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from copy import copy
from datetime import datetime, timezone
from itertools import islice, repeat
from typing import Iterable, Iterator

from repro.errors import ItemTypeError, PlanError, RuntimeExecutionError
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import (
    ComparisonExpr,
    Condition,
    Evaluator,
    Expression,
    Frame,
    compile_mask,
    narrow,
)
from repro.algebra.operators import (
    Aggregate,
    Assign,
    DataScan,
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
from repro.algebra.plan import LogicalPlan
from repro.algebra.rules.base import conjuncts, subtree_variables
from repro.hyracks.aggregates import GroupStates
from repro.hyracks.limits import CHECK_STRIDE
from repro.hyracks.spill import (
    GROUP_ENTRY_BYTES as _GROUP_ENTRY_BYTES,
    GroupedRows,
    SpilledSequence,
    charge,
    external_sort,
    fold_group_table,
    grace_join_overflow,
)
from repro.hyracks.tuples import Tuple, merge_tuples, sizeof_tuple, sizeof_tuples
from repro.jsonlib.items import (
    ABSENT,
    Item,
    canonical_atomic,
    canonical_item,
    item_type_name,
    sizeof_rows,
)
from repro.jsonlib.textscan import ScanCounters

__all__ = [
    "execute",
    "grouped_input",
    "hash_join",
    "keyed_inputs",
    "keyed_tuples",
    "run_chain",
    "run_operator",
    "run_plan",
    "split_join_condition",
]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute(op: Operator, ctx: EvaluationContext) -> Iterator[Tuple]:
    """Execute a (sub)plan rooted at *op*, yielding output tuples."""
    if isinstance(op, EmptyTupleSource):
        return iter([{}])
    if isinstance(op, NestedTupleSource):
        raise PlanError(
            "NESTED-TUPLE-SOURCE outside a SUBPLAN/GROUP-BY nested plan"
        )
    if isinstance(op, DataScan):
        stream = _execute_datascan(op, ctx)
        if ctx.profile is not None:
            stream = ctx.profile.observe(op, stream)
        return stream
    if isinstance(op, Join):
        stream = _execute_join(op, ctx)
        if ctx.profile is not None:
            stream = ctx.profile.observe(op, stream)
        return stream
    if isinstance(op, GroupBy):
        stream = _execute_group_by(op, grouped_input(op, ctx), ctx)
        if ctx.profile is not None:
            stream = ctx.profile.observe(op, stream)
        return stream
    geared = _scan_run(op, ctx.functions)
    if geared is not None:
        return _execute_datascan(geared[0], ctx, *geared[1:])
    (input_op,) = op.inputs
    return run_operator(op, execute(input_op, ctx), ctx)


def run_operator(
    op: Operator, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    """Run one unary operator over a given input tuple stream.

    With profiling enabled the input stream is wrapped to count tuples
    flowing in, and the output stream to count tuples flowing out and
    to charge the operator's (inclusive) timing span.
    """
    profile = ctx.profile
    if profile is not None:
        source = profile.count_input(op, source)
    stream = _dispatch_operator(op, source, ctx)
    if profile is not None:
        stream = profile.observe(op, stream)
    return stream


def _dispatch_operator(
    op: Operator, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    if isinstance(op, Assign):
        return _execute_assign(op, source, ctx)
    if isinstance(op, Unnest):
        return _execute_unnest(op, source, ctx)
    if isinstance(op, Select):
        return _execute_select(op, source, ctx)
    if isinstance(op, Aggregate):
        return _execute_aggregate(op, source, ctx)
    if isinstance(op, Subplan):
        return _execute_subplan(op, source, ctx)
    if isinstance(op, GroupBy):
        return _execute_group_by(op, source, ctx)
    if isinstance(op, Sort):
        return external_sort(op.specs, source, ctx, op=op)
    if isinstance(op, DistributeResult):
        return _execute_distribute(op, source, ctx)
    raise PlanError(f"no physical implementation for {op.name}")


def run_chain(
    ops_bottom_up: list[Operator],
    source: Iterable[Tuple],
    ctx: EvaluationContext,
) -> Iterator[Tuple]:
    """Run a chain of unary operators (bottom-most first) over *source*."""
    stream: Iterable[Tuple] = source
    for op in ops_bottom_up:
        stream = run_operator(op, stream, ctx)
    return iter(stream)


def run_plan(plan: LogicalPlan, ctx: EvaluationContext) -> list[Item]:
    """Execute a full plan and return the result items.

    The plan root must be DISTRIBUTE-RESULT; each of its expressions is
    evaluated per tuple and all items are concatenated.
    """
    root = plan.root
    if not isinstance(root, DistributeResult):
        raise PlanError("plan root must be DISTRIBUTE-RESULT")
    results: list[Item] = []
    for tup in execute(root, ctx):
        results.extend(tup["__result__"])
    return results


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------


#: Rows DATASCAN takes from an unsized scan before it sizes them as one
#: frame: enough to amortize the column kernel's set-up, few enough that
#: a scan runs only a bounded step ahead of its consumer.
_FRAME_ROWS = 256


def _sized_frames(
    op: DataScan, ctx: EvaluationContext, track: bool
) -> Iterator[tuple[list[Item], Iterable[int]]]:
    """The scan under *op* as ``(items, sizes)`` frames, *items* a list.

    A source that keeps row sizes (the catalogs' segment cache) hands
    them over per unit, and such a frame passes through.  Any other
    stream is cut into lists of at most ``_FRAME_ROWS`` rows, each sized
    in one call (not at all unless *track*).  Rows taken before the
    stream raised go out, sized, before the error does; closing this
    closes the stream being cut.
    """
    scan_units = getattr(ctx.source, "scan_units", None)
    if scan_units is not None:
        units = scan_units(
            op.collection, op.project_path, ctx.partition, report=ctx.report
        )
    else:
        scan = ctx.source.scan_collection(
            op.collection,
            op.project_path,
            partition=ctx.partition,
            report=ctx.report,
        )
        units = ((scan, None),)
    for items, sizes in units:
        yield from _cut(items, sizes, track)


def _cut(
    items: Iterable[Item], sizes, track: bool
) -> Iterator[tuple[list[Item], Iterable[int]]]:
    """One unit's *items* as :func:`_sized_frames` frames."""
    if sizes is not None:
        yield items, sizes
        return
    stream = iter(items)
    try:
        while True:
            rows: list[Item] = []
            failure = None
            try:
                # extend() keeps what it took when the stream raises
                rows.extend(islice(stream, _FRAME_ROWS))
            except Exception as error:
                failure = error
            yield rows, sizeof_rows(rows) if track else repeat(0)
            if failure is not None:
                raise failure
            if len(rows) < _FRAME_ROWS:
                break
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def _scan_run(op: Operator, functions: dict) -> tuple | None:
    """``(scan, run, steps)`` when *op* is a DATASCAN or a run of SELECT /
    ASSIGN operators directly on one (*run*, bottom-most first) whose
    every expression has a column form (the frame gear); else None."""
    run: list[Operator] = []
    while isinstance(op, (Select, Assign)):
        run.insert(0, op)
        op = op.input_op
    steps = _frame_steps(run, functions) if isinstance(op, DataScan) else None
    return None if steps is None else (op, run, steps)


def _frame_steps(run: list[Operator], functions: dict) -> list | None:
    """The column forms of *run*: ``(variable, [column])`` per ASSIGN and
    ``(None, [mask of each conjunct])`` per SELECT, or None when an
    expression in it has no column form."""
    steps = []
    for op in run:
        if isinstance(op, Assign):
            step = (op.variable, [op.expression.compile_column(functions)])
        else:
            masks = [compile_mask(c, functions) for c in conjuncts(op.condition)]
            step = (None, masks)
        if None in step[1]:
            return None
        steps.append(step)
    return steps


def _frame_tuples(frame: Frame) -> list[Tuple]:
    """The live rows of *frame* as tuples, one variable per column."""
    names = [name for name in frame if name is not None]
    sequences = [
        [[] if item is ABSENT else [item] for item in frame[name]]
        for name in names
    ]
    return [dict(zip(names, row)) for row in zip(*sequences)]


def _frame_keys(frame: Frame, columns: list) -> list:
    """What :func:`join_key` answers for each live row of *frame*, from
    the key expressions' column forms: a comprehension per component
    around :func:`_key_component`; a column of exact ``str`` takes one
    canonical component per distinct string, shared by its rows."""
    components = []
    holes = False  # may a component be None (an absent item, NaN)?
    for column in columns:
        values = column(frame)
        if set(map(type, values)) == {str}:
            canonical = {value: (("str", value),) for value in set(values)}
            components.append(map(canonical.__getitem__, values))
        else:
            holes = True
            components.append(
                [None if v is ABSENT else _key_component(v) for v in values]
            )
    keys = list(zip(*components))
    return [None if None in key else key for key in keys] if holes else keys


def _grouped_rows(frame: Frame, key_columns: list, arg_columns: list) -> GroupedRows:
    """The live rows of *frame* as the GROUP-BY fold takes them: the
    canonical key of each key sequence (a column of exact ``str`` takes
    one canonical component per distinct string, as :func:`_frame_keys`
    does), the key sequences, and each aggregate's argument sequence."""
    components = []
    sequences = []
    for column in key_columns:
        values = column(frame)
        if set(map(type, values)) == {str}:
            canonical = {value: (("str", value),) for value in set(values)}
            components.append(map(canonical.__getitem__, values))
        else:
            components.append(
                [() if v is ABSENT else (canonical_item(v),) for v in values]
            )
        sequences.append([[] if v is ABSENT else [v] for v in values])
    arguments = [
        [[] if item is ABSENT else [item] for item in column(frame)]
        for column in arg_columns
    ]
    return GroupedRows(
        list(zip(*components)), list(zip(*sequences)), list(zip(*arguments))
    )


def _execute_datascan(
    op: DataScan,
    ctx: EvaluationContext,
    run: list[Operator] = (),
    steps: list | None = None,
    keyed: tuple | None = None,
    grouped: tuple | None = None,
) -> Iterator[Tuple]:
    """DATASCAN alone, or with *steps* (:func:`_frame_steps` of *run*)
    the SELECT / ASSIGN operators of *run* above it in the frame gear,
    over the frames of its own read (:class:`_Scan` says what the
    arguments do; :func:`keyed_inputs` hands two of them one read)."""
    scan = _Scan(op, ctx, run, steps, keyed, grouped)
    counters = _attached_counters(ctx)
    frames = _sized_frames(op, ctx, scan.track)
    try:
        started = scan.clock()
        for items, sizes in frames:
            try:
                yield from scan.frame(items, sizes, started)
            finally:
                started = scan.clock()
    finally:
        frames.close()
        if counters is not None:
            ctx.source.attach_scan_counters(None)
        scan.close(counters)


def _attached_counters(ctx: EvaluationContext):
    """Fresh scan counters attached to the source, which credits every
    scan it runs on this thread to them until they are detached; None
    unless profiled and the source counts."""
    if ctx.profile is None or not hasattr(ctx.source, "attach_scan_counters"):
        return None
    counters = ScanCounters()
    ctx.source.attach_scan_counters(counters)
    return counters


class _Scan:
    """One DATASCAN, fed its frames one at a time (:meth:`frame`) and
    accounted when it closes (:meth:`close`).

    Without *steps* each row is a tuple (the tuple gear); with *steps*
    (:func:`_frame_steps` of *run*) the SELECT / ASSIGN operators of
    *run* run on the frame a column at a time (the frame gear).  With
    *keyed* (:func:`keyed_tuples`: key columns, a queue) the frame gear
    queues the join key of each tuple it is about to yield.  With
    *grouped* (:func:`grouped_input`: the GROUP-BY, its key and argument
    columns) it yields no tuples: one
    :class:`~repro.hyracks.spill.GroupedRows` per frame, and the tuples
    of a frame whose columns raised.

    Either way the scan accounts what a tuple-at-a-time consumer would
    have pulled: every row of a finished frame, and of a frame that
    raised or that the consumer closed, the rows up to the last one
    pulled (the one its last tuple came from).
    """

    def __init__(self, op, ctx, run=(), steps=None, keyed=None, grouped=None):
        if ctx.source is None:
            raise RuntimeExecutionError("no data source configured for DATASCAN")
        self.op, self.ctx, self.run = op, ctx, run
        self.steps, self.keyed, self.grouped = steps, keyed, grouped
        self.scanned = 0
        self.scanned_bytes = 0
        self.track = ctx.stats is not None or ctx.profile is not None
        # Only the frame gear of a run reads the profile's clock here: a
        # scan alone, in either gear, is timed from outside, by ``observe``.
        self.timed = ctx.profile is not None and (bool(run) or grouped is not None)
        self.clock = ctx.profile.clock if self.timed else _no_clock

    def frame(self, items: list, sizes, started: float) -> Iterator:
        """The scan's output of one frame; *started* is the clock's
        reading before the frame was fetched (the timed gear's span
        starts there)."""
        op, ctx, run, steps = self.op, self.ctx, self.run, self.steps
        keyed, grouped, timed, clock = self.keyed, self.grouped, self.timed, self.clock
        profile = ctx.profile
        limits = ctx.limits
        variable = op.variable
        consumed = 0  # rows pulled of this frame

        def tuple_gear(items):
            nonlocal consumed
            for item in items:
                if limits is not None:
                    limits.checkpoint()
                consumed += 1
                yield {variable: [item]}

        def frame_gear(items):
            nonlocal consumed
            if limits is not None:
                limits.check()
            try:
                frame = {None: range(len(items)), variable: items}
                marks = []  # per operator, scan first: (its end, its live rows)
                for assigned, forms in steps:
                    marks.append((clock(), frame[None]))
                    if assigned is not None:
                        frame[assigned] = forms[0](frame)
                        continue
                    for mask in forms:
                        # a conjunct sees only the rows the one before kept
                        frame = narrow(frame, mask(frame))
                if grouped is None:
                    tuples = _frame_tuples(frame)
                marks.append((clock(), frame[None]))
                if grouped is not None:  # after the last mark: the GROUP-BY's work
                    batch = _grouped_rows(frame, *grouped[1:])
            except Exception:
                # The frame again, from its first row, through the closures:
                # the tuple gear decides what it raises and what comes first.
                rows = tuple_gear(items)
                if timed:
                    rows = profile.observe(op, rows)
                rows = run_chain(run, rows, ctx)
                if grouped is not None and profile is not None:
                    rows = profile.count_input(grouped[0], rows)
                yield from rows
                return
            if keyed is not None:  # after the last mark: this is the join's work
                columns, queue = keyed
                try:
                    queue.extend(_frame_keys(frame, columns))
                except Exception:
                    pass  # join_key decides what is raised, tuple by tuple
            live = frame[None]
            try:
                if grouped is None:
                    for position, tup in zip(live, tuples):
                        consumed = position + 1
                        yield tup
                elif live:
                    try:
                        yield batch
                    finally:  # the fold took them all, or raised on its last
                        consumed = live[batch.taken - 1] + 1 if batch.taken else 0
                        if profile is not None:
                            profile.charge(grouped[0], 0.0, tuples_in=batch.taken)
                consumed = len(items)
            finally:
                if timed:
                    passed = 0
                    for node, (mark, live) in zip((op, *run), marks):
                        entered, passed = passed, bisect_left(live, consumed)
                        profile.charge(
                            node, mark - started, tuples_in=entered, tuples_out=passed
                        )

        try:
            yield from (tuple_gear if steps is None else frame_gear)(items)
        finally:
            self.scanned += consumed
            if self.track:
                self.scanned_bytes += sum(islice(sizes, consumed))

    def close(self, counters) -> None:
        """Account the scan: rows and bytes, and with *counters* (the
        :class:`~repro.jsonlib.textscan.ScanCounters` its read credited)
        the projection, on-demand and cache counts."""
        op, ctx, profile = self.op, self.ctx, self.ctx.profile
        if ctx.stats is not None:
            ctx.stats.items_scanned += self.scanned
            ctx.stats.scanned_item_bytes += self.scanned_bytes
        if profile is None:
            return
        profile.add(op, "items_scanned", self.scanned)
        profile.add(op, "bytes_scanned", self.scanned_bytes)
        if counters is not None:
            profile.add(op, "projection_hits", counters.matched)
            profile.add(op, "projection_skips", counters.skipped)
            # Scan fast-path diagnostics (zero when the mode/cache
            # that produces them is off, keeping profiles stable).
            if counters.tape_records:
                profile.add(op, "tape_records", counters.tape_records)
                profile.add(op, "tape_tokens", counters.tape_tokens)
            if counters.cache_hits:
                profile.add(op, "cache_hits", counters.cache_hits)
            if counters.cache_misses:
                profile.add(op, "cache_misses", counters.cache_misses)
            if counters.cache_corrupt:
                profile.add(op, "cache_corrupt", counters.cache_corrupt)


def _no_clock() -> float:
    return 0.0


def _execute_assign(
    op: Assign, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    evaluate = ctx.compiled(op.expression)
    variable = op.variable
    for tup in source:
        # a copy, so upstream operators can keep their tuple
        yield {**tup, variable: evaluate(tup, ctx)}


def _execute_unnest(
    op: Unnest, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    evaluate = ctx.compiled(op.expression)
    variable = op.variable
    for tup in source:
        for item in evaluate(tup, ctx):
            yield {**tup, variable: [item]}


def _execute_select(
    op: Select, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    condition = ctx.compiled(op.condition, as_condition=True)
    for tup in source:
        if condition(tup, ctx):
            yield tup


def _execute_aggregate(
    op: Aggregate, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    aggregates = GroupStates(op.specs, ctx)
    _, partials = aggregates.fold_table(source, ctx)[()]
    yield aggregates.bindings(partials, (), ())


def _execute_subplan(
    op: Subplan, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    for tup in source:
        bindings = execute_nested_plan(op.nested_root, [tup], ctx)
        yield merge_tuples(tup, bindings)


def execute_nested_plan(
    nested_root: Operator, outer_tuples: list[Tuple], ctx: EvaluationContext
) -> Tuple:
    """Run a nested plan whose NESTED-TUPLE-SOURCE emits *outer_tuples*.

    The nested root must be an AGGREGATE, so exactly one output tuple is
    produced; its bindings are returned.
    """
    if not isinstance(nested_root, Aggregate):
        raise PlanError("nested plan root must be AGGREGATE")

    def expand(node: Operator) -> Iterator[Tuple]:
        if isinstance(node, NestedTupleSource):
            return iter(outer_tuples)
        if not node.inputs:
            raise PlanError(
                f"unexpected leaf {node.name} inside a nested plan"
            )
        (input_op,) = node.inputs
        return run_operator(node, expand(input_op), ctx)

    outputs = list(expand(nested_root))
    return outputs[0]


def _execute_group_by(
    op: GroupBy, source: Iterable, ctx: EvaluationContext
) -> Iterator[Tuple]:
    """Hash grouping of *source* (tuples, or what :func:`grouped_input`
    yields).

    A GROUP-BY's nested plan is always AGGREGATE over
    NESTED-TUPLE-SOURCE (the :class:`~repro.algebra.operators.GroupBy`
    constructor enforces it), so groups fold incrementally through
    :func:`~repro.hyracks.spill.fold_group_table`: no group member list
    is kept unless a ``sequence`` aggregate demands one, and under a
    budget the table spills.  Each group's entry charge is released once
    the groups have been emitted.
    """
    key_vars = [var for var, _ in op.keys]
    aggregates, groups = fold_group_table(op, source, ctx)
    try:
        for key_values, states, _ in groups.values():
            partials = aggregates.take(states, ctx)
            yield aggregates.bindings(partials, key_vars, key_values)
    finally:
        ctx.release(_GROUP_ENTRY_BYTES * len(groups))


def _execute_distribute(
    op: DistributeResult, source: Iterable[Tuple], ctx: EvaluationContext
) -> Iterator[Tuple]:
    evaluators = [ctx.compiled(expression) for expression in op.expressions]
    for tup in source:
        items: list[Item] = []
        for evaluate in evaluators:
            items.extend(evaluate(tup, ctx))
        yield {"__result__": items}


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def split_join_condition(
    join: Join,
) -> tuple[list[Expression], list[Expression], list[Expression]]:
    """Split a join condition into (left keys, right keys, residual).

    Equality conjuncts whose operands each depend on exactly one branch
    become hash-key pairs (aligned by index); everything else is residual
    and gets evaluated on candidate pairs.
    """
    left_vars = subtree_variables(join.left)
    right_vars = subtree_variables(join.right)
    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    residual: list[Expression] = []
    for conjunct in conjuncts(join.condition):
        if isinstance(conjunct, ComparisonExpr) and conjunct.op == "eq":
            a_vars = conjunct.left.free_variables()
            b_vars = conjunct.right.free_variables()
            if a_vars and b_vars:
                if a_vars <= left_vars and b_vars <= right_vars:
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                    continue
                if a_vars <= right_vars and b_vars <= left_vars:
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
                    continue
        residual.append(conjunct)
    return left_keys, right_keys, residual


def _is_always_true(expression: Expression) -> bool:
    from repro.algebra.expressions import Literal

    return isinstance(expression, Literal) and expression.sequence == [True]


def _execute_join(op: Join, ctx: EvaluationContext) -> Iterator[Tuple]:
    left_keys, right_keys, residual = split_join_condition(op)
    if left_keys:
        left_stream = keyed_tuples(op.left, left_keys, ctx, op)
        right_stream = keyed_tuples(op.right, right_keys, ctx, op)
        if ctx.profile is not None:
            left_counter, right_counter = _side_counters(op)
            left_stream = ctx.profile.count_into(op, left_counter, left_stream)
            right_stream = ctx.profile.count_into(op, right_counter, right_stream)
        yield from hash_join(
            left_stream, right_stream, residual, ctx,
            op=op, build_side=op.build_side,
        )
    else:
        left_stream = execute(op.left, ctx)
        right_stream = execute(op.right, ctx)
        # A nested-loop join has no build/probe phases; it streams the
        # outer (left) input against a materialized inner (right) one.
        if ctx.profile is not None:
            left_stream = ctx.profile.count_into(
                op, "outer_tuples", left_stream
            )
            right_stream = ctx.profile.count_into(
                op, "inner_tuples", right_stream
            )
        yield from _nested_loop_join(left_stream, right_stream, op, ctx)


def _side_counters(join: Join) -> tuple[str, str]:
    """The profile counters of *join*'s left and right input: they follow
    the *physical* role, the input the (possibly cost-swapped) hash join
    materializes counting as ``build_tuples``, the other as
    ``probe_tuples``."""
    if join.build_side == "left":
        return "build_tuples", "probe_tuples"
    return "probe_tuples", "build_tuples"


def _key_component(item: Item) -> tuple | None:
    """One join-key component, canonical; an object or array raises like
    the ``eq`` the key came from would (``null`` still equals ``null``),
    and NaN, which equals nothing, not even NaN, is None: a key that
    cannot join (grouping and ``distinct-values`` keep NaN one value).
    An aware dateTime is keyed in UTC: ``eq`` holds across offsets, and
    the key's ``repr`` picks the exchange bucket."""
    if isinstance(item, (dict, list)):
        raise ItemTypeError(
            f"value comparison 'eq' over an {item_type_name(item)} item"
        )
    if isinstance(item, float) and item != item:
        return None
    if isinstance(item, datetime) and item.utcoffset() is not None:
        item = item.astimezone(timezone.utc)
    return (canonical_atomic(item),)


def join_key(tup: Tuple, keys: list[Evaluator], ctx: EvaluationContext):
    """Canonical equi-join key of *tup*, or None when any component is
    the empty sequence or NaN (``x eq ()`` and ``x eq NaN`` are false, so
    the tuple cannot join).
    The one definition of the rule, called by :func:`keyed_tuples` only.

    *keys* are the compiled closures of the key expressions
    (``ctx.compiled``), taken once per join run by the caller.

    A component evaluating to a *multi-item* sequence, an object or an
    array raises :class:`~repro.errors.ItemTypeError`, exactly like the
    ``eq`` value comparison the key was extracted from would — hashing
    the sequence or the structure instead would let the hash / grace /
    exchange paths "match" pairs the scalar comparison rejects as a
    type error.
    """
    key = []
    for evaluate in keys:
        value = evaluate(tup, ctx)
        if not value:
            return None
        if len(value) > 1:
            raise ItemTypeError(
                "value comparison 'eq' over a multi-item sequence"
            )
        component = _key_component(value[0])
        if component is None:
            return None
        key.append(component)
    return tuple(key)


def keyed_tuples(
    side: Operator, key_exprs: list[Expression], ctx: EvaluationContext, op: Join
) -> Iterator[tuple]:
    """Input *side* of join *op* as the ``(key, tuple)`` pairs every join
    path consumes, keyed once; None keys a tuple that cannot join (and
    is counted as ``join_keys_dropped`` on a profile when it is pulled).

    A side in the scan's frame gear (:func:`_scan_run`; a DATASCAN alone
    too) whose key expressions all have column forms is keyed a column
    at a time: the scan queues a frame's keys ahead of its tuples.  A
    frame whose key columns raise queues none and is keyed like any
    other side, by :func:`join_key`, which decides what is raised.
    """
    queued: deque = deque()
    keying = _keying(side, key_exprs, ctx)
    if keying is None:
        tuples = execute(side, ctx)
    else:
        (scan, run, steps), columns = keying
        tuples = _execute_datascan(scan, ctx, run, steps, (columns, queued))
        if ctx.profile is not None and not run:
            tuples = ctx.profile.observe(scan, tuples)
    yield from _keyed(tuples, queued, key_exprs, ctx, op)


def _keying(side: Operator, key_exprs: list[Expression], ctx: EvaluationContext):
    """``(_scan_run(side), key columns)`` when join input *side* is keyed
    in the frame gear, else None."""
    geared = _scan_run(side, ctx.functions)
    columns = [expr.compile_column(ctx.functions) for expr in key_exprs]
    return None if geared is None or None in columns else (geared, columns)


def _keyed(tuples, queued: deque, key_exprs, ctx: EvaluationContext, op: Join):
    """*tuples* with their keys: the next of *queued* while it has one,
    else :func:`join_key`'s."""
    closures = [ctx.compiled(expr) for expr in key_exprs]
    profile = ctx.profile
    for tup in tuples:
        key = queued.popleft() if queued else join_key(tup, closures, ctx)
        if key is None and profile is not None:
            profile.add(op, "join_keys_dropped", 1)
        yield key, tup


def _kept(pairs, join: Join, counter: str, ctx: EvaluationContext):
    """Keyed *pairs* of one input of *join* as phase 1 of an exchange
    keeps them: counted and checked as pulled; as in :func:`hash_join` a
    pair whose key is None is dropped."""
    limits = ctx.limits
    if ctx.profile is not None:
        pairs = ctx.profile.count_into(join, counter, pairs)
    for pair in pairs:
        if limits is not None:
            limits.checkpoint()
        if pair[0] is not None:
            yield pair


def keyed_inputs(
    join: Join, left_keys: list, right_keys: list, ctx: EvaluationContext
) -> Iterator[tuple]:
    """Both inputs of *join* as the pairs phase 1 of an exchange keeps,
    keyed by :func:`keyed_tuples`' rules and counted into the join's
    build or probe counter (following the physical build side): runs of
    ``(key, tuple)`` pairs, each as ``(side, pairs)``, *side* 0 for the
    left input and 1 for the right, each input's pairs in its own order.

    Each read is made once.  When both inputs are keyed in the frame
    gear over DATASCANs of the same collection and projection path (a
    self-join: variables, runs and keys may differ), one read feeds
    both (:func:`_read_once`); otherwise the left input is drained, then
    the right, each reading for itself.
    """
    inputs = list(
        zip((join.left, join.right), (left_keys, right_keys), _side_counters(join))
    )
    keyings = [_keying(side, key_exprs, ctx) for side, key_exprs, _ in inputs]
    if None not in keyings:
        left_scan, right_scan = (keying[0][0] for keying in keyings)
        if (left_scan.collection, left_scan.project_path) == (
            right_scan.collection, right_scan.project_path
        ):
            yield from _read_once(join, inputs, keyings, ctx)
            return
    for side, (op, key_exprs, counter) in enumerate(inputs):
        yield side, _kept(keyed_tuples(op, key_exprs, ctx, join), join, counter, ctx)


def _read_once(join: Join, inputs: list, keyings: list, ctx: EvaluationContext):
    """:func:`keyed_inputs` over one read: each frame of the left
    input's scan goes to the left input, then to the right one, so the
    right input lags by at most a frame and no frame is kept.

    What each input shows is what it showed reading for itself, left
    first.  The right input records its profile apart, on a fork with a
    clock of its own (so neither input's spans see the other's clock
    reads), and its scan is accounted, and the fork absorbed, once the
    left input has finished; an error it raises is held until then, and
    a left error, which would have come first, wins.  Its scan counters
    are the share of the read's counters each frame it took added.
    """
    right_ctx = ctx
    if ctx.profile is not None:
        right_ctx = copy(ctx)
        right_ctx.profile = ctx.profile.fork()
    left, right = (
        _FedInput(join, key_exprs, counter, keying, fed_ctx)
        for (_side, key_exprs, counter), keying, fed_ctx in zip(
            inputs, keyings, (ctx, right_ctx)
        )
    )
    shared = _attached_counters(ctx)  # the left input's: the read credits them
    if shared is not None:
        right.counters = ScanCounters()
    frames = _sized_frames(left.scan.op, ctx, left.scan.track)
    held = None
    finished = False
    try:
        while True:
            started = left.scan.clock()
            before = None if shared is None else shared.as_dict()
            frame = next(frames, None)
            if before is not None and held is None:
                right.counters.merge(_since(shared, before))
            if frame is None:
                break
            items, sizes = frame
            # A run is a frame's pairs in a list: what an input raises
            # is raised here, where its accounting is closed.
            yield 0, list(left.pairs(items, sizes, started))
            if held is not None:
                continue
            try:
                served = list(right.pairs(items, sizes, right.scan.clock()))
            except Exception as error:
                held = error
                continue
            yield 1, served
        finished = True
    finally:
        frames.close()
        if shared is not None:
            ctx.source.attach_scan_counters(None)
        left.close(shared, finished)
    right.close(right.counters, held is None)
    if ctx.profile is not None:
        ctx.profile.absorb(right_ctx.profile.data())
    if held is not None:
        raise held


def _since(counters: ScanCounters, before: dict) -> ScanCounters:
    """What *counters* took since their ``as_dict()`` was *before*."""
    taken = ScanCounters()
    for field, value in before.items():
        setattr(taken, field, getattr(counters, field) - value)
    return taken


class _FedInput:
    """One join input keyed in the frame gear whose frames are handed to
    it (:func:`_read_once`): its scan, the pairs of each frame as
    :func:`keyed_tuples` and :func:`_kept` would give them, and, for a
    bare DATASCAN on a profile, the ``observe`` span it is timed by."""

    def __init__(self, join, key_exprs, counter, keying, ctx):
        (scan, run, steps), columns = keying
        self.join, self.key_exprs, self.counter = join, key_exprs, counter
        self.ctx = ctx
        self.queued: deque = deque()
        self.scan = _Scan(scan, ctx, run, steps, (columns, self.queued))
        self.observed = ctx.profile is not None and not run
        self.pending = None  # the clock's reading the open observe span began at
        self.counters = None

    def pairs(self, items: list, sizes, started: float) -> Iterator[tuple]:
        """The kept pairs of one frame; the scan accounts it on close."""
        tuples = self.scan.frame(items, sizes, started)
        try:
            stream = self._observed(tuples) if self.observed else tuples
            keyed = _keyed(stream, self.queued, self.key_exprs, self.ctx, self.join)
            yield from _kept(keyed, self.join, self.counter, self.ctx)
        finally:
            tuples.close()

    def _observed(self, tuples):
        """*tuples* timed and counted as ``profile.observe`` times the
        whole scan: the span of the pull that ends a frame runs on into
        the next frame's first tuple."""
        profile, op = self.ctx.profile, self.scan.op
        clock = profile.clock
        tuples = iter(tuples)
        while True:
            if self.pending is None:
                self.pending = clock()
            try:
                tup = next(tuples)
            except StopIteration:
                return
            profile.charge(op, clock() - self.pending, tuples_out=1)
            self.pending = None
            yield tup

    def close(self, counters, finished: bool) -> None:
        """Account the scan; a finished observed scan ends its last span."""
        self.scan.close(counters)
        if finished and self.observed:
            clock = self.ctx.profile.clock
            started = clock() if self.pending is None else self.pending
            self.ctx.profile.charge(self.scan.op, clock() - started)


def grouped_input(op: GroupBy, ctx: EvaluationContext) -> Iterator:
    """The input of GROUP-BY *op* as
    :func:`~repro.hyracks.spill.fold_group_table` consumes it, counted
    into the GROUP-BY's ``tuples_in`` on a profile.

    An input in the scan's frame gear (:func:`_scan_run`; a DATASCAN
    alone too) whose key expressions and aggregate arguments all have
    column forms comes a frame at a time, as
    :class:`~repro.hyracks.spill.GroupedRows`, and no tuple is built for
    it; a frame whose columns raise comes as tuples, which the fold keys
    through the closures.  Any other input is tuples.
    """
    functions = ctx.functions
    geared = _scan_run(op.input_op, functions)
    keys = [expr.compile_column(functions) for _, expr in op.keys]
    arguments = [
        spec.argument.compile_column(functions) for spec in op.nested_root.specs
    ]
    if geared is None or None in keys or None in arguments:
        tuples = execute(op.input_op, ctx)
        if ctx.profile is not None:
            tuples = ctx.profile.count_input(op, tuples)
        return tuples
    scan, run, steps = geared
    return _execute_datascan(
        scan, ctx, run, steps, grouped=(op, keys, arguments)
    )


def _compile_residual(
    conjuncts: list[Expression], ctx: EvaluationContext
) -> Condition | None:
    """One condition for a join's residual conjuncts (all must hold), or
    None when there are none and every candidate pair joins."""
    if not conjuncts:
        return None
    conditions = [ctx.compiled(c, as_condition=True) for c in conjuncts]

    def residual(tup, ctx):
        for condition in conditions:
            if not condition(tup, ctx):
                return False
        return True

    return residual


def hash_join(
    left_pairs: Iterable[tuple],
    right_pairs: Iterable[tuple],
    residual: list[Expression],
    ctx: EvaluationContext,
    op: Operator | None = None,
    build_side: str = "right",
    build_sizes: Iterable[int] | None = None,
) -> Iterator[Tuple]:
    """Hash join of :func:`keyed_tuples` pairs; *build_side* picks which
    input is materialized.

    The default builds on the right input and probes with the left (the
    un-costed orientation); the cost phase may annotate a join to build
    on the smaller left input instead.  Output tuples are emitted in
    probe order either way, and the probe/build merge order matches the
    grace-join spill path so results are byte-identical spill on/off.

    A pair whose key is None (a key expression evaluated to the empty
    sequence) can never satisfy the ``eq`` conjunct it came from (a
    general comparison with ``()`` is false), so such tuples are dropped
    on both sides instead of being hashed — two missing keys must not
    match each other.

    A build tuple is charged its entry of *build_sizes* (one per pair:
    what the exchange measured), or ``sizeof_tuple`` when there are
    none, through :func:`~repro.hyracks.spill.charge`.  When the budget
    declines a charge, the join hands off to
    :func:`~repro.hyracks.spill.grace_join_overflow` (grace hash join),
    which re-emits results in probe order so the output stays
    byte-identical.  Without a budget no charge declines, and the table
    is one in-memory build.
    """
    residual = _compile_residual(residual, ctx)
    if build_side == "left":
        build_pairs, probe_pairs = left_pairs, right_pairs
    else:
        build_pairs, probe_pairs = right_pairs, left_pairs
    limits = ctx.limits
    table: dict = {}
    charged = 0
    try:
        build_iter = iter(build_pairs)
        for (key, tup), n_bytes in zip(build_iter, build_sizes or repeat(None)):
            if limits is not None:
                limits.checkpoint()
            if key is None:
                continue
            if ctx.memory is not None:
                if n_bytes is None:
                    n_bytes = sizeof_tuple(tup)
                if not charge(ctx, n_bytes):
                    # The overflowing tuple joins the table uncharged;
                    # the grace path writes the table out and releases
                    # the accumulated charge itself.
                    table.setdefault(key, []).append(tup)
                    overflow = grace_join_overflow(
                        table, charged, build_iter, probe_pairs,
                        residual, ctx, op=op,
                    )
                    table = {}
                    charged = 0
                    yield from overflow
                    return
                charged += n_bytes
            table.setdefault(key, []).append(tup)
        for key, tup in probe_pairs:
            if limits is not None:
                limits.checkpoint()
            if key is None:
                continue
            for match in table.get(key, ()):
                joined = merge_tuples(tup, match)
                if residual is None or residual(joined, ctx):
                    yield joined
    finally:
        if charged:
            ctx.release(charged)


def _nested_loop_join(
    left_stream: Iterable[Tuple],
    right_stream: Iterable[Tuple],
    op: Join,
    ctx: EvaluationContext,
) -> Iterator[Tuple]:
    """Join every left tuple with every right tuple the condition admits.

    The inner (right) side is materialized in a
    :class:`~repro.hyracks.spill.SpilledSequence`, sized by the frame
    (``CHECK_STRIDE`` tuples at a time through :func:`sizeof_tuples`)
    with a limits check per frame, so a deadline or a cancellation
    unwinds mid-build.  Under a budget the inner side overflows to run
    files and is replayed once per left tuple.
    """
    limits = ctx.limits
    # None: the condition is the literal true, every pair joins.
    condition = (
        None
        if _is_always_true(op.condition)
        else ctx.compiled(op.condition, as_condition=True)
    )
    right = iter(right_stream)
    right_seq = SpilledSequence(ctx, label="nljoin", op=op)
    try:
        while chunk := list(islice(right, CHECK_STRIDE)):
            if limits is not None:
                limits.check()
            for tup, n_bytes in zip(chunk, sizeof_tuples(chunk)):
                right_seq.append(tup, n_bytes)
        for left_tuple in left_stream:
            if limits is not None:
                limits.checkpoint()
            for right_tuple in right_seq:
                joined = merge_tuples(left_tuple, right_tuple)
                if condition is None or condition(joined, ctx):
                    yield joined
    finally:
        right_seq.close()
