"""Aggregate accumulators with partial/combine decomposition.

Each accumulator folds a tuple stream for one
:class:`~repro.algebra.operators.AggregateSpec`.  The partial/combine
split implements Algebricks' **two-step aggregation** (Section 4.3):
every partition folds its local tuples into a partial state, and a
central step combines partials into the final value — so ``count``,
``sum``, ``avg``, ``min`` and ``max`` parallelize without shipping raw
tuples.

``sequence`` is the materializing aggregate (it collects every item);
its accumulator charges the memory tracker, which is how the naive
group-by plans show their memory cost.

``sum``/``avg``/``min``/``max`` check every folded value exactly like
their scalar builtins in :mod:`repro.jsoniq.functions` (same error
class, same message), so a query answers — or fails — the same way
whether or not the group-by rules pushed the aggregate into an
accumulator.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import PlanError
from repro.algebra.context import EvaluationContext
from repro.algebra.expressions import Evaluator
from repro.algebra.operators import AggregateSpec
from repro.hyracks.tuples import Tuple
from repro.jsoniq.functions import as_numbers
from repro.jsonlib.items import sizeof_item


class Accumulator:
    """Base class: fold tuples, expose a partial, finish to a sequence.

    *argument* is the compiled closure of ``spec.argument``; an
    accumulator never evaluates through the spec's expression node.
    """

    __slots__ = ("spec", "argument")

    def __init__(self, spec: AggregateSpec, argument: Evaluator):
        self.spec = spec
        self.argument = argument

    def add(self, tup: Tuple, ctx: EvaluationContext) -> None:
        """Fold one input tuple."""
        raise NotImplementedError

    def partial(self) -> object:
        """Partition-local partial state (cheap to ship)."""
        raise NotImplementedError

    def absorb(self, partial: object) -> None:
        """Combine another accumulator's partial into this one."""
        raise NotImplementedError

    def finish(self, ctx: EvaluationContext) -> list:
        """The aggregate's final value as a sequence."""
        raise NotImplementedError


class SequenceAccumulator(Accumulator):
    """``sequence(...)`` — concatenates every argument item.

    The materializing aggregate.  Without a spill manager on the context
    it charges the tracker (raising on budget overflow, the behaviour
    the naive plans rely on); with one, the items live in a
    :class:`~repro.hyracks.spill.SpilledSequence` that overflows to run
    files instead.
    """

    __slots__ = ("items", "charged_bytes", "_store")

    def __init__(self, spec: AggregateSpec, argument: Evaluator):
        super().__init__(spec, argument)
        self.items: list = []
        self.charged_bytes = 0
        self._store = None

    def add(self, tup, ctx):
        values = self.argument(tup, ctx)
        if (
            self._store is None
            and ctx.spill is not None
            and ctx.memory is not None
            and not self.items
        ):
            from repro.hyracks.spill import SpilledSequence

            self._store = SpilledSequence(ctx, label="sequence")
        if self._store is not None:
            for value in values:
                self._store.append(value, sizeof_item(value))
            return
        self.items.extend(values)
        if ctx.memory is not None:
            n_bytes = sum(sizeof_item(v) for v in values)
            self.charged_bytes += n_bytes
            ctx.charge(n_bytes)

    def partial(self):
        if self._store is not None:
            return list(self._store)
        return self.items

    def absorb(self, partial):
        self.items.extend(partial)

    def release_charges(self, ctx) -> None:
        """Drop this accumulator's memory charge (its partial was spilled)."""
        if self._store is not None:
            self._store.close()
            self._store = None
            return
        if self.charged_bytes:
            ctx.release(self.charged_bytes)
            self.charged_bytes = 0

    def finish(self, ctx):
        if self._store is not None:
            self.items = list(self._store)
            self._store.close()
            self._store = None
            return self.items
        if self.charged_bytes:
            ctx.release(self.charged_bytes)
            self.charged_bytes = 0
        return self.items


class CountAccumulator(Accumulator):
    """``count(...)`` — number of argument items across all tuples."""

    __slots__ = ("n",)

    def __init__(self, spec: AggregateSpec, argument: Evaluator):
        super().__init__(spec, argument)
        self.n = 0

    def add(self, tup, ctx):
        self.n += len(self.argument(tup, ctx))

    def partial(self):
        return self.n

    def absorb(self, partial):
        self.n += partial

    def finish(self, ctx):
        return [self.n]


class SumAccumulator(Accumulator):
    """``sum(...)`` — numeric sum (0 when no items were seen)."""

    __slots__ = ("total",)

    def __init__(self, spec: AggregateSpec, argument: Evaluator):
        super().__init__(spec, argument)
        self.total: int | float = 0

    def add(self, tup, ctx):
        for value in as_numbers(self.argument(tup, ctx), "sum"):
            self.total += value

    def partial(self):
        return self.total

    def absorb(self, partial):
        self.total += partial

    def finish(self, ctx):
        return [self.total]


class AvgAccumulator(Accumulator):
    """``avg(...)`` — decomposes into a (sum, count) partial."""

    __slots__ = ("total", "n")

    def __init__(self, spec: AggregateSpec, argument: Evaluator):
        super().__init__(spec, argument)
        self.total: int | float = 0
        self.n = 0

    def add(self, tup, ctx):
        for value in as_numbers(self.argument(tup, ctx), "avg"):
            self.total += value
            self.n += 1

    def partial(self):
        return (self.total, self.n)

    def absorb(self, partial):
        total, n = partial
        self.total += total
        self.n += n

    def finish(self, ctx):
        if self.n == 0:
            return []
        return [self.total / self.n]


class MinMaxAccumulator(Accumulator):
    """``min(...)`` / ``max(...)``."""

    __slots__ = ("best", "pick")

    def __init__(self, spec: AggregateSpec, argument: Evaluator):
        super().__init__(spec, argument)
        self.best = None
        self.pick = min if spec.function == "min" else max

    def add(self, tup, ctx):
        pick = self.pick
        for value in as_numbers(self.argument(tup, ctx), self.spec.function):
            self.best = value if self.best is None else pick(self.best, value)

    def partial(self):
        return self.best

    def absorb(self, partial):
        if partial is None:
            return
        if self.best is None:
            self.best = partial
        else:
            self.best = self.pick(self.best, partial)

    def finish(self, ctx):
        return [] if self.best is None else [self.best]


_ACCUMULATORS = {
    "sequence": SequenceAccumulator,
    "count": CountAccumulator,
    "sum": SumAccumulator,
    "avg": AvgAccumulator,
    "min": MinMaxAccumulator,
    "max": MinMaxAccumulator,
}


def accumulator_factory(
    specs: Iterable[AggregateSpec], ctx: EvaluationContext
) -> Callable[[], list[Accumulator]]:
    """``new() -> [accumulator per spec, in order]``.

    Each spec's accumulator class and compiled argument are resolved
    here, once per operator run; a GROUP-BY then calls ``new()`` per
    group without re-deriving either.
    """
    parts = []
    for spec in specs:
        try:
            accumulator_class = _ACCUMULATORS[spec.function]
        except KeyError:
            raise PlanError(f"no accumulator for {spec.function!r}") from None
        parts.append((accumulator_class, spec, ctx.compiled(spec.argument)))
    return lambda: [cls(spec, argument) for cls, spec, argument in parts]


def make_accumulators(specs, ctx: EvaluationContext) -> list[Accumulator]:
    """One accumulator list for *specs* (an ungrouped aggregate)."""
    return accumulator_factory(specs, ctx)()


def fold_stream(specs, stream: Iterable[Tuple], ctx) -> list[Accumulator]:
    """Fold every tuple of *stream* into fresh accumulators for *specs*."""
    accumulators = make_accumulators(specs, ctx)
    limits = ctx.limits
    for tup in stream:
        if limits is not None:
            limits.checkpoint()
        for accumulator in accumulators:
            accumulator.add(tup, ctx)
    return accumulators


def take_partials(accumulators: list[Accumulator], ctx) -> list:
    """The accumulators' picklable partial states, with their memory
    charges (and spilled run files) released: the partials leave the
    partition, so nothing stays charged on their behalf."""
    partials = [acc.partial() for acc in accumulators]
    for acc in accumulators:
        release = getattr(acc, "release_charges", None)
        if release is not None:
            release(ctx)
    return partials
