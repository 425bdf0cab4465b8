"""Aggregate accumulators with partial/combine decomposition.

Each accumulator class defines one aggregate of an
:class:`~repro.algebra.operators.AggregateSpec` as functions of a
*state*: :meth:`~Accumulator.start` one, :meth:`~Accumulator.fold` a
tuple's argument items into it, :meth:`~Accumulator.take` it as a
picklable partial, :meth:`~Accumulator.merge` two partials and take the
:meth:`~Accumulator.value` of one.  The partial/combine split implements
Algebricks' **two-step aggregation** (Section 4.3): every partition
folds its local tuples into a partial state, and a central step combines
partials into the final value — so ``count``, ``sum``, ``avg``, ``min``
and ``max`` parallelize without shipping raw tuples.

:class:`GroupStates` runs every aggregate: it keeps a list of states per
group and calls the class functions on it, so a group costs no object
per aggregate; for every aggregate but ``sequence`` the state is its
own partial.  An ungrouped AGGREGATE is the one group of no keys
(:meth:`GroupStates.fold_table`).

``sequence`` is the materializing aggregate (it collects every item);
its state charges the memory tracker, which is how the naive group-by
plans show their memory cost, and spills under a budget.

``sum``/``avg``/``min``/``max`` check every folded value exactly like
their scalar builtins in :mod:`repro.jsoniq.functions` (same error
class, same message), so a query answers — or fails — the same way
whether or not the group-by rules pushed the aggregate into an
accumulator; ``min``/``max`` share the builtins' NaN-absorbing rule.
"""

from __future__ import annotations

import operator
from typing import Iterable

from repro.errors import PlanError
from repro.algebra.context import EvaluationContext
from repro.algebra.operators import AggregateSpec
from repro.hyracks.tuples import Tuple
from repro.jsoniq.functions import as_numbers, number_max, number_min
from repro.jsonlib.items import sizeof_item


class Accumulator:
    """An aggregate, as static functions of a state; never instantiated."""

    @staticmethod
    def start() -> object:
        """A fresh state."""
        raise NotImplementedError

    @staticmethod
    def fold(state: object, values: list, ctx: EvaluationContext) -> object:
        """*state* with one tuple's argument items folded in."""
        raise NotImplementedError

    @staticmethod
    def take(state: object, ctx: EvaluationContext) -> object:
        """*state* as a picklable partial, releasing what it holds."""
        return state

    @staticmethod
    def merge(left: object, right: object) -> object:
        """Two partials as one."""
        raise NotImplementedError

    @staticmethod
    def value(partial: object) -> list:
        """The final value of a partial, as a sequence."""
        raise NotImplementedError


class SequenceAccumulator(Accumulator):
    """``sequence(...)`` — concatenates every argument item.

    The materializing aggregate.  Its state is a
    :class:`~repro.hyracks.spill.SpilledSequence`, opened on the first
    fold (where the context is known): each item charges the tracker,
    and under a budget the items overflow to run files.  Its partial is
    the item list.
    """

    @staticmethod
    def start():
        return None

    @staticmethod
    def fold(state, values, ctx):
        if state is None:
            from repro.hyracks.spill import SpilledSequence

            state = SpilledSequence(ctx, label="sequence")
        for value in values:
            state.append(value, sizeof_item(value))
        return state

    @staticmethod
    def take(state, ctx):
        if state is None or type(state) is list:  # nothing folded, or a partial
            return state or []
        items = list(state)
        state.close()
        return items

    @staticmethod
    def merge(left, right):
        return left + right

    @staticmethod
    def value(partial):
        return partial


class CountAccumulator(Accumulator):
    """``count(...)`` — number of argument items across all tuples."""

    @staticmethod
    def start():
        return 0

    @staticmethod
    def fold(state, values, ctx):
        return state + len(values)

    merge = staticmethod(operator.add)

    @staticmethod
    def value(partial):
        return [partial]


class SumAccumulator(CountAccumulator):
    """``sum(...)`` — numeric sum (0 when no items were seen)."""

    @staticmethod
    def fold(state, values, ctx):
        for value in as_numbers(values, "sum"):
            state += value
        return state


class AvgAccumulator(Accumulator):
    """``avg(...)`` — decomposes into a (sum, count) partial."""

    @staticmethod
    def start():
        return (0, 0)

    @staticmethod
    def fold(state, values, ctx):
        total, n = state
        for value in as_numbers(values, "avg"):
            total += value
            n += 1
        return (total, n)

    @staticmethod
    def merge(left, right):
        return (left[0] + right[0], left[1] + right[1])

    @staticmethod
    def value(partial):
        total, n = partial
        return [] if n == 0 else [total / n]


class MinAccumulator(Accumulator):
    """``min(...)``; :class:`MaxAccumulator` is the same with ``max``."""

    function, pick = "min", staticmethod(number_min)

    @staticmethod
    def start():
        return None

    @classmethod
    def fold(cls, state, values, ctx):
        pick = cls.pick
        for value in as_numbers(values, cls.function):
            state = value if state is None else pick(state, value)
        return state

    @classmethod
    def merge(cls, left, right):
        if left is None:
            return right
        return left if right is None else cls.pick(left, right)

    @staticmethod
    def value(partial):
        return [] if partial is None else [partial]


class MaxAccumulator(MinAccumulator):
    function, pick = "max", staticmethod(number_max)


_ACCUMULATORS = {
    "sequence": SequenceAccumulator,
    "count": CountAccumulator,
    "sum": SumAccumulator,
    "avg": AvgAccumulator,
    "min": MinAccumulator,
    "max": MaxAccumulator,
}


def accumulator_classes(specs: Iterable[AggregateSpec]) -> list[type]:
    """The accumulator class of each spec, in order."""
    try:
        return [_ACCUMULATORS[spec.function] for spec in specs]
    except KeyError as error:
        raise PlanError(f"no accumulator for {error.args[0]!r}") from None


class GroupStates:
    """The aggregates of a GROUP-BY or an AGGREGATE over a list of
    states per group.

    Resolved once per operator run: the class and compiled argument of
    each spec, and which states hold something to release.
    """

    __slots__ = ("classes", "arguments", "variables", "new", "_held")

    def __init__(self, specs: Iterable[AggregateSpec], ctx: EvaluationContext):
        specs = list(specs)
        self.classes = accumulator_classes(specs)
        self.arguments = [ctx.compiled(spec.argument) for spec in specs]
        self.variables = [spec.variable for spec in specs]
        self._held = [
            (i, cls) for i, cls in enumerate(self.classes)
            if cls.take is not Accumulator.take
        ]
        #: ``new() -> [fresh state per spec]``; only a held state is an
        #: object of its own, the others start as a shared constant
        starts = [cls.start for cls in self.classes]
        if self._held:
            self.new = lambda: [start() for start in starts]
        else:
            self.new = [start() for start in starts].copy

    def add(self, states: list, tup: Tuple, ctx: EvaluationContext) -> None:
        """Fold one input tuple into *states*, spec by spec."""
        for i, cls in enumerate(self.classes):
            states[i] = cls.fold(states[i], self.arguments[i](tup, ctx), ctx)

    def fold_table(self, stream: Iterable[Tuple], ctx: EvaluationContext) -> dict:
        """*stream* folded into the one group of no keys, as the table a
        GROUP-BY's partition returns: ``{(): ((), partials)}``."""
        states = self.new()
        limits = ctx.limits
        for tup in stream:
            if limits is not None:
                limits.checkpoint()
            self.add(states, tup, ctx)
        return {(): ((), self.take(states, ctx))}

    def take(self, states: list, ctx: EvaluationContext) -> list:
        """*states* as partials (in place), releasing what they hold."""
        for i, cls in self._held:
            states[i] = cls.take(states[i], ctx)
        return states

    def merge(self, partials: list, more: list) -> None:
        """Merge the partials *more* into *partials*, in place."""
        for i, cls in enumerate(self.classes):
            partials[i] = cls.merge(partials[i], more[i])

    def bindings(self, partials: list, key_vars: list, key_values) -> dict:
        """A group's output tuple: *key_vars* bound to *key_values*, and
        the aggregates' variables to the values of *partials*."""
        out = dict(zip(key_vars, key_values))
        for variable, cls, partial in zip(self.variables, self.classes, partials):
            out[variable] = cls.value(partial)
        return out
