"""Memory accounting for the runtime.

Materializing operators and expressions charge a :class:`MemoryTracker`;
the tracker records the high-water mark (Table 3 and Figure 18b of the
paper compare exactly this) and can enforce a budget, which is how the
SparkSQL baseline reproduces its "cannot load inputs larger than memory"
behaviour.

Two charging disciplines coexist:

- :meth:`MemoryTracker.allocate` raises
  :class:`~repro.errors.MemoryBudgetExceededError` on overflow — the
  behaviour non-spillable paths (expression materialization, the SQL
  baseline) keep;
- :meth:`MemoryTracker.try_allocate` *declines* instead of raising, so
  spilling operators can react by degrading to disk
  (:mod:`repro.hyracks.spill`); :meth:`MemoryTracker.force_allocate`
  records an overdraft for the irreducible minimum a spilling operator
  cannot shed (e.g. one group entry under a budget smaller than one
  entry).

Every work unit builds its own tracker (one per partition attempt), so
trackers are never shared between workers; the coordinator merges
per-partition peaks in partition order.
"""

from __future__ import annotations

from repro.errors import MemoryBudgetExceededError


class MemoryTracker:
    """Tracks allocated bytes with a peak and an optional hard budget."""

    __slots__ = ("used", "peak", "budget", "context", "underflow_bytes",
                 "overdraft_bytes")

    def __init__(self, budget: int | None = None, context: str = ""):
        self.used = 0
        self.peak = 0
        self.budget = budget
        self.context = context
        #: bytes released beyond what was allocated (accounting bugs are
        #: flagged here instead of being silently clamped away)
        self.underflow_bytes = 0
        #: bytes force-allocated past the budget (spill overdraft)
        self.overdraft_bytes = 0

    def allocate(self, n_bytes: int) -> None:
        """Charge *n_bytes*; raises when a budget would be exceeded."""
        self.used += n_bytes
        if self.used > self.peak:
            self.peak = self.used
        if self.budget is not None and self.used > self.budget:
            raise MemoryBudgetExceededError(self.used, self.budget, self.context)

    def try_allocate(self, n_bytes: int) -> bool:
        """Charge *n_bytes* if the budget allows; decline otherwise.

        Returns True when the charge was applied.  A declined charge
        leaves the tracker untouched — the caller is expected to spill
        and retry (or :meth:`force_allocate` the irreducible remainder).
        """
        if self.budget is not None and self.used + n_bytes > self.budget:
            return False
        self.used += n_bytes
        if self.used > self.peak:
            self.peak = self.used
        return True

    def force_allocate(self, n_bytes: int) -> None:
        """Charge *n_bytes* unconditionally, recording any overdraft.

        Used by spilling operators for state that cannot shrink further
        (a single hash-table entry, one sort record); the overdraft is
        visible on ``overdraft_bytes`` so tests and benchmarks can see
        how far past the budget an operator was forced.
        """
        self.used += n_bytes
        if self.used > self.peak:
            self.peak = self.used
        if self.budget is not None and self.used > self.budget:
            self.overdraft_bytes = max(
                self.overdraft_bytes, self.used - self.budget
            )

    def release(self, n_bytes: int) -> None:
        """Return *n_bytes* to the pool; flags underflow instead of hiding it."""
        if n_bytes > self.used:
            self.underflow_bytes += n_bytes - self.used
            self.used = 0
            return
        self.used -= n_bytes

    @property
    def has_underflow(self) -> bool:
        """True when more bytes were released than allocated."""
        return self.underflow_bytes > 0

    def reset(self) -> None:
        """Zero the counters (peak included)."""
        self.used = 0
        self.peak = 0
        self.underflow_bytes = 0
        self.overdraft_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        budget = f", budget={self.budget}" if self.budget is not None else ""
        flags = ""
        if self.underflow_bytes:
            flags += f", underflow={self.underflow_bytes}"
        if self.overdraft_bytes:
            flags += f", overdraft={self.overdraft_bytes}"
        return f"MemoryTracker(used={self.used}, peak={self.peak}{budget}{flags})"
