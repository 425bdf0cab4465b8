"""Evaluation context shared by expressions and physical operators.

The context carries everything an expression may need beyond the current
tuple: the scalar-function library, the data-source resolver that turns
collection/document names into items, the degradation report its reads
record skips on, and an optional memory tracker that materializing
evaluations charge.  It also owns the memo of compiled
expressions (:meth:`EvaluationContext.compiled`), so one partition
attempt compiles each expression of its plan at most once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol

from repro.jsonlib.items import Item
from repro.jsonlib.path import Path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hyracks.memory import MemoryTracker


def normalize_collection_name(name: str) -> str:
    """The key a data source files *name* under: one leading slash, no
    trailing one, so ``"c"``, ``"/c"`` and ``"/c/"`` are one collection."""
    return "/" + name.strip("/")


class DataSource(Protocol):
    """Resolves collection and document names to JSON items.

    Implementations: :class:`repro.data.catalog.CollectionCatalog` for real
    partitioned directories, and in-memory fakes in the tests.

    A read records what it skips or degrades on the
    :class:`~repro.resilience.report.DegradationReport` passed as
    *report* (None: nothing is recorded); a source keeps no per-query
    state, so one source serves concurrent queries.
    """

    def read_document(self, uri: str) -> Item:
        """Materialize the single JSON document at *uri*."""

    def read_collection(
        self, name: str, partition: int | None = None, report=None
    ) -> list[Item]:
        """Materialize every top-level item of a collection (one partition,
        or all partitions when *partition* is None)."""

    def scan_collection(
        self, name: str, path: Path, partition: int | None = None, report=None
    ) -> Iterator[Item]:
        """Stream the items of a collection projected through *path*."""

    def partition_count(self, name: str) -> int:
        """Number of partitions the collection is split into."""


class EvaluationContext:
    """Runtime context for expression evaluation.

    Parameters
    ----------
    source:
        Data-source resolver; required only by plans that read collections
        or documents.
    functions:
        Scalar-function library mapping ``(name, arity)`` to a callable
        ``f(args: list[list]) -> list``.  Defaults to the builtin JSONiq
        library.
    memory:
        Optional memory tracker charged by materializing evaluations.
    partition:
        Index of the partition this plan instance is running on (None for
        a global, single-instance plan).
    stats:
        Optional :class:`repro.hyracks.executor.ExecutionStats` charged by
        physical operators (scanned items, exchanged tuples, ...).
    profile:
        Optional :class:`repro.observability.profile.ProfileCollector`;
        when present, the physical operators record per-operator
        counters and timing spans on it.
    spill:
        Optional :class:`repro.hyracks.spill.SpillManager`, set whenever
        *memory* has a budget: the blocking operators degrade to disk
        when a memory charge is declined.
    limits:
        Optional :class:`repro.hyracks.limits.ExecutionLimits` checked at
        frame boundaries (deadline + cancellation token).
    report:
        Optional :class:`repro.resilience.report.DegradationReport` the
        context's collection reads record skipped records and files and
        segment-cache events on: the query's on the coordinator, the
        work unit's in a partition.
    """

    def __init__(
        self,
        source: DataSource | None = None,
        functions: dict[tuple[str, int], Callable] | None = None,
        memory: "MemoryTracker | None" = None,
        partition: int | None = None,
        stats=None,
        profile=None,
        spill=None,
        limits=None,
        report=None,
    ):
        if functions is None:
            from repro.jsoniq.functions import BUILTIN_FUNCTIONS

            functions = BUILTIN_FUNCTIONS
        self.source = source
        self.functions = functions
        self.memory = memory
        self.partition = partition
        self.stats = stats
        self.profile = profile
        self.spill = spill
        self.limits = limits
        self.report = report
        # (id(node), as_condition) -> (node, closure).  Keyed by identity
        # because nodes hash by type and compare structurally; the entry
        # holds its node so the id cannot be reused while the memo lives.
        self._compiled: dict = {}

    def compiled(self, expression, as_condition: bool = False):
        """The closure of *expression*, compiled at most once per context.

        ``fn(tup, ctx) -> sequence``, or with *as_condition*
        ``fn(tup, ctx) -> bool`` (the effective boolean value).  Physical
        operators take their closures here once per run, so a nested plan
        re-run per outer tuple, a retried partition attempt and a pool
        worker holding an unpickled plan each compile a node once, and
        plan nodes themselves stay free of runtime state.
        """
        key = (id(expression), as_condition)
        entry = self._compiled.get(key)
        if entry is None:
            compile_node = (
                expression.compile_condition
                if as_condition
                else expression.compile
            )
            entry = (expression, compile_node(self.functions))
            self._compiled[key] = entry
        return entry[1]

    def release(self, n_bytes: int) -> None:
        """Release *n_bytes* from the memory tracker, if any."""
        if self.memory is not None:
            self.memory.release(n_bytes)

    def checkpoint(self) -> None:
        """Strided deadline/cancellation check (cheap per-tuple call)."""
        if self.limits is not None:
            self.limits.checkpoint()


def charge_sequence(ctx: EvaluationContext, items: Iterable[Item]) -> int:
    """Charge the context for a materialized sequence; returns the bytes."""
    if ctx.memory is None:
        return 0
    from repro.jsonlib.items import sizeof_sequence

    n_bytes = sizeof_sequence(items)
    ctx.memory.allocate(n_bytes)  # nothing sheds it: raises past a budget
    return n_bytes
