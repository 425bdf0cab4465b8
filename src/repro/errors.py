"""Exception hierarchy for the repro JSON query processor.

Every error raised on a public code path derives from :class:`ReproError`
so that callers can catch a single base class.  Sub-hierarchies mirror the
layers of the system: parsing JSON text, parsing JSONiq query text,
translating and rewriting plans, and executing jobs on the runtime.
"""

from __future__ import annotations

from typing import Iterator


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


def causes(error: BaseException | None) -> Iterator[BaseException]:
    """*error*, then its ``__cause__``, and so on down the chain; each
    error once, so a chain that loops back ends where it would repeat."""
    seen: set[int] = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        yield error
        error = error.__cause__


def is_retryable(error: BaseException | None) -> bool:
    """Whether running the failed work again could succeed.

    The one rule for every retry: a partition attempt and a service
    request alike.  Walks :func:`causes`; the first error that decides
    wins.  A timeout, a cancellation or a rejected admission is a
    verdict on the query and answers no; an :class:`OSError` or a class
    marked ``retryable = True`` came from outside the query and answers
    yes.  A chain in which nothing decides is the query's own error,
    which would come back on every attempt: no.
    """
    for current in causes(error):
        if isinstance(
            current, (QueryTimeoutError, QueryCancelledError, AdmissionError)
        ):
            return False
        if isinstance(current, OSError) or getattr(current, "retryable", False):
            return True
    return False


class _PickleByInitArgs:
    """Mixin for exceptions whose ``__init__`` composes the message.

    The default exception pickling reconstructs via ``Cls(*self.args)``,
    but ``args`` holds the *composed* message, not the original
    constructor arguments — so a class like
    ``FileScanError(file_path, cause)`` would fail to unpickle (or
    double-compose its message).  Classes using this mixin record their
    raw constructor arguments in ``self._init_args`` and round-trip
    through them, which is what lets the process execution backend ship
    errors across worker boundaries.
    """

    def __reduce__(self):
        return (type(self), self._init_args)


# ---------------------------------------------------------------------------
# JSON data layer
# ---------------------------------------------------------------------------


class JsonError(ReproError):
    """Base class for errors in the JSON data substrate."""


class JsonSyntaxError(_PickleByInitArgs, JsonError):
    """Malformed JSON text.

    Attributes
    ----------
    offset:
        Character offset into the input at which the error was detected.
    """

    def __init__(self, message: str, offset: int | None = None):
        self._init_args = (message, offset)
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class ItemTypeError(JsonError):
    """A JSONiq navigation or function was applied to the wrong item type."""


class ItemDepthError(JsonError):
    """An item nested deeper than a grouping or join key may be
    (:data:`repro.jsonlib.items.MAX_KEY_DEPTH`)."""


class FileScanError(_PickleByInitArgs, JsonError):
    """A JSON file could not be scanned.

    Wraps the underlying :class:`JsonError` (available as ``__cause__``)
    and carries the path of the offending file so partition-level errors
    can say *which* file broke.
    """

    def __init__(self, file_path: str, cause: Exception):
        self._init_args = (file_path, cause)
        super().__init__(f"error scanning {file_path!r}: {cause}")
        self.file_path = file_path


# ---------------------------------------------------------------------------
# Query language layer
# ---------------------------------------------------------------------------


class LexerError(_PickleByInitArgs, ReproError):
    """Query text could not be tokenized."""

    def __init__(self, message: str, position: int | None = None):
        self._init_args = (message, position)
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ParseError(_PickleByInitArgs, ReproError):
    """Query token stream did not match the grammar."""

    def __init__(self, message: str, position: int | None = None):
        self._init_args = (message, position)
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class TranslationError(ReproError):
    """The AST could not be translated into a logical plan."""


class UnknownFunctionError(_PickleByInitArgs, ReproError):
    """A query referenced a function that is not in the builtin library."""

    def __init__(self, name: str, arity: int):
        self._init_args = (name, arity)
        super().__init__(f"unknown function: {name}#{arity}")
        self.name = name
        self.arity = arity


class UnboundVariableError(_PickleByInitArgs, ReproError):
    """A query referenced a variable that is not in scope."""

    def __init__(self, name: str):
        self._init_args = (name,)
        super().__init__(f"unbound variable: ${name}")
        self.name = name


# ---------------------------------------------------------------------------
# Algebra / rewrite layer
# ---------------------------------------------------------------------------


class PlanError(ReproError):
    """Base class for logical-plan construction and rewrite errors."""


class RewriteError(PlanError):
    """A rewrite rule produced an inconsistent plan."""


# ---------------------------------------------------------------------------
# Runtime layer
# ---------------------------------------------------------------------------


class RuntimeExecutionError(ReproError):
    """Base class for errors raised while executing a physical job."""


class MemoryBudgetExceededError(_PickleByInitArgs, RuntimeExecutionError):
    """An operator (or engine) exceeded its memory budget."""

    def __init__(self, used_bytes: int, budget_bytes: int, context: str = ""):
        self._init_args = (used_bytes, budget_bytes, context)
        where = f" in {context}" if context else ""
        super().__init__(
            f"memory budget exceeded{where}: used {used_bytes} bytes, "
            f"budget {budget_bytes} bytes"
        )
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes


class TypeCheckError(RuntimeExecutionError):
    """A ``treat`` assertion failed at runtime."""


class SpillError(_PickleByInitArgs, RuntimeExecutionError):
    """A spill run file could not be written or read back.

    Wraps the underlying I/O (or injected) error; retryable, because a
    fresh partition attempt re-derives every run file from the source
    data.
    """

    retryable = True

    def __init__(self, message: str):
        self._init_args = (message,)
        super().__init__(message)


class SlotFailureError(_PickleByInitArgs, RuntimeExecutionError):
    """A service slot worker died while holding a request.

    Raised internally by :class:`~repro.service.QueryService` when a
    slot's worker thread crashes (or an injected slot death fires) with
    a query in flight.  Retryable: queries are read-only, so the request
    can be re-executed on a fresh slot — and the supervisor replaces the
    dead slot's backend before anything else runs there.
    """

    retryable = True

    def __init__(self, slot: int, detail: str = ""):
        self._init_args = (slot, detail)
        message = f"service slot {slot} died while executing this query"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.slot = slot
        self.detail = detail


class QueryTimeoutError(_PickleByInitArgs, RuntimeExecutionError):
    """A query ran past its deadline.

    Not retryable and never skippable: the deadline is query-global, so
    the partition policies do not apply — the whole query unwinds, with
    every spill file and memory tracker released on the way out.
    """

    def __init__(self, deadline_seconds: float, elapsed_seconds: float):
        self._init_args = (deadline_seconds, elapsed_seconds)
        super().__init__(
            f"query exceeded its {deadline_seconds:g}s deadline "
            f"(ran {elapsed_seconds:.3f}s)"
        )
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds


class QueryCancelledError(_PickleByInitArgs, RuntimeExecutionError):
    """The query's cancellation token was triggered mid-execution.

    Like :class:`QueryTimeoutError`, cancellation is query-global —
    retry and skip policies do not apply.
    """

    def __init__(self, reason: str = ""):
        self._init_args = (reason,)
        message = "query cancelled"
        if reason:
            message += f": {reason}"
        super().__init__(message)
        self.reason = reason


class PartitionExecutionError(_PickleByInitArgs, RuntimeExecutionError):
    """A partition of a partitioned job failed.

    Wraps the underlying error (available as ``__cause__``) and carries
    the collection name(s) being scanned, the partition index, the file
    path (when the cause identifies one), and how many attempts were
    made before giving up.
    """

    def __init__(
        self,
        partition: int,
        cause: Exception,
        collections: tuple[str, ...] = (),
        file_path: str | None = None,
        attempts: int = 1,
    ):
        self._init_args = (partition, cause, collections, file_path, attempts)
        where = f"partition {partition}"
        if collections:
            where += " of collection " + ", ".join(
                repr(name) for name in collections
            )
        if file_path is not None:
            where += f" (file {file_path!r})"
        tries = f" after {attempts} attempt(s)" if attempts > 1 else ""
        super().__init__(f"{where} failed{tries}: {cause}")
        self.partition = partition
        self.collections = tuple(collections)
        self.file_path = file_path
        self.attempts = attempts
        # Set in __init__ (not via ``raise ... from``) so the chain
        # survives a pickle round-trip through a process-pool worker:
        # __reduce__ re-runs __init__, which restores __cause__ here.
        self.__cause__ = cause


class BackendError(_PickleByInitArgs, RuntimeExecutionError):
    """A backend could not execute (or ship) a partition work unit.

    Carries the partition ids that failed and how many attempts each
    consumed (empty when the failure happened before any partition ran,
    e.g. an unpicklable work unit).  ``cause`` is restored as
    ``__cause__`` inside ``__init__`` so the chain survives the
    ``_PickleByInitArgs`` round-trip through a process-pool worker.
    """

    def __init__(
        self,
        message: str,
        partitions: tuple[int, ...] = (),
        attempts: tuple[int, ...] = (),
        cause: Exception | None = None,
    ):
        self._init_args = (message, tuple(partitions), tuple(attempts), cause)
        super().__init__(message)
        self.partitions = tuple(partitions)
        self.attempts = tuple(attempts)
        if cause is not None:
            self.__cause__ = cause


class WorkerCrashError(_PickleByInitArgs, RuntimeExecutionError):
    """A worker died (for real or by injection) while executing a partition.

    Under the process backend an injected kill calls ``os._exit`` and
    the coordinator observes ``BrokenProcessPool``; under the
    sequential backend the same fault raises this error instead, so the
    recovery layer sees an identical signal on every backend.  Not
    retryable by the *partition* policies — worker loss is handled by
    the recovery layer, not by the in-worker retry loop.
    """

    def __init__(self, partition: int, attempt: int, message: str = ""):
        self._init_args = (partition, attempt, message)
        text = f"worker executing partition {partition} died (attempt {attempt})"
        if message:
            text += f": {message}"
        super().__init__(text)
        self.partition = partition
        self.attempt = attempt
        self.detail = message


class RecoveryExhaustedError(BackendError):
    """A partition kept killing its worker until the attempt budget ran out.

    The recovery layer starts a crashing partition at most
    ``recovery.MAX_UNIT_ATTEMPTS`` times; a deterministically
    crashing partition escalates here instead of looping forever.
    Retryable: the service re-executes the request on a fresh slot.
    """

    retryable = True

    def __init__(
        self,
        partitions: tuple[int, ...],
        attempts: tuple[int, ...],
        backend: str = "",
        cause: Exception | None = None,
    ):
        partitions = tuple(partitions)
        attempts = tuple(attempts)
        where = f" on the {backend} backend" if backend else ""
        detail = ", ".join(
            f"partition {p} ({a} attempt(s))"
            for p, a in zip(partitions, attempts)
        )
        super().__init__(
            f"worker recovery exhausted{where}: {detail or 'no partitions'}",
            partitions=partitions,
            attempts=attempts,
            cause=cause,
        )
        self._init_args = (partitions, attempts, backend, cause)
        self.backend = backend


class ProcessorClosedError(RuntimeExecutionError):
    """A query was issued on a closed processor or executor.

    ``close()`` releases the backend worker pools for good; executing
    afterwards used to silently re-create them (or die with an opaque
    pool error mid-flight).  A closed processor now refuses new work
    with this error instead — build a new :class:`~repro.JsonProcessor`
    (or keep the old one open) to keep querying.
    """

    def __init__(self, what: str = "processor"):
        super().__init__(
            f"this {what} is closed; close() released its worker pools, "
            "so it cannot execute further queries — create a new one"
        )


class AdmissionError(_PickleByInitArgs, ReproError):
    """A query submission was rejected by service admission control.

    Raised synchronously by :meth:`~repro.service.QueryService.submit`
    — an over-quota submission never enters the queue, so it cannot
    crash or starve queries that were already admitted.  ``reason`` is
    machine-readable:

    - ``"closed"`` — the service is shut down;
    - ``"tenant-quota"`` — the tenant is at its admitted-query limit
      (``max_concurrent + max_queued`` in flight);
    - ``"service-queue"`` — the service-wide admission queue is full;
    - ``"memory-quota"`` — the request asked for more memory than the
      tenant's budget allows;
    - ``"deadline-quota"`` — the request asked for a longer deadline
      than the tenant's ceiling allows;
    - ``"predicted-timeout"`` — load shedding: the predicted queue wait
      (mean recent query duration × backlog ÷ live slots, measured on
      the service's injectable clock) already exceeds the request's
      deadline, so admitting it could only produce a timeout;
    - ``"no-slots"`` — every slot worker exhausted its restart budget,
      so no live slot exists to execute the query.
    """

    def __init__(
        self,
        reason: str,
        tenant: str,
        message: str,
        limit=None,
        requested=None,
    ):
        self._init_args = (reason, tenant, message, limit, requested)
        super().__init__(
            f"admission rejected for tenant {tenant!r} [{reason}]: {message}"
        )
        self.reason = reason
        self.tenant = tenant
        self.limit = limit
        self.requested = requested


# ---------------------------------------------------------------------------
# Baseline engines
# ---------------------------------------------------------------------------


class DocumentTooLargeError(_PickleByInitArgs, ReproError):
    """A document exceeded the document store's size limit.

    Mirrors MongoDB's 16 MB document limit that makes the naive Q2 join
    fail in Section 5.4 of the paper.
    """

    def __init__(self, doc_bytes: int, limit_bytes: int):
        self._init_args = (doc_bytes, limit_bytes)
        super().__init__(
            f"document of {doc_bytes} bytes exceeds the "
            f"{limit_bytes}-byte document limit"
        )
        self.doc_bytes = doc_bytes
        self.limit_bytes = limit_bytes


class LoadError(ReproError):
    """A baseline engine failed during its load phase."""
