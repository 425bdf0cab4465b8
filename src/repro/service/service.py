"""A long-lived, multi-tenant query service over the partitioned engine.

Everything below this module is one-shot: a
:class:`~repro.JsonProcessor` compiles and runs a single query and its
executor carries per-query mutable state.  :class:`QueryService` is the
long-lived counterpart — the shape of a VXQuery/Hyracks cluster
controller fielding many concurrent queries — and it is wiring over
three pieces, each the one owner of its facts:

- **admission** (:mod:`repro.service.admission`): tenant quotas and
  the one ordered check a submission passes, lock-free;
- **the request lifecycle**: ``request.state`` (queued, running, done)
  is the only record of where a request is, and
  :meth:`QueryService._move_locked` the only code that moves it, so the
  admission queue and the running list never disagree with it;
- **slot repair**: :meth:`QueryService._repair_slot` is the one way a
  slot's backend (and, after a death, its thread) is replaced: after a
  death, or once ``BACKEND_FAILURE_THRESHOLD`` consecutive backend-level
  failures wore the backend out.

Around them:

- **long-lived catalogs**: one shared data source holding no
  per-query state: each query's degradation report travels in its
  evaluation contexts and is passed to every read (a profile's scan
  counters are attached per thread), so concurrent queries never see
  each other's events;
- **a shared backend pool**: one
  :class:`~repro.hyracks.backends.ExecutionBackend` per concurrency
  slot, owned by that slot's worker thread.  Pools of forked
  processes persist across queries, so fork/spawn cost is paid once —
  but no backend instance is ever shared by two in-flight queries,
  because a worker lost in one query rebuilds the pool under both;
- **scheduling**: admitted requests run FIFO, skipping over tenants
  that are at their concurrency limit (no head-of-line blocking across
  tenants).  Each query runs under its own
  :class:`~repro.hyracks.limits.ExecutionLimits` — the tenant deadline
  ceiling plus a per-request filesystem-flag
  :class:`~repro.hyracks.limits.CancellationToken`, so cancellation
  reaches even process-pool workers forked before the cancel;
- **plan cache**: an LRU keyed by (query text, rewrite config, stats
  fingerprint) — :class:`~repro.compiler.pipeline.PlanCache`, the one
  :class:`~repro.JsonProcessor` compiles through too;
- **result cache** (optional): keyed by plan fingerprint × source
  fingerprints with file-change invalidation — see
  :mod:`repro.service.result_cache`.  Both the result cache and any
  segment cache the service configures use ``content`` fingerprints: a
  long-lived server must not serve stale bytes through the ``stat``
  fingerprint's same-size rewrite window.

Every completed query returns a :class:`ServiceResponse` carrying the
result items plus the per-request telemetry the observability layers
already produce: the
:class:`~repro.observability.profile.QueryProfile` (when profiling)
and the :class:`~repro.resilience.report.DegradationReport`.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.algebra.plan import read_set
from repro.algebra.rules import RewriteConfig
from repro.compiler.pipeline import PLAN_CACHE_CAPACITY, PlanCache, compile_stats
from repro.errors import (
    AdmissionError,
    BackendError,
    QueryCancelledError,
    QueryTimeoutError,
    RecoveryExhaustedError,
    SlotFailureError,
    causes,
)
from repro.hyracks.backends import BACKENDS, resolve_backend
from repro.hyracks.executor import PartitionedExecutor
from repro.hyracks.limits import CancellationToken
from repro.observability.clock import CLOCKS, make_clock
from repro.observability.profile import resolve_profile_config
from repro.resilience.policies import ResilienceConfig
from repro.service.admission import TenantQuota, admit
from repro.service.events import QueryRetryEvent, SlotRestartEvent
from repro.service.result_cache import (
    CachedResult,
    ResultCache,
    source_fingerprints,
)
from repro.stats.cost import resolve_cost_enabled

#: Slot and retry events kept for ``stats()``: the most recent ones.  A
#: long-lived service under chaos must not grow with its history.
_EVENT_HISTORY = 256

#: Consecutive backend-level failures on one slot before its backend is
#: replaced in place.
BACKEND_FAILURE_THRESHOLD = 3


def _is_query_retryable(error: BaseException) -> bool:
    """Whether a failed request may be re-executed on a fresh slot.

    Walks the ``__cause__`` chain.  Timeouts and cancellations are
    query-global verdicts (never retried); anything carrying
    ``retryable = True`` (spill/cache I/O, transient injected faults,
    slot death) or an exhausted-recovery escalation is retryable,
    because a read-only query re-derives everything from the source.
    """
    for current in causes(error):
        if isinstance(
            current, (QueryCancelledError, QueryTimeoutError, AdmissionError)
        ):
            return False
        if isinstance(current, RecoveryExhaustedError):
            return True
        if getattr(current, "retryable", False):
            return True
    return False


def _count(requests, tenant: str) -> int:
    """How many of *requests* belong to *tenant*."""
    return sum(1 for request in requests if request.tenant == tenant)


def _drop_flag(request) -> None:
    """Remove a finished request's cancellation flag file, if any."""
    try:
        os.unlink(request.token.flag_path)
    except OSError:
        pass


@dataclass
class ServiceResponse:
    """One completed query: items plus per-request telemetry."""

    request_id: int
    tenant: str
    query: str
    items: list
    backend: str
    strategy: str
    wall_seconds: float
    queue_seconds: float
    plan_cache_hit: bool
    result_cache_hit: bool
    #: :class:`~repro.observability.profile.QueryProfile` (None unless profiled)
    profile: object = None
    #: :class:`~repro.resilience.report.DegradationReport` of this run
    degradation: object = None
    #: :class:`~repro.hyracks.executor.ExecutionStats` of this run
    stats: object = None
    deadline_slack_seconds: float | None = None
    is_partial: bool = False
    warnings: list = field(default_factory=list)
    #: how many times this request was re-executed after a retryable
    #: failure (0 = first execution succeeded), and why.
    retries: int = 0
    retry_causes: list = field(default_factory=list)


class _Request:
    """Internal per-submission state shared by ticket and scheduler."""

    __slots__ = (
        "id",
        "tenant",
        "query",
        "profile",
        "memory_budget",
        "deadline",
        "token",
        "event",
        "response",
        "error",
        "state",
        "submitted_at",
        "retries",
        "retry_causes",
        "first_started_at",
        "avoid_slot",
    )

    def __init__(self, request_id, tenant, query, profile, memory, deadline, token):
        self.id = request_id
        self.tenant = tenant
        self.query = query
        self.profile = profile
        self.memory_budget = memory
        self.deadline = deadline
        self.token = token
        self.event = threading.Event()
        self.response = None
        self.error = None
        self.state = None  # then "queued" | "running" | "done"
        self.submitted_at = time.perf_counter()
        self.retries = 0
        self.retry_causes: list[str] = []
        # perf_counter() of the *first* execution start: retries run
        # against whatever remains of the original deadline, not a
        # fresh one.
        self.first_started_at = None
        # slot index of the last failure; a retry prefers any other
        # live slot (honored only while another live slot exists).
        self.avoid_slot = None


class _Slot:
    """One concurrency slot: a backend owned by a supervised worker thread."""

    __slots__ = (
        "index",
        "backend",
        "thread",
        "restarts",
        "backend_failures",
        "abandoned",
        "current",
    )

    def __init__(self, index: int, backend):
        self.index = index
        self.backend = backend
        self.thread = None
        self.restarts = 0
        self.backend_failures = 0
        self.abandoned = False
        self.current = None  # the _Request in flight (worker thread only)


class QueryTicket:
    """Handle on one admitted submission: await the result or cancel."""

    def __init__(self, service: "QueryService", request: _Request):
        self._service = service
        self._request = request

    @property
    def request_id(self) -> int:
        return self._request.id

    @property
    def tenant(self) -> str:
        return self._request.tenant

    def done(self) -> bool:
        return self._request.event.is_set()

    def result(self, timeout: float | None = None) -> ServiceResponse:
        """Block until the query finishes; return or raise its outcome."""
        if not self._request.event.wait(timeout):
            raise TimeoutError(
                f"query {self._request.id} still running after {timeout}s"
            )
        if self._request.error is not None:
            raise self._request.error
        return self._request.response

    def cancel(self, reason: str = "cancelled by client") -> bool:
        """Cancel this query; True if the cancel could still take effect.

        A queued query is withdrawn immediately (its :meth:`result`
        raises :class:`~repro.errors.QueryCancelledError` without ever
        executing); a running query is signalled through its
        cancellation token and unwinds at the next frame boundary.
        """
        return self._service._cancel(self._request, reason)


class QueryService:
    """Long-lived concurrent query service (see module docstring).

    Parameters
    ----------
    source:
        The shared data source (catalog) all queries run against.
    rewrite:
        Rewrite-toggle config applied to every query (default: all
        rules).  Part of the plan-cache key.  The cost phase runs as
        ``REPRO_COST`` says (unset means on).
    backend:
        Backend *name* (``"sequential"`` | ``"process"``)
        for partition work; ``None`` consults ``REPRO_BACKEND``.  The
        service builds one backend instance per concurrency slot, so
        instances are not accepted here.
    max_concurrent_queries:
        Service-wide concurrency: worker threads × backend slots.
    max_workers:
        Per-query worker cap inside each backend (default: CPU count).
    max_queue_depth:
        Bound on queued-but-not-running requests across all tenants
        (default: ``4 × max_concurrent_queries``).
    default_quota / quotas:
        The :class:`TenantQuota` applied to unknown tenants, and
        per-tenant overrides by name.
    plan_cache_size / result_cache_size:
        LRU capacities; ``result_cache_size=0`` (default) disables
        result caching.  The result cache fingerprints sources by
        content (a long-lived server must detect same-size in-place
        rewrites).
    segment_cache_dir:
        When given, (re)configures the source's segment cache with
        ``content`` fingerprints.
    memory_budget_bytes / spill_dir / resilience:
        Per-query execution defaults, as on
        :class:`~repro.JsonProcessor`.
    max_query_retries:
        Bounded re-executions of a request after a classified-retryable
        failure (default 1; 0 disables query-level retry).
    max_slot_restarts:
        Per-slot supervisor restart budget (default 3); a slot that
        dies beyond it is abandoned for the life of the service.
    clock:
        Name from the injectable ``CLOCKS`` registry (default
        ``"wall"``) used for load-shedding duration estimates and
        :meth:`drain` timeouts — register a scripted clock to make them
        deterministic in tests.
    """

    def __init__(
        self,
        source,
        rewrite: RewriteConfig | None = None,
        backend: str | None = None,
        max_concurrent_queries: int = 2,
        max_workers: int | None = None,
        max_queue_depth: int | None = None,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        plan_cache_size: int = PLAN_CACHE_CAPACITY,
        result_cache_size: int = 0,
        segment_cache_dir: str | None = None,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
        resilience: ResilienceConfig | None = None,
        max_query_retries: int = 1,
        max_slot_restarts: int = 3,
        clock: str = "wall",
    ):
        if backend is not None and backend not in BACKENDS:
            raise ValueError(
                f"backend must be a name from {sorted(BACKENDS)} or None; "
                f"the service owns its backend instances"
            )
        if max_concurrent_queries < 1:
            raise ValueError(
                f"max_concurrent_queries must be >= 1, "
                f"got {max_concurrent_queries!r}"
            )
        if max_query_retries < 0:
            raise ValueError(
                f"max_query_retries must be >= 0, got {max_query_retries!r}"
            )
        if max_slot_restarts < 0:
            raise ValueError(
                f"max_slot_restarts must be >= 0, got {max_slot_restarts!r}"
            )
        if clock not in CLOCKS:
            raise ValueError(
                f"unknown service clock {clock!r}; "
                f"expected one of {sorted(CLOCKS)}"
            )
        self._source = source
        self._rewrite = rewrite if rewrite is not None else RewriteConfig.all()
        self._cost = resolve_cost_enabled()
        self._resilience = resilience
        self._memory_budget = memory_budget_bytes
        self._spill_dir = spill_dir
        self._max_workers = max_workers
        if segment_cache_dir is not None:
            configure = getattr(source, "configure_scan", None)
            if configure is not None:
                configure(
                    segment_cache_dir=segment_cache_dir,
                    fingerprint_mode="content",
                )
        self.default_quota = (
            default_quota if default_quota is not None else TenantQuota()
        )
        self.quotas: dict[str, TenantQuota] = dict(quotas or {})
        self.plan_cache = PlanCache(plan_cache_size)
        self.result_cache = (
            ResultCache(result_cache_size) if result_cache_size else None
        )
        self._max_queue_depth = (
            max_queue_depth
            if max_queue_depth is not None
            else 4 * max_concurrent_queries
        )
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        # Where each request is, by ``request.state``; only _move_locked
        # changes either list.  Bounded by max_queue_depth (plus retries
        # re-queued from a slot) and by the slot count.
        self._queue: list[_Request] = []
        self._running: list[_Request] = []
        self._closed = False
        self._request_seq = itertools.count(1)
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected": 0,
            "retried": 0,
            "slot_restarts_total": 0,
        }
        self._rejected_by_reason: dict[str, int] = {}
        # -- self-healing state --------------------------------------------
        self._backend_name = backend
        self._max_query_retries = max_query_retries
        self._max_slot_restarts = max_slot_restarts
        self._clock = make_clock(clock)
        self._recent_durations: deque = deque(maxlen=32)
        # The most recent events only; the ``retried`` and
        # ``slot_restarts_total`` counters hold the exact totals.
        self._slot_events: deque[SlotRestartEvent] = deque(
            maxlen=_EVENT_HISTORY
        )
        self._retry_events: deque[QueryRetryEvent] = deque(
            maxlen=_EVENT_HISTORY
        )
        # slot index → pending injected-death count (see
        # inject_slot_failure); a dict of counts so tests can queue
        # several deterministic deaths on one slot.
        self._kill_slots: dict[int, int] = {}
        # Per-request cancel flags live here so a cancel issued after a
        # process-pool worker forked is still observed via the filesystem.
        self._flag_dir = tempfile.mkdtemp(prefix="repro-service-")
        self._slots = [
            _Slot(index, resolve_backend(backend, max_workers=max_workers))
            for index in range(max_concurrent_queries)
        ]
        for slot in self._slots:
            self._spawn_worker(slot)

    def _spawn_worker(self, slot: _Slot) -> None:
        slot.thread = threading.Thread(
            target=self._worker_main,
            args=(slot,),
            name=f"repro-service-{slot.index}r{slot.restarts}",
            daemon=True,
        )
        slot.thread.start()

    # -- admission -------------------------------------------------------------

    def _quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _live_slots_locked(self) -> int:
        return sum(1 for slot in self._slots if not slot.abandoned)

    def submit(
        self,
        query: str,
        tenant: str = "default",
        profile=None,
        memory_budget_bytes: int | None = None,
        deadline_seconds: float | None = None,
    ) -> QueryTicket:
        """Admit *query* for *tenant*; returns a ticket, or raises
        :class:`~repro.errors.AdmissionError` synchronously.

        Admission is deterministic in the submission order: given the
        same sequence of submits/finishes, the same submission is
        rejected with the same reason, because
        :func:`~repro.service.admission.admit` runs under the service
        lock against exact queued/running counts.
        """
        quota = self._quota(tenant)
        with self._lock:
            rejection = admit(
                tenant,
                quota,
                memory_budget_bytes,
                deadline_seconds,
                closed=self._closed,
                live_slots=self._live_slots_locked(),
                in_flight=_count(self._queue, tenant)
                + _count(self._running, tenant),
                queued=len(self._queue),
                running=len(self._running),
                max_queue_depth=self._max_queue_depth,
                durations=self._recent_durations,
            )
            if rejection is not None:
                self._counters["rejected"] += 1
                self._rejected_by_reason[rejection.reason] = (
                    self._rejected_by_reason.get(rejection.reason, 0) + 1
                )
                raise rejection
            request_id = next(self._request_seq)
            token = CancellationToken(
                flag_path=os.path.join(self._flag_dir, f"cancel-{request_id}")
            )
            request = _Request(
                request_id,
                tenant,
                query,
                profile,
                memory_budget_bytes
                if memory_budget_bytes is not None
                else quota.memory_budget_bytes
                if quota.memory_budget_bytes is not None
                else self._memory_budget,
                deadline_seconds
                if deadline_seconds is not None
                else quota.deadline_ceiling_seconds,
                token,
            )
            self._move_locked(request, "queued")
            self._counters["submitted"] += 1
            self._work_ready.notify()
        return QueryTicket(self, request)

    def execute(self, query: str, tenant: str = "default", **kwargs):
        """Submit and block for the response (one-shot convenience)."""
        return self.submit(query, tenant=tenant, **kwargs).result()

    # -- the request lifecycle -------------------------------------------------

    def _move_locked(self, request: _Request, state: str) -> None:
        """Move *request* to *state* (the service lock held): the one
        place ``_queue`` and ``_running`` change.  A request queued from
        running (a retry) goes to the front of the queue, a new one to
        the back."""
        if request.state == "queued":
            self._queue.remove(request)
        elif request.state == "running":
            self._running.remove(request)
        if state == "queued":
            front = request.state == "running"
            self._queue.insert(0 if front else len(self._queue), request)
        elif state == "running":
            self._running.append(request)
        request.state = state

    def _next_request(self, slot: _Slot) -> _Request | None:
        """Claim the next runnable request; None once the slot is
        abandoned, or the service closed with nothing left queued (a
        request this slot may not run yet can become runnable, and the
        slot that would have run it can die).

        FIFO over the admission queue, skipping requests whose tenant
        is at its concurrency limit — a backlogged tenant never blocks
        another tenant's work — and requests that just failed on *this*
        slot (honored only while another live slot could take them).
        """
        with self._work_ready:
            while not slot.abandoned:
                for request in self._queue:
                    if (
                        request.avoid_slot == slot.index
                        and self._live_slots_locked() > 1
                    ):
                        continue
                    quota = self._quota(request.tenant)
                    if _count(self._running, request.tenant) < (
                        quota.max_concurrent
                    ):
                        self._move_locked(request, "running")
                        return request
                if self._closed and not self._queue:
                    return None
                self._work_ready.wait()
            return None

    def _route(
        self, slot: _Slot, request: _Request, response=None, error=None,
        duration=None,
    ) -> None:
        """Send one execution outcome on: a retryable failure back to
        the queue, anything else to the ticket.

        Queries are read-only, so a request that fails with a
        classified-retryable error — a dead slot
        (:class:`~repro.errors.SlotFailureError`), exhausted worker
        recovery (:class:`~repro.errors.RecoveryExhaustedError`), or
        transient spill/cache I/O (anything in the ``__cause__`` chain
        with ``retryable = True``, never a timeout or cancellation) — is
        re-queued at the front, preferring a different slot, up to
        ``max_query_retries`` times, with whatever remains of its
        *original* deadline and the same cancellation token.  Retry
        provenance rides on the response (``retries`` /
        ``retry_causes``) and in ``stats()``.
        """
        with self._lock:
            if error is not None and self._may_retry_locked(request, error):
                request.retries += 1
                request.retry_causes.append(f"{type(error).__name__}: {error}")
                request.avoid_slot = slot.index
                self._move_locked(request, "queued")
                self._counters["retried"] += 1
                self._retry_events.append(
                    QueryRetryEvent(
                        request_id=request.id,
                        tenant=request.tenant,
                        attempt=request.retries,
                        slot=slot.index,
                        error=type(error).__name__,
                        message=str(error),
                    )
                )
                self._work_ready.notify_all()
                return
            self._finish_locked(request, response, error, duration)
        _drop_flag(request)

    def _may_retry_locked(self, request: _Request, error) -> bool:
        return (
            request.retries < self._max_query_retries
            and _is_query_retryable(error)
            and not request.token.cancelled
            and not (
                request.deadline is not None
                and request.first_started_at is not None
                and time.perf_counter() - request.first_started_at
                >= request.deadline
            )
            and not self._closed
            and self._live_slots_locked() > 0
        )

    def _finish_locked(
        self, request: _Request, response=None, error=None, duration=None
    ) -> None:
        """A request's one terminal transition, from queued or running:
        free its place, count the outcome and wake the ticket.  The caller holds the lock and drops the flag file."""
        request.response = response
        request.error = error
        self._move_locked(request, "done")
        if duration is not None:
            self._recent_durations.append(duration)
        if error is None:
            self._counters["completed"] += 1
        elif isinstance(error, QueryCancelledError):
            self._counters["cancelled"] += 1
        else:
            self._counters["failed"] += 1
        # Set the ticket's event inside the critical section: anyone
        # who observes the post-finish counters (a drain() returning,
        # a stats() reader) must also observe the ticket as done.
        request.event.set()
        self._work_ready.notify_all()
        self._idle.notify_all()

    def _cancel(self, request: _Request, reason: str) -> bool:
        with self._lock:
            if request.state == "running":
                request.token.cancel(reason)
                return True
            if request.state != "queued":
                return False
            self._finish_locked(request, error=QueryCancelledError(reason))
        _drop_flag(request)
        return True

    # -- slots -----------------------------------------------------------------

    def _worker_main(self, slot: _Slot) -> None:
        """Thread target: the worker loop under slot supervision.

        Anything that escapes the loop — a crash in the scheduling
        machinery or an injected slot death — is a *slot* failure, not
        a query failure: the slot is repaired and the in-flight request,
        if any, fails with a :class:`~repro.errors.SlotFailureError` that
        query-level retry may send to the replacement.
        """
        try:
            self._worker_loop(slot)
        except BaseException as death:  # noqa: BLE001 - supervised
            detail = f"{type(death).__name__}: {death}"
            failure = SlotFailureError(slot.index, detail)
            if isinstance(death, Exception):
                failure.__cause__ = death
            request, slot.current = slot.current, None
            self._repair_slot(slot, request, failure, died=detail)

    def _worker_loop(self, slot: _Slot) -> None:
        while (request := self._next_request(slot)) is not None:
            slot.current = request
            with self._lock:
                pending = self._kill_slots.pop(slot.index, 0)
                if pending > 1:
                    self._kill_slots[slot.index] = pending - 1
            if pending:
                # Escapes to _worker_main with slot.current still set,
                # exactly like a genuine crash between claim and finish.
                raise SlotFailureError(slot.index, "injected slot death")
            started = self._clock()
            response = error = None
            try:
                response = self._execute_request(request, slot.backend)
            except BaseException as failure:  # noqa: BLE001 - routed to ticket
                error = failure
            slot.current = None
            duration = self._clock() - started
            with self._lock:
                if any(
                    isinstance(current, (BackendError, SlotFailureError))
                    for current in causes(error)
                ):
                    slot.backend_failures += 1
                else:
                    slot.backend_failures = 0
                worn = slot.backend_failures >= BACKEND_FAILURE_THRESHOLD
            if worn:
                self._repair_slot(slot, request, error, duration=duration)
            else:
                self._route(slot, request, response, error, duration)

    def _repair_slot(
        self, slot: _Slot, request, error, died=None, duration=None
    ) -> None:
        """Replace a slot's backend, and its thread after a death, then
        route the request it held; the one place a slot is mended.

        Two things call it, each on the thread that owned the slot, so
        nothing else is running on the backend it closes: the worker
        loop, once ``BACKEND_FAILURE_THRESHOLD`` consecutive backend-
        level failures wore the backend out (the thread lives on), and
        the supervisor, once the worker thread died (*died* says how).
        A death costs one of the slot's ``max_slot_restarts``; past the
        budget, or once the service is closed, the slot is *abandoned*
        for the life of the service instead.  So is a slot whose new
        backend or thread cannot be built (a fork failing under the
        resource exhaustion that killed the slot, say), rather than
        lingering as a live slot that never runs anything.  Each step is
        a :class:`~repro.service.events.SlotRestartEvent` naming the
        request in flight; the request is then retried or finished with
        *error* whatever happened to the slot.  Once every slot is
        abandoned, queued requests fail with a ``SlotFailureError`` and
        new submissions are rejected with ``"no-slots"``.
        """

        def record(kind, message):
            self._slot_events.append(
                SlotRestartEvent(
                    slot=slot.index,
                    kind=kind,
                    restarts=slot.restarts,
                    message=message,
                    request_id=request.id if request is not None else None,
                )
            )
            self._counters["slot_restarts_total"] += 1

        with self._lock:
            if died is None:
                record(
                    "backend-replaced",
                    f"replaced backend after {BACKEND_FAILURE_THRESHOLD}"
                    f" consecutive backend failures",
                )
            elif self._closed or slot.restarts >= self._max_slot_restarts:
                slot.abandoned = True
                record("abandoned", died)
            else:
                slot.restarts += 1
                record("worker-death", died)
        if not slot.abandoned:
            # Outside the lock: building a backend can fork processes.
            try:
                slot.backend.close()
            except Exception:
                pass
            try:
                backend = resolve_backend(
                    self._backend_name, max_workers=self._max_workers
                )
                with self._lock:
                    slot.backend = backend
                    slot.backend_failures = 0
                if died is not None:
                    self._spawn_worker(slot)
            except Exception as failure:
                with self._lock:
                    slot.abandoned = True
                    record(
                        "abandoned",
                        f"respawn failed: {type(failure).__name__}: {failure}",
                    )
        if request is not None:
            self._route(slot, request, error=error, duration=duration)
        if slot.abandoned:
            self._fail_orphans()

    def _fail_orphans(self) -> None:
        """Wake the workers after a slot was abandoned, and fail every
        queued request once no live slot remains to run it (closing
        too: a slot that dies then is not respawned)."""
        with self._lock:
            self._work_ready.notify_all()
            if self._live_slots_locked():
                return
            orphans = list(self._queue)
            for request in orphans:
                self._finish_locked(
                    request,
                    error=SlotFailureError(-1, "no live slot is left"),
                )
        for request in orphans:
            _drop_flag(request)

    def inject_slot_failure(self, slot: int = 0) -> None:
        """Make *slot*'s worker die before executing its next request.

        A test/chaos hook: the death takes the real supervision path —
        the slot's thread raises out of its loop with the claimed
        request in flight, the slot is repaired under the restart
        budget, and the request is retried on the replacement.
        Repeated calls queue additional deaths, one per claimed request.
        Raises :class:`ValueError` for an unknown slot.
        """
        if not 0 <= slot < len(self._slots):
            raise ValueError(
                f"slot must be in [0, {len(self._slots)}), got {slot!r}"
            )
        with self._lock:
            self._kill_slots[slot] = self._kill_slots.get(slot, 0) + 1
            self._work_ready.notify_all()

    # -- statistics ------------------------------------------------------------

    def collection_stats(self, name: str):
        """The source's sampled stats for one collection (or None)."""
        stats = getattr(self._source, "collection_stats", None)
        return stats(name) if stats is not None else None

    def refresh_stats(self, name: str | None = None) -> None:
        """Drop sampled statistics so the next query re-samples.

        The snapshot fingerprint is part of the plan-cache key, so
        queries compiled after a refresh never reuse plans costed
        against the stale statistics.
        """
        refresh = getattr(self._source, "refresh_stats", None)
        if refresh is not None:
            refresh(name)

    # -- execution -------------------------------------------------------------

    def _execute_request(self, request: _Request, backend) -> ServiceResponse:
        started = time.perf_counter()
        if request.first_started_at is None:
            request.first_started_at = started
        # A retry executes with whatever remains of the *original*
        # deadline — a retried request never gets more wall time than
        # the client asked for.
        remaining_deadline = request.deadline
        if request.deadline is not None:
            elapsed = started - request.first_started_at
            remaining_deadline = max(request.deadline - elapsed, 0.001)
        queue_seconds = started - request.submitted_at
        compiled, plan_hit = self.plan_cache.get_or_compile(
            request.query,
            self._rewrite,
            stats=compile_stats(self._source, self._cost),
        )
        request.token.check()  # cancelled between dequeue and start
        result_key = cached = None
        # Profiled requests bypass the result cache: a cached response
        # cannot carry a fresh execution profile.
        if (
            self.result_cache is not None
            and resolve_profile_config(request.profile) is None
        ):
            # Every collection the plan reads is fingerprinted; a json-doc
            # read is not, so such a plan skips the cache.
            reads = read_set(compiled.plan.root)
            fingerprints = None if reads.documents else source_fingerprints(
                self._source, reads.collections, "content"
            )
            if fingerprints is not None:
                result_key = (
                    request.query,
                    self._rewrite,
                    getattr(self._source, "on_malformed", None),
                    fingerprints,
                )
                cached = self.result_cache.get(result_key)
        if cached is not None:
            # A hit replays what the cache kept (a copy of its items): no
            # profile, deadline slack or warnings, and never partial.
            result, fresh = cached, {"items": list(cached.items)}
        else:
            executor = PartitionedExecutor(
                self._source,
                two_step_aggregation=self._rewrite.two_step_aggregation,
                memory_budget_bytes=request.memory_budget,
                resilience=self._resilience,
                backend=backend,
                spill_dir=self._spill_dir,
                deadline_seconds=remaining_deadline,
            )
            # The executor borrows this slot's backend; never executor.close().
            result = executor.run(
                compiled.plan,
                profile=request.profile,
                cancellation=request.token,
            )
            if result.profile is not None:
                result.profile.rewrite = compiled.audit
            elif result_key is not None and not result.is_partial:
                self.result_cache.put(
                    result_key,
                    CachedResult(
                        items=list(result.items),
                        stats=result.stats,
                        degradation=result.degradation,
                        strategy=result.strategy,
                    ),
                )
            fresh = {
                "items": result.items,
                "profile": result.profile,
                "deadline_slack_seconds": result.deadline_slack_seconds,
                "is_partial": result.is_partial,
                "warnings": result.warnings,
            }
        return ServiceResponse(
            request_id=request.id,
            tenant=request.tenant,
            query=request.query,
            backend=backend.name,
            strategy=result.strategy,
            wall_seconds=time.perf_counter() - started,
            queue_seconds=queue_seconds,
            plan_cache_hit=plan_hit,
            result_cache_hit=cached is not None,
            degradation=result.degradation,
            stats=result.stats,
            retries=request.retries,
            retry_causes=list(request.retry_causes),
            **fresh,
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Service counters plus cache stats (deterministic key order)."""
        with self._lock:
            counters = dict(self._counters)
            counters["rejected_by_reason"] = dict(
                sorted(self._rejected_by_reason.items())
            )
            counters["queued"] = len(self._queue)
            counters["running"] = len(self._running)
            counters["slot_restarts"] = [
                event.to_dict() for event in self._slot_events
            ]
            counters["query_retries"] = [
                event.to_dict() for event in self._retry_events
            ]
            live = self._live_slots_locked()
            counters["slots"] = {
                "total": len(self._slots),
                "live": live,
                "abandoned": len(self._slots) - live,
            }
        counters["plan_cache"] = self.plan_cache.stats()
        counters["result_cache"] = (
            self.result_cache.stats() if self.result_cache is not None else None
        )
        return counters

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no queries are queued or running; True on success."""
        deadline = self._clock() + timeout if timeout is not None else None
        with self._idle:
            while self._queue or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    # -- lifecycle -------------------------------------------------------------

    def close(self, cancel_pending: bool = False) -> None:
        """Shut down: drain (or cancel) pending work, release backends.

        Idempotent.  New submissions are rejected with
        ``AdmissionError("closed", ...)`` as soon as close begins; with
        ``cancel_pending`` queued requests are cancelled and running
        queries are signalled instead of awaited.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._queue) if cancel_pending else []
            running = list(self._running) if cancel_pending else []
            self._work_ready.notify_all()
        for request in pending:
            self._cancel(request, "service shutting down")
        for request in running:
            request.token.cancel("service shutting down")
        self.drain()
        with self._lock:
            self._work_ready.notify_all()
        current = threading.current_thread()
        while True:
            # A dying worker may spawn its replacement while we join it
            # (supervision races close), so loop until every slot's
            # *current* thread is down.  Never join ourselves: close()
            # may legally run on a worker thread (a query calling close).
            alive = [
                slot.thread
                for slot in self._slots
                if slot.thread is not None
                and slot.thread is not current
                and slot.thread.is_alive()
            ]
            if not alive:
                break
            for thread in alive:
                thread.join()
        for slot in self._slots:
            try:
                slot.backend.close()
            except Exception:
                pass
        shutil.rmtree(self._flag_dir, ignore_errors=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
