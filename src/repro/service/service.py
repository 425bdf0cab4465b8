"""A long-lived, multi-tenant query service over the partitioned engine.

Everything below this module is one-shot: a
:class:`~repro.JsonProcessor` compiles and runs a single query and its
executor carries per-query mutable state.  :class:`QueryService` is the
long-lived counterpart — the shape of a VXQuery/Hyracks cluster
controller fielding many concurrent queries:

- **long-lived catalogs**: one shared data source; per-query scan
  state (degradation reports, scan counters) is thread-local on the
  catalog, so concurrent query threads never see each other's events;
- **a shared backend pool**: one
  :class:`~repro.hyracks.backends.ExecutionBackend` per concurrency
  slot, owned by that slot's worker thread.  Pools of forked
  processes persist across queries, so fork/spawn cost is paid once —
  but no backend instance is ever shared by two in-flight queries,
  because backends carry per-run recovery/pool state;
- **admission control**: a bounded queue with per-tenant
  :class:`TenantQuota` limits (max concurrent queries, queue depth,
  memory budget, deadline ceiling).  Over-quota submissions are
  rejected synchronously with a structured
  :class:`~repro.errors.AdmissionError` — they never enter the queue,
  so they cannot crash or starve admitted queries;
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
  :mod:`repro.service.result_cache`.  The service defaults both the
  result cache and any segment cache it configures to ``content``
  fingerprints: a long-lived server must not serve stale bytes through
  the ``stat`` fingerprint's same-size rewrite window.

Every completed query returns a :class:`ServiceResponse` carrying the
result items plus the per-request telemetry the observability layers
already produce: the
:class:`~repro.observability.profile.QueryProfile` (when profiling)
and the :class:`~repro.resilience.report.DegradationReport`.

**Self-healing.**  The service supervises itself one layer above the
per-query resilience machinery:

- **slot supervision**: each slot's worker thread runs under a
  supervisor; if the thread dies (a crash in the service loop, or an
  injected death via :meth:`QueryService.inject_slot_failure`), the
  supervisor replaces both the thread and the slot's backend under a
  bounded restart budget (``max_slot_restarts``), recording a
  structured :class:`~repro.service.events.SlotRestartEvent` in
  ``stats()`` (the most recent events; ``slot_restarts_total`` counts
  them all).  A slot whose budget is spent is *abandoned*; when every
  slot is abandoned, queued requests fail cleanly and new submissions
  are rejected with ``AdmissionError("no-slots", ...)``.  A slot whose
  backend keeps failing (``backend_failure_threshold`` consecutive
  backend-level errors) gets a fresh backend in place;
- **query-level retry**: queries are read-only, so a request that
  fails with a classified-retryable error — a dead slot
  (:class:`~repro.errors.SlotFailureError`), exhausted worker recovery
  (:class:`~repro.errors.RecoveryExhaustedError`), or transient
  spill/cache I/O (anything in the ``__cause__`` chain with
  ``retryable = True``, never a timeout or cancellation) — is re-queued
  at the front, preferring a different slot, up to
  ``max_query_retries`` times, with whatever remains of its *original*
  deadline and the same cancellation token.  Retry provenance rides on
  the response (``retries`` / ``retry_causes``) and in ``stats()``
  (the most recent events; ``retried`` counts them all);
- **overload protection**: a submission whose predicted queue wait
  (mean recent query duration × backlog ÷ live slots, measured on the
  injectable clock from the ``CLOCKS`` registry) already exceeds its
  deadline is shed at admission (``"predicted-timeout"``), and an
  optional per-tenant circuit breaker (``circuit_failure_threshold``)
  opens after N consecutive failures, admitting one probe per
  ``circuit_cooldown_seconds`` until a success closes it
  (``"circuit-open"`` while open).
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
from repro.cache.config import resolve_fingerprint_mode
from repro.compiler.pipeline import (
    PLAN_CACHE_CAPACITY,
    PlanCache,
    compile_stats,
    cost_enabled,
)
from repro.errors import (
    AdmissionError,
    BackendError,
    ProcessorClosedError,
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
from repro.service.events import QueryRetryEvent, SlotRestartEvent
from repro.service.result_cache import (
    CachedResult,
    ResultCache,
    source_fingerprints,
)

#: Slot and retry events kept for ``stats()``: the most recent ones.  A
#: long-lived service under chaos must not grow with its history.
_EVENT_HISTORY = 256


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


def _drop_flag(request) -> None:
    """Remove a finished request's cancellation flag file, if any."""
    try:
        os.unlink(request.token.flag_path)
    except OSError:
        pass


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``max_concurrent`` queries may execute at once and ``max_queued``
    more may wait; a submission beyond ``max_concurrent + max_queued``
    in flight is rejected.  ``memory_budget_bytes`` is both the cap on
    what a request may ask for and the default budget when it asks for
    nothing; ``deadline_ceiling_seconds`` likewise caps and defaults
    the per-query deadline.  ``None`` means unlimited.
    """

    max_concurrent: int = 2
    max_queued: int = 8
    memory_budget_bytes: int | None = None
    deadline_ceiling_seconds: float | None = None

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent!r}"
            )
        if self.max_queued < 0:
            raise ValueError(
                f"max_queued must be >= 0, got {self.max_queued!r}"
            )
        if (
            self.deadline_ceiling_seconds is not None
            and self.deadline_ceiling_seconds <= 0
        ):
            raise ValueError("deadline_ceiling_seconds must be positive")


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
        self.state = "queued"
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


class _Breaker:
    """Per-tenant circuit-breaker state (all transitions service-side)."""

    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self):
        self.state = "closed"  # "closed" | "open" | "half-open"
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


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
        rules).  Part of the plan-cache key.
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
        result caching.
    cache_fingerprint:
        Fingerprint mode for the result cache and any segment cache
        this service configures; defaults to ``"content"`` (a
        long-lived server must detect same-size in-place rewrites).
    segment_cache_dir:
        When given, (re)configures the source's segment cache under
        ``cache_fingerprint``.
    memory_budget_bytes / spill / spill_dir / resilience:
        Per-query execution defaults, as on
        :class:`~repro.JsonProcessor`.
    max_query_retries:
        Bounded re-executions of a request after a classified-retryable
        failure (default 1; 0 disables query-level retry).
    max_slot_restarts:
        Per-slot supervisor restart budget (default 3); a slot that
        dies beyond it is abandoned for the life of the service.
    backend_failure_threshold:
        Consecutive backend-level failures on one slot before its
        backend is replaced in place (default 3).
    clock:
        Name from the injectable ``CLOCKS`` registry (default
        ``"wall"``) used for load-shedding duration estimates,
        circuit-breaker cooldowns and :meth:`drain` timeouts — register
        a scripted clock to make them deterministic in tests.
    circuit_failure_threshold / circuit_cooldown_seconds:
        Per-tenant circuit breaker: after *threshold* consecutive
        failures the tenant's submissions are rejected with
        ``AdmissionError("circuit-open", ...)`` until the cooldown
        admits a half-open probe (default ``None`` = breaker off).
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
        cache_fingerprint: str = "content",
        segment_cache_dir: str | None = None,
        memory_budget_bytes: int | None = None,
        spill: bool = True,
        spill_dir: str | None = None,
        resilience: ResilienceConfig | None = None,
        functions=None,
        cost: bool | None = None,
        max_query_retries: int = 1,
        max_slot_restarts: int = 3,
        backend_failure_threshold: int = 3,
        clock: str = "wall",
        circuit_failure_threshold: int | None = None,
        circuit_cooldown_seconds: float = 30.0,
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
        if backend_failure_threshold < 1:
            raise ValueError(
                f"backend_failure_threshold must be >= 1, "
                f"got {backend_failure_threshold!r}"
            )
        if clock not in CLOCKS:
            raise ValueError(
                f"unknown service clock {clock!r}; "
                f"expected one of {sorted(CLOCKS)}"
            )
        if (
            circuit_failure_threshold is not None
            and circuit_failure_threshold < 1
        ):
            raise ValueError(
                f"circuit_failure_threshold must be >= 1 or None, "
                f"got {circuit_failure_threshold!r}"
            )
        if circuit_cooldown_seconds < 0:
            raise ValueError(
                f"circuit_cooldown_seconds must be >= 0, "
                f"got {circuit_cooldown_seconds!r}"
            )
        self._source = source
        self._rewrite = rewrite if rewrite is not None else RewriteConfig.all()
        self._cost = cost_enabled(self._rewrite, cost)
        self._functions = functions
        self._resilience = resilience
        self._memory_budget = memory_budget_bytes
        self._spill = spill
        self._spill_dir = spill_dir
        self._max_workers = max_workers
        self._fingerprint_mode = resolve_fingerprint_mode(cache_fingerprint)
        if segment_cache_dir is not None:
            configure = getattr(source, "configure_scan", None)
            if configure is not None:
                configure(
                    segment_cache_dir=segment_cache_dir,
                    fingerprint_mode=self._fingerprint_mode,
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
        self._queue: list[_Request] = []
        self._running: dict[str, int] = {}
        self._queued: dict[str, int] = {}
        self._running_requests: list[_Request] = []
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
        self._backend_failure_threshold = backend_failure_threshold
        self._clock_name = clock
        self._clock = make_clock(clock)
        self._circuit_threshold = circuit_failure_threshold
        self._circuit_cooldown = circuit_cooldown_seconds
        self._breakers: dict[str, _Breaker] = {}
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

    def _reject(self, reason, tenant, message, limit=None, requested=None):
        self._counters["rejected"] += 1
        self._rejected_by_reason[reason] = (
            self._rejected_by_reason.get(reason, 0) + 1
        )
        raise AdmissionError(reason, tenant, message, limit, requested)

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
        rejected with the same reason, because every check runs under
        the service lock against exact queued/running counts.
        """
        quota = self._quota(tenant)
        with self._lock:
            if self._closed:
                self._reject("closed", tenant, "service is closed")
            if all(slot.abandoned for slot in self._slots):
                self._reject(
                    "no-slots",
                    tenant,
                    "every slot worker exhausted its restart budget; "
                    "no live slot can execute this query",
                )
            self._check_breaker(tenant)
            if (
                memory_budget_bytes is not None
                and quota.memory_budget_bytes is not None
                and memory_budget_bytes > quota.memory_budget_bytes
            ):
                self._reject(
                    "memory-quota",
                    tenant,
                    f"requested {memory_budget_bytes} bytes exceeds the "
                    f"tenant budget of {quota.memory_budget_bytes} bytes",
                    limit=quota.memory_budget_bytes,
                    requested=memory_budget_bytes,
                )
            if (
                deadline_seconds is not None
                and quota.deadline_ceiling_seconds is not None
                and deadline_seconds > quota.deadline_ceiling_seconds
            ):
                self._reject(
                    "deadline-quota",
                    tenant,
                    f"requested {deadline_seconds:g}s deadline exceeds the "
                    f"tenant ceiling of {quota.deadline_ceiling_seconds:g}s",
                    limit=quota.deadline_ceiling_seconds,
                    requested=deadline_seconds,
                )
            in_flight = self._running.get(tenant, 0) + self._queued.get(
                tenant, 0
            )
            allowed = quota.max_concurrent + quota.max_queued
            if in_flight >= allowed:
                self._reject(
                    "tenant-quota",
                    tenant,
                    f"{in_flight} queries already in flight "
                    f"(limit {quota.max_concurrent} running "
                    f"+ {quota.max_queued} queued)",
                    limit=allowed,
                    requested=in_flight + 1,
                )
            if len(self._queue) >= self._max_queue_depth:
                self._reject(
                    "service-queue",
                    tenant,
                    f"service admission queue is full "
                    f"({self._max_queue_depth} waiting)",
                    limit=self._max_queue_depth,
                    requested=len(self._queue) + 1,
                )
            effective_deadline = (
                deadline_seconds
                if deadline_seconds is not None
                else quota.deadline_ceiling_seconds
            )
            if effective_deadline is not None and self._recent_durations:
                predicted = self._predicted_wait_locked()
                if predicted > effective_deadline:
                    self._reject(
                        "predicted-timeout",
                        tenant,
                        f"predicted queue wait {predicted:.3f}s already "
                        f"exceeds the {effective_deadline:g}s deadline",
                        limit=effective_deadline,
                        requested=predicted,
                    )
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
            # Every admission check has passed and the request is about
            # to enqueue: only now claim the half-open probe, so a
            # rejection above can never leak it and lock the tenant out.
            self._grant_probe_locked(tenant)
            self._queue.append(request)
            self._queued[tenant] = self._queued.get(tenant, 0) + 1
            self._counters["submitted"] += 1
            self._work_ready.notify()
        return QueryTicket(self, request)

    def execute(self, query: str, tenant: str = "default", **kwargs):
        """Submit and block for the response (one-shot convenience)."""
        return self.submit(query, tenant=tenant, **kwargs).result()

    # -- overload protection ---------------------------------------------------

    def _live_slot_count_locked(self) -> int:
        return sum(1 for slot in self._slots if not slot.abandoned)

    def _predicted_wait_locked(self) -> float:
        """Predicted queue wait for a new submission (service lock held).

        Mean of the last few completed-query durations (measured on the
        injectable service clock) × current backlog ÷ live slots — a
        deterministic estimate under a scripted clock, because every
        input is service-side state.
        """
        if not self._recent_durations:
            return 0.0
        mean = sum(self._recent_durations) / len(self._recent_durations)
        backlog = len(self._queue) + sum(self._running.values())
        return mean * backlog / max(1, self._live_slot_count_locked())

    def _check_breaker(self, tenant: str) -> None:
        """Reject (under the lock) when the tenant's breaker is open.

        Pure check: it transitions open → half-open once the cooldown
        elapses but never claims the half-open probe itself — the probe
        is granted by :meth:`_grant_probe_locked` as the *last*
        admission step, so a submission that passes here but is
        rejected by a later check (quota, queue depth, predicted
        timeout) cannot strand the breaker with a phantom probe that
        locks the tenant out forever.
        """
        if self._circuit_threshold is None:
            return
        breaker = self._breakers.get(tenant)
        if breaker is None or breaker.state == "closed":
            return
        if breaker.state == "open":
            if self._clock() - breaker.opened_at >= self._circuit_cooldown:
                breaker.state = "half-open"
                breaker.probing = False
        if breaker.state == "half-open" and not breaker.probing:
            return
        self._reject(
            "circuit-open",
            tenant,
            f"circuit breaker open after {breaker.failures} consecutive "
            f"failures (cooldown {self._circuit_cooldown:g}s"
            + (", probe in flight)" if breaker.probing else ")"),
            limit=self._circuit_threshold,
            requested=breaker.failures,
        )

    def _grant_probe_locked(self, tenant: str) -> None:
        """Claim the half-open probe for a submission that will enqueue."""
        if self._circuit_threshold is None:
            return
        breaker = self._breakers.get(tenant)
        if breaker is not None and breaker.state == "half-open":
            breaker.probing = True  # admit exactly one probe

    def _breaker_result_locked(self, tenant: str, error) -> None:
        """Feed one final request outcome into the tenant's breaker."""
        if self._circuit_threshold is None:
            return
        breaker = self._breakers.setdefault(tenant, _Breaker())
        if error is None or isinstance(error, QueryCancelledError):
            # A cancel is a client verdict, not a service failure.
            if error is None:
                breaker.state = "closed"
                breaker.failures = 0
            breaker.probing = False
            return
        breaker.failures += 1
        breaker.probing = False
        if (
            breaker.state in ("open", "half-open")
            or breaker.failures >= self._circuit_threshold
        ):
            breaker.state = "open"
            breaker.opened_at = self._clock()

    # -- scheduling ------------------------------------------------------------

    def _next_request(self, slot: _Slot) -> _Request | None:
        """Claim the next runnable request (None = service shut down).

        FIFO over the admission queue, skipping requests whose tenant
        is at its concurrency limit — a backlogged tenant never blocks
        another tenant's work — and requests that just failed on *this*
        slot (honored only while another live slot could take them).
        """
        with self._work_ready:
            while True:
                for index, request in enumerate(self._queue):
                    if (
                        request.avoid_slot == slot.index
                        and self._live_slot_count_locked() > 1
                    ):
                        continue
                    quota = self._quota(request.tenant)
                    if (
                        self._running.get(request.tenant, 0)
                        < quota.max_concurrent
                    ):
                        del self._queue[index]
                        self._queued[request.tenant] -= 1
                        self._running[request.tenant] = (
                            self._running.get(request.tenant, 0) + 1
                        )
                        self._running_requests.append(request)
                        request.state = "running"
                        return request
                if self._closed:
                    return None
                self._work_ready.wait()

    def _worker_main(self, slot: _Slot) -> None:
        """Thread target: the worker loop under slot supervision.

        Anything that escapes the loop — a crash in the scheduling
        machinery or an injected slot death — is a *slot* failure, not
        a query failure: the supervisor replaces the slot (under its
        restart budget) and routes the in-flight request, if any, into
        query-level retry on the replacement.
        """
        try:
            self._worker_loop(slot)
        except BaseException as error:  # noqa: BLE001 - supervised
            self._supervise_slot_death(slot, error)

    def _worker_loop(self, slot: _Slot) -> None:
        while True:
            request = self._next_request(slot)
            if request is None:
                return
            slot.current = request
            with self._lock:
                pending = self._kill_slots.get(slot.index, 0)
                if pending == 1:
                    del self._kill_slots[slot.index]
                elif pending:
                    self._kill_slots[slot.index] = pending - 1
            if pending:
                # Escapes to _worker_main with slot.current still set,
                # exactly like a genuine crash between claim and finish.
                raise SlotFailureError(slot.index, "injected slot death")
            started_clock = self._clock()
            try:
                response = self._execute_request(request, slot.backend)
            except BaseException as error:  # noqa: BLE001 - routed to ticket
                slot.current = None
                self._complete_request(
                    slot,
                    request,
                    error=error,
                    duration=self._clock() - started_clock,
                )
            else:
                slot.current = None
                self._complete_request(
                    slot,
                    request,
                    response=response,
                    duration=self._clock() - started_clock,
                )

    def _record_slot_event(self, event: SlotRestartEvent) -> None:
        """Log one slot event and count it; the caller holds the lock."""
        self._slot_events.append(event)
        self._counters["slot_restarts_total"] += 1

    def _supervise_slot_death(self, slot: _Slot, error: BaseException) -> None:
        """Replace a dead slot worker (bounded) and rescue its request."""
        request = slot.current
        slot.current = None
        detail = f"{type(error).__name__}: {error}"
        old_backend = slot.backend
        with self._lock:
            respawn = not self._closed and slot.restarts < self._max_slot_restarts
            if respawn:
                slot.restarts += 1
                kind = "worker-death"
            else:
                slot.abandoned = True
                kind = "abandoned"
            self._record_slot_event(
                SlotRestartEvent(
                    slot=slot.index,
                    kind=kind,
                    restarts=slot.restarts,
                    message=detail,
                    request_id=request.id if request is not None else None,
                )
            )
        if respawn:
            # Fresh backend first (the old one may be wedged), then a
            # fresh thread; both outside the lock — backend construction
            # can fork processes.  The respawn itself is supervised: if
            # the new backend or thread cannot be built (e.g. fork
            # failure under the same resource exhaustion that killed the
            # slot), the slot is marked abandoned instead of lingering
            # as a phantom "live" slot that will never run anything.
            try:
                old_backend.close()
            except Exception:
                pass
            try:
                new_backend = resolve_backend(
                    self._backend_name, max_workers=self._max_workers
                )
                with self._lock:
                    slot.backend = new_backend
                    slot.backend_failures = 0
                self._spawn_worker(slot)
            except Exception as spawn_error:
                respawn = False
                with self._lock:
                    slot.abandoned = True
                    self._record_slot_event(
                        SlotRestartEvent(
                            slot=slot.index,
                            kind="abandoned",
                            restarts=slot.restarts,
                            message=(
                                f"respawn failed: "
                                f"{type(spawn_error).__name__}: "
                                f"{spawn_error}"
                            ),
                            request_id=(
                                request.id if request is not None else None
                            ),
                        )
                    )
                    self._work_ready.notify_all()
        if request is not None:
            failure = SlotFailureError(slot.index, detail)
            if isinstance(error, Exception):
                failure.__cause__ = error
            # note_backend=False: the replacement worker already owns
            # slot.backend (or the slot is abandoned) — see
            # _complete_request.
            self._complete_request(
                slot, request, error=failure, note_backend=False
            )
        if not respawn:
            self._fail_orphans()

    def _fail_orphans(self) -> None:
        """Fail every queued request once no live slot remains to run it."""
        with self._lock:
            if self._closed or any(not s.abandoned for s in self._slots):
                return
            orphans = list(self._queue)
            for request in orphans:
                self._finish_locked(
                    request,
                    error=SlotFailureError(
                        -1, "every slot worker exhausted its restart budget"
                    ),
                )
        for request in orphans:
            _drop_flag(request)

    def inject_slot_failure(self, slot: int = 0) -> None:
        """Make *slot*'s worker die before executing its next request.

        A test/chaos hook: the death takes the real supervision path —
        the slot's thread raises out of its loop with the claimed
        request in flight, the supervisor replaces thread and backend
        under the restart budget, and the request is retried on the
        replacement.  Repeated calls queue additional deaths, one per
        claimed request.  Raises :class:`ValueError` for an unknown
        slot.
        """
        if not 0 <= slot < len(self._slots):
            raise ValueError(
                f"slot must be in [0, {len(self._slots)}), got {slot!r}"
            )
        with self._lock:
            self._kill_slots[slot] = self._kill_slots.get(slot, 0) + 1
            self._work_ready.notify_all()

    # -- retry -----------------------------------------------------------------

    def _complete_request(
        self, slot: _Slot, request: _Request, response=None, error=None,
        duration=None, note_backend=True,
    ) -> None:
        """Route one execution outcome: retry, backend health, or finish.

        ``note_backend=False`` skips the backend-health bookkeeping —
        used by the slot supervisor, which runs on the *dying* worker
        thread after the replacement worker already owns (and may be
        executing on) ``slot.backend``; touching the backend there
        would race the new worker, and the supervisor already swapped
        in a fresh backend anyway.
        """
        if note_backend:
            self._note_backend_result(slot, error)
        if error is not None and self._maybe_retry(slot, request, error):
            return
        self._finish(request, response=response, error=error, duration=duration)

    def _note_backend_result(self, slot: _Slot, error) -> None:
        """Track consecutive backend failures; replace a broken backend.

        Only ever called on the slot's *owning* worker thread with no
        query in flight, so no other thread executes on this backend
        concurrently; the counter and the swap still happen under the
        service lock so supervision and ``stats()`` readers observe a
        consistent slot.
        """
        is_backend_error = any(
            isinstance(current, (BackendError, SlotFailureError))
            for current in causes(error)
        )
        with self._lock:
            if not is_backend_error:
                slot.backend_failures = 0
                return
            slot.backend_failures += 1
            if slot.backend_failures < self._backend_failure_threshold:
                return
            old_backend = slot.backend
        # Close and rebuild outside the lock — backend construction can
        # fork processes; the owning thread is the only user meanwhile.
        try:
            old_backend.close()
        except Exception:
            pass
        new_backend = resolve_backend(
            self._backend_name, max_workers=self._max_workers
        )
        with self._lock:
            slot.backend = new_backend
            slot.backend_failures = 0
            self._record_slot_event(
                SlotRestartEvent(
                    slot=slot.index,
                    kind="backend-replaced",
                    restarts=slot.restarts,
                    message=(
                        f"replaced backend after "
                        f"{self._backend_failure_threshold} consecutive "
                        f"backend failures"
                    ),
                )
            )

    def _maybe_retry(self, slot: _Slot, request: _Request, error) -> bool:
        """Re-queue a retryable failure (front of queue, other slot first)."""
        if self._max_query_retries <= 0:
            return False
        if request.retries >= self._max_query_retries:
            return False
        if not _is_query_retryable(error):
            return False
        if request.token.cancelled:
            return False
        if (
            request.deadline is not None
            and request.first_started_at is not None
            and time.perf_counter() - request.first_started_at
            >= request.deadline
        ):
            return False
        with self._lock:
            if self._closed:
                return False
            if all(s.abandoned for s in self._slots):
                return False
            request.retries += 1
            cause = f"{type(error).__name__}: {error}"
            request.retry_causes.append(cause)
            request.avoid_slot = slot.index
            if request.state == "running":
                self._running[request.tenant] -= 1
                self._running_requests.remove(request)
            request.state = "queued"
            self._queue.insert(0, request)
            self._queued[request.tenant] = (
                self._queued.get(request.tenant, 0) + 1
            )
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
        return True

    def _finish(
        self, request: _Request, response=None, error=None, duration=None
    ) -> None:
        with self._lock:
            self._finish_locked(request, response, error, duration)
        _drop_flag(request)

    def _finish_locked(
        self, request: _Request, response=None, error=None, duration=None
    ) -> None:
        """A request's one terminal transition, from queued or running:
        free its place, feed the breaker, count the outcome and wake the
        ticket.  The caller holds the lock and drops the flag file."""
        request.response = response
        request.error = error
        if request.state == "queued":
            self._queue.remove(request)
            self._queued[request.tenant] -= 1
        elif request.state == "running":
            self._running[request.tenant] -= 1
            self._running_requests.remove(request)
        request.state = "done"
        if duration is not None:
            self._recent_durations.append(duration)
        self._breaker_result_locked(request.tenant, error)
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
        result_key = None
        # Profiled requests bypass the result cache: a cached response
        # cannot carry a fresh execution profile.
        if (
            self.result_cache is not None
            and resolve_profile_config(request.profile) is None
        ):
            # Every collection the plan reads is fingerprinted; a json-doc
            # read is not, so such a plan skips the cache.
            reads = read_set(compiled.plan.root)
            fingerprints = (
                None
                if reads.documents
                else source_fingerprints(
                    self._source, reads.collections, self._fingerprint_mode
                )
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
                    return ServiceResponse(
                        request_id=request.id,
                        tenant=request.tenant,
                        query=request.query,
                        items=list(cached.items),
                        backend=backend.name,
                        strategy=cached.strategy,
                        wall_seconds=time.perf_counter() - started,
                        queue_seconds=queue_seconds,
                        plan_cache_hit=plan_hit,
                        result_cache_hit=True,
                        degradation=cached.degradation,
                        stats=cached.stats,
                        retries=request.retries,
                        retry_causes=list(request.retry_causes),
                    )
        executor = PartitionedExecutor(
            self._source,
            functions=self._functions,
            two_step_aggregation=self._rewrite.two_step_aggregation,
            memory_budget_bytes=request.memory_budget,
            resilience=self._resilience,
            backend=backend,
            spill=self._spill,
            spill_dir=self._spill_dir,
            deadline_seconds=remaining_deadline,
        )
        # The executor borrows this slot's backend; never executor.close().
        result = executor.run(
            compiled.plan, profile=request.profile, cancellation=request.token
        )
        if result.profile is not None:
            result.profile.rewrite = compiled.audit
        if (
            result_key is not None
            and result.profile is None
            and not result.is_partial
        ):
            self.result_cache.put(
                result_key,
                CachedResult(
                    items=list(result.items),
                    stats=result.stats,
                    degradation=result.degradation,
                    strategy=result.strategy,
                ),
            )
        return ServiceResponse(
            request_id=request.id,
            tenant=request.tenant,
            query=request.query,
            items=result.items,
            backend=result.backend,
            strategy=result.strategy,
            wall_seconds=time.perf_counter() - started,
            queue_seconds=queue_seconds,
            plan_cache_hit=plan_hit,
            result_cache_hit=False,
            profile=result.profile,
            degradation=result.degradation,
            stats=result.stats,
            deadline_slack_seconds=result.deadline_slack_seconds,
            is_partial=result.is_partial,
            warnings=result.warnings,
            retries=request.retries,
            retry_causes=list(request.retry_causes),
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
            counters["running"] = sum(self._running.values())
            counters["slot_restarts"] = [
                event.to_dict() for event in self._slot_events
            ]
            counters["query_retries"] = [
                event.to_dict() for event in self._retry_events
            ]
            live = self._live_slot_count_locked()
            counters["slots"] = {
                "total": len(self._slots),
                "live": live,
                "abandoned": len(self._slots) - live,
            }
            counters["circuit_breakers"] = {
                tenant: {
                    "state": breaker.state,
                    "consecutive_failures": breaker.failures,
                }
                for tenant, breaker in sorted(self._breakers.items())
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
            while self._queue or any(self._running.values()):
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
            running = list(self._running_requests) if cancel_pending else []
            self._work_ready.notify_all()
        if cancel_pending:
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
