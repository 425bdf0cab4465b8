"""Structured self-healing events for the query service.

Everything the :class:`~repro.service.QueryService` supervisor and
retry machinery does is recorded as one of these frozen dataclasses —
picklable, deterministic field order, with a ``to_dict`` for the
``stats()`` snapshot — so operators (and the chaos harness) can audit
every restart and retry instead of inferring them from logs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class SlotRestartEvent:
    """One supervisor action on a slot worker.

    ``kind`` says what happened:

    - ``"worker-death"`` — the slot's worker thread died (a crash in the
      service loop itself, or an injected slot death) and was replaced
      with a fresh thread and a fresh backend;
    - ``"backend-replaced"`` — the slot's backend accumulated
      ``BACKEND_FAILURE_THRESHOLD`` (3) consecutive backend-level failures
      and is swapped for a fresh instance (the thread lives on);
    - ``"abandoned"`` — the slot died with its restart budget already
      spent (or while the service closed), or, right after one of the
      two events above, its replacement backend or thread could not be
      built (``"respawn failed: ..."``); it stays down for the life of
      the service.

    ``restarts`` is the slot's lifetime restart count *after* this
    event; ``request_id`` is the request in flight when it happened
    (None when the slot died idle).
    """

    slot: int
    kind: str  # "worker-death" | "backend-replaced" | "abandoned"
    restarts: int
    message: str
    request_id: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QueryRetryEvent:
    """One query-level re-execution of a failed request.

    Queries are read-only, so a request that failed with a classified
    retryable error (see ``QueryService`` docs) is re-queued — at the
    front, preferring a different slot — with whatever remains of its
    original deadline.  ``attempt`` is 1 for the first retry.
    """

    request_id: int
    tenant: str
    attempt: int
    slot: int
    error: str
    message: str

    def to_dict(self) -> dict:
        return asdict(self)
