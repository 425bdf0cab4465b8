"""Admission for the query service: tenant quotas and the one ordered
check every submission passes.

Nothing here takes a lock or keeps state of its own.
:class:`~repro.service.QueryService` calls :func:`admit` under its lock
with the counts it holds, so the same inputs always give the same
verdict, and the checks can be driven without a thread or a service.

An over-quota submission is rejected synchronously with a structured
:class:`~repro.errors.AdmissionError`: it never enters the queue, so it
can neither crash nor starve the queries already admitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AdmissionError


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


def admit(
    tenant: str,
    quota: TenantQuota,
    memory_bytes: int | None,
    deadline_seconds: float | None,
    *,
    closed: bool,
    live_slots: int,
    in_flight: int,
    queued: int,
    running: int,
    max_queue_depth: int,
    durations,
) -> AdmissionError | None:
    """The first reason to reject a submission, or None to admit it.

    The checks run in this order: ``closed``, ``no-slots``,
    ``memory-quota``, ``deadline-quota``,
    ``tenant-quota`` (*in_flight* is the tenant's queued plus running
    requests), ``service-queue`` and ``predicted-timeout``.  The last
    sheds a submission whose predicted queue wait, the mean of the
    recent *durations* times the backlog (*queued* + *running*) over
    the live slots, already exceeds its deadline (or its tenant's
    ceiling).
    """

    def reject(reason, message, limit=None, requested=None):
        return AdmissionError(reason, tenant, message, limit, requested)

    if closed:
        return reject("closed", "service is closed")
    if not live_slots:
        return reject(
            "no-slots",
            "every slot worker exhausted its restart budget; "
            "no live slot can execute this query",
        )
    if (
        memory_bytes is not None
        and quota.memory_budget_bytes is not None
        and memory_bytes > quota.memory_budget_bytes
    ):
        return reject(
            "memory-quota",
            f"requested {memory_bytes} bytes exceeds the "
            f"tenant budget of {quota.memory_budget_bytes} bytes",
            limit=quota.memory_budget_bytes,
            requested=memory_bytes,
        )
    ceiling = quota.deadline_ceiling_seconds
    if (
        deadline_seconds is not None
        and ceiling is not None
        and deadline_seconds > ceiling
    ):
        return reject(
            "deadline-quota",
            f"requested {deadline_seconds:g}s deadline exceeds the "
            f"tenant ceiling of {ceiling:g}s",
            limit=ceiling,
            requested=deadline_seconds,
        )
    allowed = quota.max_concurrent + quota.max_queued
    if in_flight >= allowed:
        return reject(
            "tenant-quota",
            f"{in_flight} queries already in flight "
            f"(limit {quota.max_concurrent} running "
            f"+ {quota.max_queued} queued)",
            limit=allowed,
            requested=in_flight + 1,
        )
    if queued >= max_queue_depth:
        return reject(
            "service-queue",
            f"service admission queue is full ({max_queue_depth} waiting)",
            limit=max_queue_depth,
            requested=queued + 1,
        )
    deadline = deadline_seconds if deadline_seconds is not None else ceiling
    if deadline is not None and durations:
        mean = sum(durations) / len(durations)
        predicted = mean * (queued + running) / live_slots
        if predicted > deadline:
            return reject(
                "predicted-timeout",
                f"predicted queue wait {predicted:.3f}s already "
                f"exceeds the {deadline:g}s deadline",
                limit=deadline,
                requested=predicted,
            )
    return None
