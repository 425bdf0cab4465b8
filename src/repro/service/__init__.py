"""Long-lived multi-tenant query service (see :mod:`.service`)."""

from repro.compiler.pipeline import PlanCache
from repro.errors import AdmissionError, SlotFailureError
from repro.service.admission import TenantQuota
from repro.service.events import QueryRetryEvent, SlotRestartEvent
from repro.service.result_cache import (
    CachedResult,
    ResultCache,
    source_fingerprints,
)
from repro.service.service import QueryService, QueryTicket, ServiceResponse

__all__ = [
    "AdmissionError",
    "CachedResult",
    "PlanCache",
    "QueryRetryEvent",
    "QueryService",
    "QueryTicket",
    "ResultCache",
    "ServiceResponse",
    "SlotFailureError",
    "SlotRestartEvent",
    "TenantQuota",
    "source_fingerprints",
]
