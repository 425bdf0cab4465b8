"""repro — a parallel and scalable processor for JSON data.

A from-scratch Python reproduction of the EDBT 2018 paper *"A Parallel
and Scalable Processor for JSON Data"* (Pavlopoulou, Carman, Westmann,
Carey, Tsotras): the Apache VXQuery JSONiq extension, including

- a streaming JSON substrate with a path-projecting parser
  (:mod:`repro.jsonlib`),
- a JSONiq-subset frontend (:mod:`repro.jsoniq`),
- an Algebricks-style algebra with the paper's path-expression,
  pipelining, and group-by rewrite-rule families
  (:mod:`repro.algebra`),
- a Hyracks-style partitioned runtime with a simulated cluster
  (:mod:`repro.hyracks`),
- simulated comparison systems — document store, in-memory SQL engine,
  ADM engine (:mod:`repro.baselines`),
- a synthetic NOAA-like dataset generator (:mod:`repro.data`), and
- the benchmark harness regenerating the paper's tables and figures
  (:mod:`repro.bench`).

Quickstart::

    from repro import JsonProcessor

    processor = JsonProcessor.from_directory("/data")
    print(processor.evaluate('count(for $r in '
                             'collection("/sensors")("root")()("results")() '
                             'return $r)'))
"""

from repro.algebra.rules import RewriteConfig
from repro.cache import SCAN_MODES, SegmentCache, resolve_scan_mode
from repro.compiler.pipeline import CompiledQuery, compile_query
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.data.generator import SensorDataConfig, write_sensor_collection
from repro.errors import (
    AdmissionError,
    BackendError,
    ProcessorClosedError,
    QueryCancelledError,
    QueryTimeoutError,
    RecoveryExhaustedError,
    ReproError,
    SlotFailureError,
    SpillError,
    WorkerCrashError,
)
from repro.hyracks.backends import (
    ProcessBackend,
    SequentialBackend,
)
from repro.hyracks.cluster import ClusterSpec
from repro.hyracks.limits import CancellationToken, QueryDeadline
from repro.hyracks.executor import QueryResult
from repro.observability import (
    OperatorProfile,
    ProfileConfig,
    QueryProfile,
    RewriteAudit,
)
from repro.processor import JsonProcessor
from repro.resilience import (
    DegradationReport,
    FaultPlan,
    RecoveryPolicy,
    ResilienceConfig,
)
from repro.service import (
    QueryRetryEvent,
    QueryService,
    QueryTicket,
    ServiceResponse,
    SlotRestartEvent,
    TenantQuota,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "BackendError",
    "CancellationToken",
    "ClusterSpec",
    "CollectionCatalog",
    "CompiledQuery",
    "DegradationReport",
    "FaultPlan",
    "InMemorySource",
    "JsonProcessor",
    "OperatorProfile",
    "ProcessBackend",
    "ProcessorClosedError",
    "ProfileConfig",
    "QueryCancelledError",
    "QueryDeadline",
    "QueryProfile",
    "QueryResult",
    "QueryRetryEvent",
    "QueryService",
    "QueryTicket",
    "QueryTimeoutError",
    "RecoveryExhaustedError",
    "RecoveryPolicy",
    "ReproError",
    "ResilienceConfig",
    "RewriteAudit",
    "RewriteConfig",
    "SCAN_MODES",
    "SegmentCache",
    "SensorDataConfig",
    "SequentialBackend",
    "ServiceResponse",
    "SlotFailureError",
    "SlotRestartEvent",
    "SpillError",
    "TenantQuota",
    "resolve_scan_mode",
    "WorkerCrashError",
    "compile_query",
    "write_sensor_collection",
    "__version__",
]
