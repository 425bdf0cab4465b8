"""Fault tolerance for partitioned execution.

The paper's engine queries *raw* JSON in situ — it meets dirty data and
flaky partitions at query time, not at load time.  This package gives
the reproduction a production posture for that reality:

- :mod:`~repro.resilience.faults` — a deterministic, seedable
  fault-injection layer (:class:`FaultPlan`) for testing it all;
- :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff on a simulated clock;
- :mod:`~repro.resilience.policies` — :class:`ResilienceConfig`
  (``fail_fast`` | ``retry`` | ``skip_partition``) and the scan-level
  ``on_malformed`` policies (``fail`` | ``skip_record`` | ``skip_file``);
- :mod:`~repro.resilience.report` — :class:`DegradationReport`, the
  record of everything a query survived, attached to every
  :class:`~repro.hyracks.executor.QueryResult`.

A five-line tour::

    plan = FaultPlan(seed=7).fail_partition(2, times=2)
    processor = JsonProcessor(
        source=plan.wrap(catalog),
        resilience=ResilienceConfig(partition_policy="retry"),
    )
    result = processor.execute(query)
    print(result.degradation.warnings)
"""

from repro.resilience.faults import (
    CorruptRecordError,
    FaultInjectingSource,
    FaultPlan,
    PermanentFaultError,
    TransientFaultError,
)
from repro.resilience.policies import (
    ON_MALFORMED_POLICIES,
    PARTITION_POLICIES,
    RecoveryPolicy,
    ResilienceConfig,
    validate_on_malformed,
)
from repro.resilience.report import (
    DegradationReport,
    LadderStep,
    RetryEvent,
    SkippedFile,
    SkippedPartition,
    SkippedRecord,
    WorkerLossEvent,
)
from repro.resilience.retry import RetryPolicy, stable_seed

__all__ = [
    "CorruptRecordError",
    "DegradationReport",
    "FaultInjectingSource",
    "FaultPlan",
    "LadderStep",
    "ON_MALFORMED_POLICIES",
    "PARTITION_POLICIES",
    "PermanentFaultError",
    "RecoveryPolicy",
    "ResilienceConfig",
    "RetryEvent",
    "RetryPolicy",
    "SkippedFile",
    "SkippedPartition",
    "SkippedRecord",
    "TransientFaultError",
    "WorkerLossEvent",
    "stable_seed",
    "validate_on_malformed",
]
