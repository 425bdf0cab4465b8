"""Error-handling policies for partitioned execution and raw scans.

Three independent knobs:

- the **partition policy** (:class:`ResilienceConfig`) decides what the
  executor does when a whole partition's work raises: run it again, up
  to ``max_attempts`` attempts in all, while the failure is retryable
  (:func:`~repro.errors.is_retryable`: it came from outside the query),
  then fail the query (``on_exhausted="fail"``, the default) or drop
  the partition from the result (``"skip"``);
- the **on-malformed policy** (a string on the data source) decides what
  a raw scan does with malformed JSON — raise (``fail``), resync past
  the broken record (``skip_record``), or drop the whole file
  (``skip_file``);
- the **recovery policy** (:class:`RecoveryPolicy`) decides when
  repeated *worker* loss steps the remaining units down the
  process→sequential degradation ladder (a crashed work unit is
  rescheduled until it has started
  :data:`~repro.hyracks.recovery.MAX_UNIT_ATTEMPTS` times).  It
  has no off switch: the recovery engine is the process backend's only
  dispatch loop.  A slow worker is waited for, never duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ON_MALFORMED_POLICIES = ("fail", "skip_record", "skip_file")
ON_EXHAUSTED_POLICIES = ("fail", "skip")


def validate_on_malformed(value: str) -> str:
    """Validate and return an ``on_malformed`` policy string."""
    if value not in ON_MALFORMED_POLICIES:
        raise ValueError(
            f"on_malformed must be one of {ON_MALFORMED_POLICIES}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class RecoveryPolicy:
    """Worker-loss recovery for the backends.

    Parameters
    ----------
    max_losses_per_tier:
        Pool losses tolerated before the process backend runs the
        remaining units sequentially (process→sequential).
    """

    max_losses_per_tier: int = 2

    def __post_init__(self):
        if self.max_losses_per_tier < 0:
            raise ValueError(
                f"max_losses_per_tier must be >= 0, "
                f"got {self.max_losses_per_tier!r}"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """Per-partition error handling for the partitioned executor.

    Parameters
    ----------
    max_attempts:
        Attempts a partition gets, the first included.  A failed
        attempt is followed by another only while the failure is
        retryable (:func:`~repro.errors.is_retryable`); the default of 1
        never runs a partition twice.
    on_exhausted:
        What happens to a partition whose last attempt failed: ``fail``
        raises a :class:`~repro.errors.PartitionExecutionError`, ``skip``
        drops the partition and records it in the degradation report.
    recovery:
        The :class:`RecoveryPolicy` governing worker-loss recovery
        and the degradation ladder.
    """

    max_attempts: int = 1
    on_exhausted: str = "fail"
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts!r}"
            )
        if self.on_exhausted not in ON_EXHAUSTED_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {ON_EXHAUSTED_POLICIES}, "
                f"got {self.on_exhausted!r}"
            )
