"""Retry policy with deterministic exponential backoff.

Backoff is charged to the **simulated clock** — the executor adds it to
a partition's injected seconds so :meth:`ClusterSpec.makespan
<repro.hyracks.cluster.ClusterSpec.makespan>` accounts for retry time —
and never slept for real.  Jitter comes from a seeded RNG keyed on
``(seed, attempt)`` so two runs of the same faulty scenario charge
byte-identical backoff.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass


def stable_seed(*parts) -> int:
    """A process-stable integer seed from arbitrary printable parts.

    Python's ``hash()`` of strings is randomized per process, so every
    seeded decision in this package derives from CRC32 instead.
    """
    return zlib.crc32(":".join(str(part) for part in parts).encode("utf-8"))


#: Simulated backoff before the first retry, in seconds.
BASE_BACKOFF_SECONDS = 0.05
#: Growth of the backoff from one retry to the next.
BACKOFF_MULTIPLIER = 2.0
#: Largest fraction by which the seeded jitter inflates a backoff.
JITTER = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) a failed partition is re-executed.

    ``max_attempts`` counts the first try: the default of 3 means one
    initial attempt plus up to two retries.  The backoff before retry
    *n* is ``BASE_BACKOFF_SECONDS * BACKOFF_MULTIPLIER**(n - 1)``,
    inflated by a jitter of up to ``JITTER`` (a fraction) drawn from
    ``seed``.
    """

    max_attempts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def backoff_seconds(self, attempt: int) -> float:
        """Simulated backoff charged before retrying after failure *attempt*."""
        base = BASE_BACKOFF_SECONDS * BACKOFF_MULTIPLIER ** (attempt - 1)
        rng = random.Random(stable_seed("backoff", self.seed, attempt))
        return base * (1.0 + JITTER * rng.random())
