"""Hyracks substrate: tuples, physical operators, executor, cluster model.

This package stands in for the Hyracks dataflow runtime of the paper's
architecture (Section 3.1): tuple streams move through pull-based
physical operators; exchange boundaries charge the fixed-size frames
their tuples fill; memory is tracked and can be budgeted; and a
simulated cluster places partitions on (node, core, hyperthread) slots
to compose a makespan from really-measured per-partition work.
"""

from repro.hyracks.backends import (
    ExecutionBackend,
    ProcessBackend,
    SequentialBackend,
    resolve_backend,
)
from repro.hyracks.cluster import ClusterSpec
from repro.hyracks.memory import MemoryTracker

__all__ = [
    "ClusterSpec",
    "ExecutionBackend",
    "MemoryTracker",
    "ProcessBackend",
    "SequentialBackend",
    "resolve_backend",
]
