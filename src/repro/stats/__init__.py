"""Statistics catalog and cost-based planning.

``sampling`` builds :class:`CollectionStats` snapshots from a bounded
prefix of each partition at registration time; ``cost`` consumes a
:class:`StatsSnapshot` to pick each hash join's build side.  Both halves
are deterministic given the snapshot, so plans (and therefore results)
are reproducible across backends.
"""

from repro.stats.sampling import (
    DEFAULT_SAMPLE_LIMIT,
    CollectionStats,
    KeyStats,
    PartitionStats,
    SourceStatistics,
    StatsSnapshot,
    resolve_stats_sample,
)
from repro.stats.cost import (
    COST_ENV_VAR,
    CostModel,
    apply_cost_planning,
    resolve_cost_enabled,
)

__all__ = [
    "DEFAULT_SAMPLE_LIMIT",
    "COST_ENV_VAR",
    "CollectionStats",
    "KeyStats",
    "PartitionStats",
    "SourceStatistics",
    "StatsSnapshot",
    "CostModel",
    "apply_cost_planning",
    "resolve_cost_enabled",
    "resolve_stats_sample",
]
