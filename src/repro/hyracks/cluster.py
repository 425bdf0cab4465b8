"""Simulated cluster: places partition work on nodes, cores, hyperthreads.

The paper's cluster experiments (Figures 17 and 20-25) ran on up to nine
4-core Opteron nodes.  We cannot run nine machines, so — per the
substitution rule — each partition's work is executed *for real* (and
timed), and this module composes a **makespan** from those measured
per-partition times with a placement model:

- partitions are assigned round-robin to nodes;
- within a node, partitions are placed on cores with an LPT greedy
  (longest processing time first) schedule;
- hyperthreads do not add CPU capacity: the workload is CPU-bound (JSON
  parsing), so two hyperthreads on one core run *sequentially*
  (Section 5.3's explanation of the 8-partition plateau in Figure 17);
  an oversubscription overhead is charged per extra partition sharing a
  core;
- exchanged bytes cross the network at a configurable bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster configuration for makespan composition.

    The defaults mirror the paper's testbed: 4-core nodes with two
    hyperthreads per core and four data partitions per node.
    """

    nodes: int = 1
    cores_per_node: int = 4
    hyperthreads_per_core: int = 2
    partitions_per_node: int = 4
    network_bandwidth_bytes_per_s: float = 100e6
    network_latency_s: float = 0.001
    oversubscription_overhead: float = 0.05

    @property
    def total_partitions(self) -> int:
        """Partitions across the whole cluster."""
        return self.nodes * self.partitions_per_node

    def single_node(self, partitions: int) -> "ClusterSpec":
        """A one-node variant with *partitions* partitions (Figure 17)."""
        return ClusterSpec(
            nodes=1,
            cores_per_node=self.cores_per_node,
            hyperthreads_per_core=self.hyperthreads_per_core,
            partitions_per_node=partitions,
            network_bandwidth_bytes_per_s=self.network_bandwidth_bytes_per_s,
            network_latency_s=self.network_latency_s,
            oversubscription_overhead=self.oversubscription_overhead,
        )

    def with_nodes(self, nodes: int) -> "ClusterSpec":
        """The same node configuration scaled to *nodes* nodes."""
        return ClusterSpec(
            nodes=nodes,
            cores_per_node=self.cores_per_node,
            hyperthreads_per_core=self.hyperthreads_per_core,
            partitions_per_node=self.partitions_per_node,
            network_bandwidth_bytes_per_s=self.network_bandwidth_bytes_per_s,
            network_latency_s=self.network_latency_s,
            oversubscription_overhead=self.oversubscription_overhead,
        )

    # -- makespan -------------------------------------------------------------

    def makespan(
        self,
        partition_seconds: list[float],
        exchange_bytes: int = 0,
        global_seconds: float = 0.0,
        injected_seconds: list[float] | None = None,
    ) -> float:
        """Simulated wall-clock for the given per-partition work.

        ``partition_seconds[i]`` is the measured CPU time of partition
        ``i``; ``exchange_bytes`` crossed the network; ``global_seconds``
        ran on the coordinator after all partitions finished.
        ``injected_seconds[i]`` is simulated-clock time charged to
        partition ``i`` on top of its measured compute — retry backoff
        and injected straggler delays; unlike measured times, these are
        real skew, so callers smoothing measurements must pass them here
        rather than folding them in beforehand.
        """
        if injected_seconds:
            width = max(len(partition_seconds), len(injected_seconds))
            base = list(partition_seconds) + [0.0] * (
                width - len(partition_seconds)
            )
            extra = list(injected_seconds) + [0.0] * (
                width - len(injected_seconds)
            )
            partition_seconds = [b + e for b, e in zip(base, extra)]
        if not partition_seconds:
            return global_seconds
        node_times = []
        for node in range(self.nodes):
            local = partition_seconds[node :: self.nodes]
            if local:
                node_times.append(self._node_time(local))
        compute = max(node_times) if node_times else 0.0
        network = 0.0
        if exchange_bytes:
            parallel_links = max(self.nodes, 1)
            network = (
                exchange_bytes
                / self.network_bandwidth_bytes_per_s
                / parallel_links
                + self.network_latency_s
            )
        return compute + network + global_seconds

    def _node_time(self, partition_times: list[float]) -> float:
        """LPT schedule of one node's partitions onto its physical cores.

        Hyperthread slots beyond the physical cores add no capacity but
        each oversubscribed partition pays a small overhead.
        """
        cores = [0.0] * self.cores_per_node
        extra = max(0, len(partition_times) - self.cores_per_node)
        penalty = 1.0 + self.oversubscription_overhead * (
            extra / max(len(partition_times), 1)
        )
        for duration in sorted(partition_times, reverse=True):
            slot = cores.index(min(cores))
            cores[slot] += duration * penalty
        return max(cores)
