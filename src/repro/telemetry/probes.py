"""Cluster-state probes shared by the scraper and ClusterMonitor.

Exactly one place computes per-node CPU/disk utilization and the paper's
imbalance indices. :class:`repro.metrics.ClusterMonitor` (the historical
figure-facing sampler) and the telemetry scraper both call
:func:`sample_utilization`, so the two mechanisms cannot drift — the
monitor keeps its process-loop driver (figure snapshots depend on its
timeout events) while telemetry reads the same numbers from the kernel's
pop hook without scheduling anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster


@dataclass
class UtilizationSample:
    """One instant of cluster utilization (the ClusterMonitor quantities)."""

    #: (node_id, cpu utilization 0..1) per DataNode, in cluster order.
    node_cpu: list[tuple[str, float]]
    #: (node_id, active disk ops) per DataNode, in cluster order.
    node_disk_ops: list[tuple[str, float]]
    cluster_cpu: float
    cpu_imbalance: float
    disk_imbalance: float
    scheduled_memory_fraction: float
    used_vcores: float


def sample_utilization(cluster: "SimCluster",
                       per_node: bool = True) -> UtilizationSample:
    """Read the monitor quantities from a cluster, mutating nothing.

    A node outside :meth:`~repro.simcluster.SimCluster.busy_nodes` reads
    zero on both devices, and zeros change no sum, and no maximum or
    minimum beyond "some node reads zero". With ``per_node=False`` (the
    telemetry probe, which needs no per-node lists) only busy nodes are
    read, so sampling a mostly idle large cluster is cheap; the aggregates
    are the same either way.
    """
    rm = cluster.rm
    nodes = cluster.datanodes if per_node else cluster.busy_nodes()
    total_cores = cluster.total_cores
    busy = 0.0
    node_cpu: list[tuple[str, float]] = []
    node_disk_ops: list[tuple[str, float]] = []
    utils: list[float] = []
    disks: list[float] = []
    for node in nodes:
        util = node.cpu.utilization()
        ops = float(node.disk.active_ops)
        if per_node:
            node_cpu.append((node.node_id, util))
            node_disk_ops.append((node.node_id, ops))
        utils.append(util)
        disks.append(ops)
        busy += util * node.cpu.cores
    if len(nodes) < len(cluster.datanodes):
        utils.append(0.0)
        disks.append(0.0)

    total = rm.total_capability()
    used = rm.total_used()
    return UtilizationSample(
        node_cpu=node_cpu,
        node_disk_ops=node_disk_ops,
        cluster_cpu=busy / total_cores if total_cores else 0.0,
        cpu_imbalance=max(utils) - min(utils) if utils else 0.0,
        disk_imbalance=float(max(disks) - min(disks)) if disks else 0.0,
        scheduled_memory_fraction=(used.memory_mb / total.memory_mb
                                   if total.memory_mb else 0.0),
        used_vcores=float(used.vcores),
    )
