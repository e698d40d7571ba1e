"""Multi-tenant CapacityScheduler queues.

Paper §II: "Hadoop employs CapacityScheduler by default, which allows
multiple tenants to share a large cluster and allocate resources under
constraints of specified capacities for each user." This module adds that
dimension: named queues with guaranteed capacity fractions and elastic
maximums. Scheduling order follows the real CapacityScheduler: the most
*under-served* queue (lowest used/guaranteed ratio) gets the next
assignment, FIFO within a queue, and a queue may exceed its guarantee up to
``max_fraction`` only while other queues leave capacity idle.

Placement within a heartbeat keeps the stock pathology (memory-only greedy
packing) so MRapid's comparisons stay apples-to-apples in multi-tenant
setups too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .records import Container, NodeState
from .scheduler import PendingAsk, SchedulerBase


@dataclass(frozen=True)
class QueueConfig:
    """One tenant queue: guaranteed and maximum capacity fractions."""

    name: str
    fraction: float              # guaranteed share of cluster memory
    max_fraction: float = 1.0    # elastic ceiling

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError(f"queue {self.name!r}: fraction must be in (0, 1]")
        if not self.fraction <= self.max_fraction <= 1:
            raise ValueError(
                f"queue {self.name!r}: max_fraction must be in [fraction, 1]")


class QueueState:
    """Book-keeping for one queue."""

    def __init__(self, config: QueueConfig) -> None:
        self.config = config
        self.used_memory_mb = 0

    def guaranteed_mb(self, cluster_memory_mb: int) -> float:
        return self.config.fraction * cluster_memory_mb

    def ceiling_mb(self, cluster_memory_mb: int) -> float:
        return self.config.max_fraction * cluster_memory_mb

    def usage_ratio(self, cluster_memory_mb: int) -> float:
        guaranteed = self.guaranteed_mb(cluster_memory_mb)
        return self.used_memory_mb / guaranteed if guaranteed else float("inf")


class MultiTenantCapacityScheduler(SchedulerBase):
    """Queue-aware stock scheduler (heartbeat-driven, memory-only packing)."""

    def __init__(self, queues: list[QueueConfig],
                 default_queue: Optional[str] = None) -> None:
        super().__init__()
        if not queues:
            raise ValueError("need at least one queue")
        total = sum(q.fraction for q in queues)
        if total > 1.0 + 1e-9:
            raise ValueError(f"queue fractions sum to {total:.2f} > 1")
        self.queues: dict[str, QueueState] = {q.name: QueueState(q) for q in queues}
        self.default_queue = default_queue if default_queue is not None else queues[0].name
        if self.default_queue not in self.queues:
            raise ValueError(f"default queue {self.default_queue!r} not configured")
        #: Containers *this scheduler* granted (AM containers and pooled AMs
        #: are allocated by the RM directly and must not touch queue usage),
        #: mapped to the queue charged at grant time — a container may
        #: outlive its application's record.
        self._granted: dict[int, str] = {}

    # -- scheduling ---------------------------------------------------------------
    def on_node_heartbeat(self, node: NodeState) -> list[tuple[str, Container]]:
        grants: list[tuple[str, Container]] = []
        cluster_mb = self.rm.total_capability().memory_mb
        progressed = True
        while progressed:
            progressed = False
            # Most under-served queue first (lowest used/guaranteed).
            for queue_name in sorted(
                self.queues,
                key=lambda name: (self.queues[name].usage_ratio(cluster_mb), name),
            ):
                pending = self._next_pending(queue_name)
                if pending is None:
                    continue
                queue = self.queues[queue_name]
                demand_mb = pending.request.resource.memory_mb
                if queue.used_memory_mb + demand_mb > queue.ceiling_mb(cluster_mb):
                    continue  # queue at its elastic ceiling
                if node.node_id in pending.request.blacklist:
                    continue
                if not node.can_fit(pending.request.resource, memory_only=True):
                    continue
                container = self._grant(pending, node, memory_only=True)
                queue.used_memory_mb += demand_mb
                self._granted[container.container_id] = queue_name
                self.queue.remove(pending)
                grants.append((pending.app_id, container))
                progressed = True
                break
        return grants

    def _next_pending(self, queue_name: str) -> Optional[PendingAsk]:
        # Each application names its queue (checked at registration).
        apps = self.rm.apps
        for pending in self.queue:
            if (apps[pending.app_id].queue or self.default_queue) == queue_name:
                return pending
        return None

    # -- release accounting ----------------------------------------------------------
    def on_container_released(self, container: Container) -> None:
        queue_name = self._granted.pop(container.container_id, None)
        if queue_name is None:
            return
        queue = self.queues[queue_name]
        queue.used_memory_mb = max(
            0, queue.used_memory_mb - container.resource.memory_mb)
