"""The D+ scheduler: resource- and locality-aware, same-heartbeat allocation.

Implements the paper's Algorithm 1 on top of the :class:`ClusterResource`
snapshot:

1. serve requests in NodeLocal -> RackLocal -> ANY order (locality first);
2. within each locality class, repeatedly sort nodes by available dominant
   resource (descending) and place one task on the idlest matching node —
   the "round-robin" spread Figure 14 credits with 50% of the win;
3. everything happens inside the AM's allocate() call, so the response
   rides back on the *same* heartbeat instead of waiting for a
   NODE_STATUS_UPDATE (+ the AM's next poll) like stock Hadoop.

Each optimization is independently switchable for the Figure 14 ablation:

* ``respond_same_heartbeat=False`` — queue the asks and run the same
  algorithm only when an NM heartbeat arrives (stock-style latency).
* ``balanced_spread=False`` — greedy packing: fill the idlest node
  completely before touching the next (stock CapacityScheduler placement).
* ``locality_aware=False`` — treat every request as ANY.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.topology import Locality
from ..yarn.records import Container, ContainerRequest, NodeState
from ..yarn.scheduler import PendingAsk, SchedulerBase
from .cluster_resource import ClusterResource

if TYPE_CHECKING:  # pragma: no cover
    from ..yarn.resourcemanager import ResourceManager


class DPlusScheduler(SchedulerBase):
    """Paper Algorithm 1 ("Scheduler algorithm for distributed mode")."""

    def __init__(self, balanced_spread: bool = True, locality_aware: bool = True,
                 respond_same_heartbeat: bool = True) -> None:
        super().__init__()
        self.balanced_spread = balanced_spread
        self.locality_aware = locality_aware
        self.respond_same_heartbeat = respond_same_heartbeat
        self._cluster_resource: Optional[ClusterResource] = None

    @property
    def responds_immediately(self) -> bool:  # type: ignore[override]
        return self.respond_same_heartbeat

    def bind(self, rm: "ResourceManager") -> None:
        super().bind(rm)
        self._cluster_resource = ClusterResource(rm)

    # -- entry points -------------------------------------------------------
    def on_allocate_request(self, app_id: str, asks: list[ContainerRequest]) -> list[Container]:
        now = self.rm.env.now
        for ask in asks:
            self.queue.append(PendingAsk(app_id, ask, now))
        if not self.respond_same_heartbeat:
            return []  # ablation: wait for NODE_STATUS_UPDATE like stock
        granted = self._schedule(app_id_filter=app_id)
        return [container for _, container in granted]

    def on_node_heartbeat(self, node: NodeState) -> list[tuple[str, Container]]:
        if self.respond_same_heartbeat:
            # Everything serviceable was granted at request time; retry
            # leftovers (cluster was full) now that resources may have freed.
            return self._schedule()
        return self._schedule()

    # -- Algorithm 1 -----------------------------------------------------------
    def _schedule(self, app_id_filter: Optional[str] = None) -> list[tuple[str, Container]]:
        cr = self._cluster_resource
        grants: list[tuple[str, Container]] = []
        pending = [p for p in self.queue
                   if app_id_filter is None or p.app_id == app_id_filter]
        if not pending:
            return grants

        if self.balanced_spread:
            # "After one type of resource request has been served, we
            # calculate the dominant resource and sort nodes again." Each
            # placement changes exactly one node, so the re-sort is an
            # O(log N) single-node repair on an incrementally maintained
            # idleness view instead of a full sort per container.
            view = cr.idleness_view()
            for level in (Locality.NODE_LOCAL, Locality.RACK_LOCAL, Locality.ANY):
                placed = True
                while placed and pending:
                    placed = False
                    for node in view.nodes:
                        old_key = view.key_of(node)
                        for item in pending:
                            container = self._get_resource(item, node, level)
                            if container is None:
                                continue
                            grants.append((item.app_id, container))
                            pending.remove(item)
                            self.queue.remove(item)
                            view.reposition(node, old_key)
                            placed = True
                            break  # one task, then re-rank: round-robin
                        if placed:
                            break  # restart from the (new) idlest node
                if not pending:
                    return grants
            return grants

        # Greedy ablation (stock-style packing): one sorted pass per level
        # fills each node with everything that fits. A retry pass can never
        # place more — availability only shrinks — so the historical
        # re-sort-and-rescan loop degenerates to this single sweep.
        for level in (Locality.NODE_LOCAL, Locality.RACK_LOCAL, Locality.ANY):
            for node in cr.nodes_by_idleness():
                for item in list(pending):
                    container = self._get_resource(item, node, level)
                    if container is None:
                        continue
                    grants.append((item.app_id, container))
                    pending.remove(item)
                    self.queue.remove(item)
            if not pending:
                return grants
        return grants

    def _get_resource(self, item: PendingAsk, node: NodeState,
                      level: Locality) -> Optional[Container]:
        """Paper's getResource(task, node, type): grant iff the node matches
        the task's preference at this locality level and has room."""
        request = item.request
        if node.node_id in request.blacklist:
            return None
        # With the balanced round-robin disabled (Figure 14 ablation) the
        # scheduler degrades to the *stock* allocator it replaced: greedy
        # packing under the memory-only DefaultResourceCalculator. With it
        # enabled, fit is multi-dimensional (memory AND vcores).
        if not node.can_fit(request.resource, memory_only=not self.balanced_spread):
            return None
        if level != Locality.ANY:
            # NODE_LOCAL / RACK_LOCAL rounds only serve matching preferences;
            # the final ANY round accepts any node with room (so nothing is
            # ever starved by its preferences).
            if not (self.locality_aware and request.preferred_nodes):
                return None
            actual = self.rm.topology.locality(node.node_id, request.preferred_nodes)
            if actual != level:
                return None
        return self._grant(item, node, memory_only=not self.balanced_spread,
                           tag=request.tag)
