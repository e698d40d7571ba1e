"""Scheduler interface and the stock (greedy, heartbeat-driven) scheduler.

The stock :class:`CapacityScheduler` reproduces the behaviour the paper's
§II/§III-A attributes to Hadoop 2.2:

* Container requests are only served when some NodeManager heartbeats
  (NODE_STATUS_UPDATE), never at request time — so an AM waits at least two
  heartbeats end-to-end.
* Assignment is greedy: the heartbeating node is packed with as many queued
  requests as fit, which concentrates a short job's tasks on whichever node
  reported first ("deploys tasks to DataNodes as few as possible").
* Data locality is ignored for these assignments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .records import Container, ContainerRequest, NodeState

if TYPE_CHECKING:  # pragma: no cover
    from .resourcemanager import ResourceManager


class PendingAsk:
    """A queued container request plus the app it belongs to."""

    __slots__ = ("app_id", "request", "enqueued_at")

    def __init__(self, app_id: str, request: ContainerRequest, enqueued_at: float) -> None:
        self.app_id = app_id
        self.request = request
        self.enqueued_at = enqueued_at


class SchedulerBase:
    """Common queue plumbing; subclasses decide *when* and *where*."""

    #: Whether :meth:`on_allocate_request` may hand out containers directly
    #: (the D+ same-heartbeat path). The RM uses this to decide whether an
    #: allocate() call can return grants synchronously.
    responds_immediately = False

    def __init__(self) -> None:
        self.rm: Optional["ResourceManager"] = None
        self.queue: list[PendingAsk] = []

    def bind(self, rm: "ResourceManager") -> None:
        self.rm = rm

    # -- entry points -------------------------------------------------------
    def on_allocate_request(self, app_id: str, asks: list[ContainerRequest]) -> list[Container]:
        """AM heartbeat carrying new asks. Returns same-heartbeat grants."""
        now = self.rm.env.now
        for ask in asks:
            self.queue.append(PendingAsk(app_id, ask, now))
        return []

    def on_node_heartbeat(self, node: NodeState) -> list[tuple[str, Container]]:
        """NM heartbeat; returns (app_id, container) grants made now."""
        return []

    def am_queue_order(self, apps: list) -> list:
        """Order in which queued AMs are served on a node heartbeat.

        Stock YARN allocates AMs first-come-first-served; size-based
        schedulers (HFSP) override this, since under short-job-heavy
        traffic most jobs are uberized and AM allocation order *is* the
        job order.
        """
        return apps

    def remove_app(self, app_id: str) -> None:
        """Drop queued asks of a finished/killed application."""
        self.queue = [p for p in self.queue if p.app_id != app_id]

    def on_container_released(self, container: Container) -> None:
        """Hook: a granted container's resources returned (queue accounting)."""

    def on_app_finished(self, app, result=None) -> None:
        """Hook: an application completed (schedulers learning job sizes).

        ``result`` is the application's terminal value when the RM has one
        (a :class:`~repro.mapreduce.spec.JobResult` for MapReduce apps) —
        learning schedulers must inspect it (and ``app.killed``) so that
        killed or AM-failed runs never pollute size estimates.
        """

    # -- helpers ----------------------------------------------------------------
    def _grant(self, pending: PendingAsk, node: NodeState,
               memory_only: bool = False, tag: Any = None) -> Container:
        """Allocate ``pending`` on ``node`` and record the grant.

        ``tag`` binds the container to one task (D+ passes the ask's tag);
        stock schedulers leave it ``None``, as the AM's requeue expects.
        """
        container = Container(
            container_id=self.rm.next_container_id(),
            node_id=node.node_id,
            resource=pending.request.resource,
            app_id=pending.app_id,
            tag=tag,
        )
        node.allocate(pending.request.resource, memory_only=memory_only)
        tracer = self.rm.env.tracer
        if tracer is not None:
            tracer.metrics.incr("scheduler:grants")
            tracer.metrics.observe("scheduler:grant_queue_delay_s",
                                   self.rm.env.now - pending.enqueued_at)
        telemetry = self.rm.env.telemetry
        if telemetry is not None:
            telemetry.grant_delay.observe(
                self.rm.env.now - pending.enqueued_at)
        return container


class CapacityScheduler(SchedulerBase):
    """Stock greedy scheduler: packs the heartbeating node, FIFO order.

    ``memory_only=True`` reproduces Hadoop 2.2's DefaultResourceCalculator:
    containers are packed by memory alone, oversubscribing CPU on the first
    node to heartbeat — the paper's "some DataNodes may be squeezed with
    many containers, but others could be idle".
    """

    responds_immediately = False

    def __init__(self, memory_only: bool = True) -> None:
        super().__init__()
        self.memory_only = memory_only

    def on_node_heartbeat(self, node: NodeState) -> list[tuple[str, Container]]:
        # Single pass over the FIFO queue. Equivalent to the classic
        # grant-then-rescan-from-head loop: a grant only *shrinks* the
        # node's availability, so an ask that was skipped earlier in the
        # pass can never fit on a rescan — but single-pass is O(queue)
        # instead of O(grants x queue).
        grants: list[tuple[str, Container]] = []
        remaining: list[PendingAsk] = []
        for pending in self.queue:
            if (node.node_id not in pending.request.blacklist
                    and node.can_fit(pending.request.resource,
                                     memory_only=self.memory_only)):
                container = self._grant(pending, node, memory_only=self.memory_only)
                grants.append((pending.app_id, container))
            else:
                remaining.append(pending)
        self.queue = remaining
        return grants
