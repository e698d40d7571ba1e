"""The fault injector: replays a :class:`FaultPlan` against a SimCluster.

One driver process walks the plan in time order and fires each event
through the cluster's public fault hooks (``fail_node`` / ``restart_node``,
``DiskDevice.set_slowdown``, ``ClusterNetwork.set_node_degradation``,
``NodeManager.set_flakiness``). Victim selectors are resolved *at fire
time* against live cluster state, with every random draw taken from the
plan's seeded RNG — the same plan on the same cluster build produces a
byte-identical fault timeline, run after run.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from .plan import (
    ContainerFlakiness,
    DiskSlowdown,
    FaultPlan,
    NetworkDegradation,
    NetworkPartition,
    NodeCrash,
    NodeRestart,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster


class FaultInjector:
    """Drives one plan against one cluster. Inspect ``timeline`` afterwards."""

    def __init__(self, cluster: "SimCluster", plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: (time, kind, victim) records of every fired (or skipped) event.
        self.timeline: List[Tuple[float, str, str]] = []
        self.last_crashed: Optional[str] = None
        self._proc = cluster.env.process(self._drive(), name="fault-injector")

    # -- driver -------------------------------------------------------------
    def _drive(self) -> Generator:
        env = self.cluster.env
        ordered = sorted(enumerate(self.plan.events),
                         key=lambda pair: (pair[1].at, pair[0]))
        for _, event in ordered:
            delay = event.at - env.now
            if delay > 0:
                yield env.timeout(delay)
            self._fire(event)

    def _fire(self, event) -> None:
        if isinstance(event, NodeCrash):
            self._crash(event)
        elif isinstance(event, NodeRestart):
            self._restart(event)
        elif isinstance(event, DiskSlowdown):
            self._slow_disk(event)
        elif isinstance(event, NetworkDegradation):
            self._degrade(event)
        elif isinstance(event, NetworkPartition):
            self._partition(event)
        elif isinstance(event, ContainerFlakiness):
            self._flaky(event)
        else:  # pragma: no cover - plan types are closed
            raise TypeError(f"unknown fault event {event!r}")

    def _record(self, kind: str, victim: str) -> None:
        env = self.cluster.env
        self.timeline.append((env.now, kind, victim))
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.instant(kind, "fault", CLUSTER, "faults", victim=victim)
            env.tracer.counter(f"faults:{kind}").inc()

    # -- event handlers -----------------------------------------------------
    def _crash(self, ev: NodeCrash) -> None:
        node = self._resolve(ev.node)
        if node is None:
            self._record("crash_skipped", ev.node)
            return
        self.last_crashed = node
        if ev.hdfs:
            self.cluster.fail_node(node)
        else:
            self.cluster.rm.node_managers[node].fail()
        self._record("crash" if ev.hdfs else "crash_nm", node)

    def _restart(self, ev: NodeRestart) -> None:
        node = self.last_crashed if ev.node == "@last-crashed" else ev.node
        if node is None or not self.cluster.rm.node_managers[node].failed:
            self._record("restart_skipped", ev.node)
            return
        self.cluster.restart_node(node)
        self._record("restart", node)

    def _slow_disk(self, ev: DiskSlowdown) -> None:
        node = self._resolve(ev.node)
        if node is None:
            self._record("slow_disk_skipped", ev.node)
            return
        disk = self.cluster.topology.node(node).disk
        disk.set_slowdown(ev.factor)
        self._record("slow_disk", node)
        if ev.duration != float("inf"):
            self._after(ev.duration, lambda: self._restore_disk(node))

    def _restore_disk(self, node: str) -> None:
        self.cluster.topology.node(node).disk.set_slowdown(1.0)
        self._record("disk_restored", node)

    def _degrade(self, ev: NetworkDegradation) -> None:
        node = self._resolve(ev.node)
        if node is None:
            self._record("degrade_skipped", ev.node)
            return
        self.cluster.network.set_node_degradation(node, ev.factor)
        self._record("degrade_net", node)
        if ev.duration != float("inf"):
            self._after(ev.duration, lambda: self._restore_net(node))

    def _restore_net(self, node: str) -> None:
        self.cluster.network.restore_node(node)
        self._record("net_restored", node)

    def _partition(self, ev: NetworkPartition) -> None:
        victims = []
        for sel in ev.nodes:
            node = self._resolve(sel)
            if node is not None and node not in victims:
                victims.append(node)
        for node in victims:
            self.cluster.network.set_node_degradation(node, ev.factor)
            self._record("partition", node)
        if victims and ev.duration != float("inf"):
            def heal() -> None:
                for node in victims:
                    self.cluster.network.restore_node(node)
                    self._record("partition_healed", node)
            self._after(ev.duration, heal)

    def _flaky(self, ev: ContainerFlakiness) -> None:
        if ev.node == "@all":
            nms = list(self.cluster.node_managers)
        else:
            node = self._resolve(ev.node)
            if node is None:
                self._record("flaky_skipped", ev.node)
                return
            nms = [self.cluster.rm.node_managers[node]]

        def decide(container, _rate=ev.rate, _after=ev.crash_after_s):
            return _after if self.rng.random() < _rate else None

        for nm in nms:
            nm.set_flakiness(decide)
            self._record("flaky_on", nm.node_id)
        if ev.duration != float("inf"):
            def clear() -> None:
                for nm in nms:
                    nm.set_flakiness(None)
                    self._record("flaky_off", nm.node_id)
            self._after(ev.duration, clear)

    def _after(self, delay: float, action) -> None:
        def restorer() -> Generator:
            yield self.cluster.env.timeout(delay)
            action()

        self.cluster.env.process(restorer(), name="fault-restore")

    # -- victim selection ---------------------------------------------------
    def _alive(self, node_id: str) -> bool:
        nm = self.cluster.rm.node_managers.get(node_id)
        return nm is not None and not nm.failed

    def _am_nodes(self) -> set:
        """Nodes currently hosting an ApplicationMaster (pooled or stock)."""
        nodes = set()
        framework = getattr(self.cluster, "mrapid_framework", None)
        if framework is not None:
            nodes.update(s.node_id for s in framework.slaves)
        rm = self.cluster.rm
        for app_id, proc in rm._am_processes.items():
            if proc.is_alive:
                app = rm.apps.get(app_id)
                if app is not None and app.am_container is not None:
                    nodes.add(app.am_container.node_id)
        return nodes

    def _job_am_node(self) -> Optional[str]:
        """The node of the most recently placed AM whose node is alive.

        Pooled MRapid AMs running a job come first; otherwise the RM's
        AM containers, newest (highest container id) first.
        """
        framework = getattr(self.cluster, "mrapid_framework", None)
        if framework is not None:
            busy = [s for s in framework.slaves if s.busy and self._alive(s.node_id)]
            if busy:
                return busy[-1].node_id
        placed = [app.am_container for app in self.cluster.rm.apps.values()
                  if app.am_container is not None
                  and self._alive(app.am_container.node_id)]
        if not placed:
            return None
        return max(placed, key=lambda c: c.container_id).node_id

    def _resolve(self, selector: str) -> Optional[str]:
        """Resolve a victim selector against live state (None = no victim)."""
        if not selector.startswith("@"):
            return selector if self._alive(selector) else None
        if selector == "@last-crashed":
            return self.last_crashed
        if selector == "@job-am":
            return self._job_am_node()
        alive = sorted(n for n in self.cluster.rm.node_managers
                       if self._alive(n))
        if selector in ("@random-non-am", "@busiest-non-am"):
            am_nodes = self._am_nodes()
            alive = [n for n in alive if n not in am_nodes]
        if not alive:
            return None
        if selector in ("@random", "@random-non-am"):
            return self.rng.choice(alive)
        if selector in ("@busiest", "@busiest-non-am"):
            return max(alive, key=lambda n: (
                len(self.cluster.rm.node_managers[n].running), n))
        raise ValueError(f"unknown victim selector {selector!r}")


def inject(cluster: "SimCluster", plan: FaultPlan) -> FaultInjector:
    """Attach ``plan`` to ``cluster``; returns the running injector."""
    return FaultInjector(cluster, plan)
