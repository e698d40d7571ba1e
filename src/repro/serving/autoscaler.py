"""Reactive autoscaling: add/drain simulated NodeManagers under load + faults.

The autoscaler closes the loop the admission controller only observes: when
backlog per healthy node exceeds the scale-up threshold, or windowed SLO
attainment drops below the floor, it provisions capacity; when the cluster
has been calm for several control rounds it drains the newest idle node.

Two interactions with the fault injector matter and are tested explicitly:

* **Crashed nodes are not capacity.** The healthy count excludes failed NMs,
  so node churn shrinks effective capacity and the controller reacts by
  provisioning replacements — self-healing rather than waiting for restarts.
* **Crashed nodes still bill.** ``node_seconds`` integrates *provisioned*
  nodes (everything not drained, plus capacity still spinning up), because a
  crashed VM keeps costing money until you drain or replace it. Node-hours
  is the cost axis of Figure S1.

Every decision is clocked off the simulation environment (fixed control
interval, fixed provisioning delay, no RNG), so two replays of the same
trace + fault plan + serving config are byte-identical.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..config import ServingConfig
from ..simulation.errors import SimulationError
from ..simulation.events import CONTROL

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..simulation.core import Environment
    from ..yarn.nodemanager import NodeManager
    from .admission import AdmissionController

#: Evaluation cadence of the control loop (simulated seconds).
AUTOSCALE_INTERVAL_S = 5.0
#: Simulated VM boot + daemon start before a provisioned node joins.
PROVISION_DELAY_S = 20.0
#: Consecutive calm evaluations required before draining a node.
SCALE_DOWN_AFTER_ROUNDS = 4
#: Scale up when pending jobs per healthy node exceed this...
SCALE_UP_PENDING_PER_NODE = 1.0
#: ... or when windowed latency SLO attainment falls below this.
ATTAINMENT_FLOOR = 0.9


def check_progress(env: "Environment", controller: "AdmissionController") -> None:
    """Fail a serving replay that can no longer progress.

    A control loop calls this after its round, before it re-arms its
    timer. An empty event queue then means that timer is all that is left
    to run: nothing can free a slot or change capacity, so jobs still
    pending would wait forever while the loop re-arms every interval.
    """
    pending = controller.pending_count
    if pending and math.isinf(env.peek()):
        raise SimulationError(
            f"serving replay cannot progress: {pending} jobs pending, "
            f"{controller.running_count} slots held and nothing left to run "
            f"but the control loop")


class Autoscaler:
    """Queue-depth + SLO-attainment driven NodeManager pool controller."""

    def __init__(self, cluster: "SimCluster", conf: ServingConfig,
                 controller: "AdmissionController",
                 attainment: Optional[Callable[[], float]] = None,
                 on_capacity_change: Optional[Callable[[], None]] = None) -> None:
        if conf.min_nodes < 1 or conf.max_nodes < conf.min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        self.cluster = cluster
        self.env = cluster.env
        self.conf = conf
        self.controller = controller
        #: Windowed latency-SLO attainment in [0, 1]; defaults to "fine".
        self._attainment = attainment if attainment is not None else (lambda: 1.0)
        self._on_capacity_change = on_capacity_change
        self.scale_up_events = 0
        self.scale_down_events = 0
        self.node_seconds = 0.0
        self._provisioning = 0
        self._provision_seq = 0
        self._calm_rounds = 0
        self._billed_until = self.env.now
        self._proc = self.env.process(self._loop(), name="autoscaler")

    # -- capacity views --------------------------------------------------------
    def healthy_node_managers(self) -> list["NodeManager"]:
        """NMs that count toward serving capacity: alive and in service.

        Failed (crashed/blacklisted) and drained nodes are excluded — the
        core composition rule with the fault injector.
        """
        return [nm for nm in self.cluster.node_managers
                if not nm.failed and not nm.drained]

    def billable_count(self) -> int:
        """Nodes currently paid for: in service or crashed (still rented),
        plus capacity that is spinning up. Only drained nodes are free."""
        kept = sum(1 for nm in self.cluster.node_managers if not nm.drained)
        return kept + self._provisioning

    def slots(self) -> int:
        return len(self.healthy_node_managers()) * self.conf.slots_per_node

    def stats(self) -> dict:
        return {
            "scale_up_events": self.scale_up_events,
            "scale_down_events": self.scale_down_events,
            "node_hours": round(self.node_seconds / 3600.0, 6),
            "final_billable_nodes": self.billable_count(),
        }

    # -- billing ---------------------------------------------------------------
    def _accrue(self) -> None:
        now = self.env.now
        if now > self._billed_until:
            self.node_seconds += self.billable_count() * (now - self._billed_until)
            self._billed_until = now

    def finish(self) -> None:
        """Bill the final partial interval (call once when the replay ends)."""
        self._accrue()

    # -- control loop ----------------------------------------------------------
    def _loop(self) -> Generator:
        while True:
            yield self.env.timeout(AUTOSCALE_INTERVAL_S, priority=CONTROL)
            self._tick()
            # A restart or drain that settled on this instant changed
            # capacity as much as a scaling decision: every round notifies.
            self._notify()
            check_progress(self.env, self.controller)

    def _desired_nodes(self, healthy: int) -> int:
        pending = self.controller.pending_count
        in_system = pending + self.controller.running_count
        desired = healthy
        # Scale up only past a pending-per-node deadband, so transient
        # bursts the current fleet will absorb don't trigger churn.
        backlog_per_node = pending / max(1, healthy)
        if backlog_per_node > SCALE_UP_PENDING_PER_NODE:
            desired = math.ceil(in_system / self.conf.slots_per_node)
        elif pending == 0:
            # Queue fully drained: shrink toward what is actually running
            # (the calm-rounds counter in _tick debounces the drain itself).
            desired = math.ceil(in_system / self.conf.slots_per_node)
        if (self._attainment() < ATTAINMENT_FLOOR
                and self.controller.pending_count > 0):
            desired = max(desired, healthy + 1)
        return max(self.conf.min_nodes, min(self.conf.max_nodes, desired))

    def _tick(self) -> None:
        self._accrue()
        healthy = self.healthy_node_managers()
        desired = self._desired_nodes(len(healthy))
        capacity = len(healthy) + self._provisioning
        if capacity < desired:
            self._calm_rounds = 0
            for _ in range(desired - capacity):
                if not self._scale_up_one():
                    break
        elif len(healthy) > desired and self._provisioning == 0:
            self._calm_rounds += 1
            if self._calm_rounds >= SCALE_DOWN_AFTER_ROUNDS:
                self._drain_one_idle(healthy)
                self._calm_rounds = 0
        else:
            self._calm_rounds = 0

    # -- scale up --------------------------------------------------------------
    def _scale_up_one(self) -> bool:
        # Prefer re-activating a drained (warm, already-built) node: it is
        # back in rotation at the next heartbeat, no provisioning delay.
        for nm in self.cluster.node_managers:
            if nm.drained and not nm.failed:
                nm.undrain()
                self.scale_up_events += 1
                self._notify()
                return True
        if self.billable_count() >= self.conf.max_nodes:
            return False
        self._provisioning += 1
        self._provision_seq += 1
        self.env.process(self._provision(),
                         name=f"provision-{self._provision_seq}")
        self.scale_up_events += 1
        return True

    def _provision(self) -> Generator:
        yield self.env.timeout(PROVISION_DELAY_S)
        self._accrue()
        self._provisioning -= 1
        self.cluster.add_node()
        self._notify()

    # -- scale down ------------------------------------------------------------
    def _drain_one_idle(self, healthy: list["NodeManager"]) -> None:
        if len(healthy) <= self.conf.min_nodes:
            return
        # Newest idle node first; "idle" means no containers at all, which
        # also protects nodes hosting pooled MRapid AMs (those are running
        # containers too).
        for nm in reversed(healthy):
            if not nm.running:
                nm.drain()
                self.scale_down_events += 1
                self._notify()
                return

    def _notify(self) -> None:
        if self._on_capacity_change is not None:
            self._on_capacity_change()
