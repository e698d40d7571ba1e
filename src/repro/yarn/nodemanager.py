"""NodeManager: heartbeats to the RM and launches containers (JVMs)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..simulation.errors import Interrupt
from .records import Container

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from ..simulation.core import Environment
    from ..simulation.events import Process
    from .resourcemanager import ResourceManager


class NodeManager:
    """Per-node daemon.

    * Heartbeats every ``nm_heartbeat_s`` (phase-offset per node, as real NMs
      start at arbitrary times) — the stock scheduler only hands out
      containers inside these heartbeats. The beats themselves come from the
      RM's shared :class:`~repro.yarn.heartbeat.HeartbeatWheel`; the NM only
      registers/suspends/resumes its membership, and its phase (the wheel
      *anchor*) survives crash/rejoin and drain/undrain cycles.
    * ``launch(container, runnable)`` models container start-up (JVM spawn +
      localization, ``container_launch_s``) before running the payload.
    """

    def __init__(self, env: "Environment", node: "Node", rm: "ResourceManager",
                 heartbeat_offset: float = 0.0) -> None:
        self.env = env
        self.node = node
        self.rm = rm
        self.heartbeat_offset = heartbeat_offset
        self.failed = False
        self.failed_at: float = float("inf")
        #: Administratively removed from service (autoscaler scale-down).
        #: Unlike ``failed`` the machine is healthy — it just stops
        #: heartbeating so the RM never schedules on it, and it rejoins
        #: instantly on :meth:`undrain`.
        self.drained = False
        self.running: dict[int, "Process"] = {}
        #: Fault-injection hook: ``decide(container) -> Optional[float]``
        #: returns seconds-until-crash for a flaky container, or None.
        self._flaky: Optional[Callable[[Container], Optional[float]]] = None
        if rm.heartbeat_wheel is not None:
            rm.heartbeat_wheel.register(node.node_id, heartbeat_offset)

    @property
    def node_id(self) -> str:
        return self.node.node_id

    def launch(self, container: Container, runnable: Generator,
               name: str = "container") -> "Process":
        """Start ``runnable`` inside ``container`` after JVM launch delay.

        Returns the container process; its value is the runnable's return
        value. The container's resources are released to the RM when the
        payload exits (normally, by error, or killed).
        """
        delay = self.rm.conf.container_launch_s

        def body() -> Generator:
            try:
                if delay > 0:
                    start = self.env.now
                    yield self.env.timeout(delay)
                    if self.env.tracer is not None:
                        self.env.tracer.complete(
                            "container-launch", "launch", self.node_id, name,
                            start, container_id=container.container_id)
                result = yield from runnable
                return result
            finally:
                self.running.pop(container.container_id, None)
                self.rm.container_finished(container)

        proc = self.env.process(body(), name=f"{name}@{self.node_id}")
        self.running[container.container_id] = proc
        if self._flaky is not None:
            crash_after = self._flaky(container)
            if crash_after is not None:
                self.env.process(self._sabotage(proc, crash_after),
                                 name=f"flaky-{name}@{self.node_id}")
        return proc

    def _sabotage(self, proc: "Process", delay: float) -> Generator:
        """Kill a flaky container's process after ``delay`` seconds.

        Delivered as an Interrupt, the same signal a node death sends, so
        AMs reuse their attempt-retry (and AM-restart) machinery unchanged.
        """
        yield self.env.timeout(delay)
        if proc.is_alive:
            proc.defuse()
            proc.interrupt("flaky container")

    def set_flakiness(self, decide: Optional[Callable[[Container], Optional[float]]]) -> None:
        """Install (or clear, with None) the per-container flakiness hook."""
        self._flaky = decide

    def fail(self, cause: Any = "node failure") -> None:
        """The machine dies: heartbeats stop, every running container is
        killed, and the RM marks the node lost (no further allocations).

        Containers fail with :class:`~repro.simulation.errors.Interrupt`
        carrying ``cause``; AMs observe the failed task attempts and retry
        on surviving nodes.
        """
        if self.failed:
            return
        self.failed = True
        self.failed_at = self.env.now
        if self.rm.heartbeat_wheel is not None:
            self.rm.heartbeat_wheel.suspend(self.node_id)
        for proc in list(self.running.values()):
            if proc.is_alive:
                proc.defuse()
                proc.interrupt(cause)
        self.rm.node_lost(self.node_id)

    def restart(self) -> None:
        """Bring a failed NodeManager back (transient outage recovered).

        Heartbeats resume on the node's *original* phase grid (the wheel
        anchor survives the outage — a mass rejoin after churn must not
        synchronize the fleet into a thundering herd) and the RM marks the
        node alive with zeroed accounting — everything that ran here died
        with the failure, so the rejoining node is empty, exactly like a
        real NM restart (containers are not work-preserved across NM death).
        """
        if not self.failed:
            return
        self.failed = False
        self.failed_at = float("inf")
        self.running.clear()
        if self.drained:
            # Recovered hardware stays out of service until undrained.
            return
        if self.rm.heartbeat_wheel is not None:
            self.rm.heartbeat_wheel.resume(self.node_id)
        self.rm.node_rejoined(self.node_id)

    def drain(self) -> None:
        """Take a healthy, idle node out of service (scale-down).

        Heartbeats stop and the RM stops scheduling here; running
        containers (there should be none — callers drain idle nodes) are
        left untouched. The DataNode keeps serving HDFS reads: draining is
        a YARN-capacity decision, not a decommission.
        """
        if self.drained or self.failed:
            return
        self.drained = True
        if self.rm.heartbeat_wheel is not None:
            self.rm.heartbeat_wheel.suspend(self.node_id)
        self.rm.set_alive(self.node_id, False)

    def undrain(self) -> None:
        """Return a drained node to service (warm scale-up, no delay)."""
        if not self.drained:
            return
        self.drained = False
        if self.failed:
            return  # crashed while parked; restart() will bring it back
        if self.rm.heartbeat_wheel is not None:
            self.rm.heartbeat_wheel.resume(self.node_id)
        self.rm.node_rejoined(self.node_id)
