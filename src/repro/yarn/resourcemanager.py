"""ResourceManager: application lifecycle, allocation plumbing, AM context.

The RM is the hub the paper's Figures 2/3 revolve around:

* stock path — AM asks are queued at CONTAINER_STATUS_UPDATE and served only
  when some NM heartbeat (NODE_STATUS_UPDATE) reaches the scheduler; the AM
  sees the grants on *its* next heartbeat (>= 2 heartbeats of latency);
* D+ path — a scheduler with ``responds_immediately = True`` allocates from
  the RM's live ClusterResource snapshot inside the same allocate() RPC.
"""

from __future__ import annotations

from bisect import insort
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..cluster.resources import ResourceVector
from ..simulation.errors import Interrupt
from ..simulation.monitor import EventLog
from .heartbeat import HeartbeatWheel
from .records import Application, Container, ContainerRequest, IdAllocator, NodeState
from .scheduler import SchedulerBase

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.topology import Topology
    from ..config import HadoopConfig
    from ..simulation.core import Environment
    from .nodemanager import NodeManager


class ResourceManager:
    def __init__(self, env: "Environment", topology: "Topology", scheduler: SchedulerBase,
                 conf: "HadoopConfig", log: Optional[EventLog] = None) -> None:
        self.env = env
        self.topology = topology
        self.scheduler = scheduler
        self.conf = conf
        self.log = log if log is not None else EventLog()
        self.ids = IdAllocator()
        #: One aggregated heartbeat timer for every NM of this RM (replaces
        #: the historical per-node heartbeat processes). It sleeps while no
        #: beat could place anything (:meth:`_could_place`) — every site
        #: below that can make a beat useful again calls ``wake()``.
        #: ``None`` only when heartbeats are configured off.
        self.heartbeat_wheel: Optional[HeartbeatWheel] = (
            HeartbeatWheel(env, conf.nm_heartbeat_s, self.node_heartbeat,
                           quantum=conf.nm_heartbeat_quantum_s,
                           busy=self._could_place)
            if conf.nm_heartbeat_s > 0 else None)
        self.nodes: dict[str, NodeState] = {}
        #: Cluster-wide totals, maintained incrementally (node admission and
        #: a per-NodeState usage watcher) so ``total_capability`` and
        #: ``total_used`` are O(1) — they sit on the heartbeat hot path and
        #: re-summing 10k nodes per beat dominated large-cluster runs.
        self._total_capability = ResourceVector.zero()
        self._total_used_mb = 0
        self._total_used_vcores = 0
        #: Per-rack registered and alive node counts, kept exact by
        #: ``_admit``, ``remove_node`` and ``set_alive`` (the only writer
        #: of ``NodeState.alive``), so per-rack liveness is an O(racks)
        #: read instead of a walk of every node.
        self.rack_registered: dict[str, int] = {}
        self.rack_alive: dict[str, int] = {}
        self._rack_of: dict[str, str] = {}
        for node in topology.nodes:
            self._admit(node)
        scheduler.bind(self)

        self.node_managers: dict[str, "NodeManager"] = {}
        self.apps: dict[str, Application] = {}
        self._am_attempts: dict[str, int] = {}
        #: Containers granted by the scheduler but not yet fetched by the AM.
        self._ready: dict[str, list[Container]] = {}
        #: Applications whose AM container is not allocated yet, kept in
        #: (queue_time, fifo_key) order — FIFO by *intent*, not by which
        #: same-instant submitter's kernel event happened to run first.
        #: Only :meth:`_enqueue_am` and :meth:`_dequeue_am` change it.
        self._am_queue: list[Application] = []
        #: Multiset of the queued AMs' memory sizes (size -> count; usually
        #: one size), so the smallest queued AM is an O(1) read.
        self._am_queue_mb: dict[int, int] = {}
        #: Fallback fifo_key source for apps submitted without one.
        self._submit_seq = count()
        self._am_processes: dict[str, Any] = {}
        #: Callbacks fired on node_lost(node_id) — e.g. the MRapid submission
        #: framework killing pooled-AM jobs whose slave died with the node.
        self.node_lost_listeners: list[Any] = []
        #: AM admission control (maximum-am-resource-percent): memory held
        #: by RM-allocated AM containers, and which container ids are AMs.
        self.am_memory_used_mb: int = 0
        self._am_container_ids: set[int] = set()
        #: One-shot figure runs keep every Application for post-run
        #: inspection. The heavy-traffic replay driver flips this off so
        #: terminal apps are forgotten immediately (bounded RSS over
        #: thousands of jobs — including speculation losers, whose app ids
        #: the driver never sees).
        self.retain_finished_apps: bool = True

    # -- wiring ---------------------------------------------------------------
    def next_app_id(self, prefix: str = "app") -> str:
        return self.ids.next_app_id(prefix)

    def next_container_id(self) -> int:
        return self.ids.next_container_id()

    def register_node_manager(self, nm: "NodeManager") -> None:
        self.node_managers[nm.node_id] = nm

    def add_node(self, node) -> None:
        """Admit a node provisioned after RM construction (elastic scale-up)."""
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id!r} already registered")
        self._admit(node)
        if self._am_queue:
            self._wake_heartbeats()  # capacity and the AM limit rose
        self.log.mark(self.env.now, "node_added", node=node.node_id)

    def _admit(self, node) -> NodeState:
        advertised = ResourceVector(
            memory_mb=node.capability.memory_mb,
            vcores=self.conf.effective_vcores(node.capability.vcores),
        )
        state = NodeState(node.node_id, advertised, watcher=self._on_node_usage,
                          wheel=self.heartbeat_wheel)
        self.nodes[node.node_id] = state
        self._total_capability = self._total_capability + advertised
        rack = self._rack_of[node.node_id] = node.rack
        self.rack_registered[rack] = self.rack_registered.get(rack, 0) + 1
        self.rack_alive[rack] = self.rack_alive.get(rack, 0) + 1
        return state

    def _on_node_usage(self, delta_memory_mb: int, delta_vcores: int) -> None:
        self._total_used_mb += delta_memory_mb
        self._total_used_vcores += delta_vcores

    def remove_node(self, node_id: str) -> None:
        """Decommission a node: forget its state entirely.

        Unlike :meth:`node_lost` (which keeps the dead NodeState around for
        a possible rejoin), removal is permanent — the id must never be
        reused. Any straggler ``container_finished`` for the node becomes a
        no-op, so the watcher is detached to keep the O(1) totals exact.
        """
        state = self.nodes.pop(node_id, None)
        if state is None:
            raise KeyError(f"unknown node {node_id!r}")
        state.reset_used()  # drain its contribution from the usage totals
        state.watcher = None
        self._total_capability = self._total_capability - state.capability
        rack = self._rack_of.pop(node_id)
        self.rack_registered[rack] -= 1
        if state.alive:
            self.rack_alive[rack] -= 1
        if self.heartbeat_wheel is not None:
            self.heartbeat_wheel.unregister(node_id)
        self.node_managers.pop(node_id, None)
        self.log.mark(self.env.now, "node_removed", node=node_id)

    def node_state(self, node_id: str) -> NodeState:
        return self.nodes[node_id]

    def set_alive(self, node_id: str, alive: bool) -> Optional[NodeState]:
        """Mark a registered node schedulable or not; returns its state.

        The only place ``NodeState.alive`` changes, so the per-rack counts
        (:attr:`rack_alive`) stay exact. Repeats are no-ops: losing a lost
        node or reviving a live one changes no count. ``alive`` itself
        stays a plain attribute because ``can_fit`` reads it on the
        scheduling hot path. Unknown (or removed) ids return ``None``.
        """
        state = self.nodes.get(node_id)
        if state is not None and state.alive != alive:
            state.alive = alive
            self.rack_alive[self._rack_of[node_id]] += 1 if alive else -1
        return state

    def total_capability(self) -> ResourceVector:
        return self._total_capability

    def total_used(self) -> ResourceVector:
        return ResourceVector(self._total_used_mb, self._total_used_vcores)

    # -- application lifecycle ----------------------------------------------------
    def submit_application(self, app: Application) -> Application:
        """Queue ``app`` for AM allocation (stock Figure 1 steps 2-3)."""
        if app.app_id in self.apps:
            raise ValueError(f"duplicate application {app.app_id}")
        app.submit_time = self.env.now
        if app.fifo_key is None:
            app.fifo_key = next(self._submit_seq)
        app.queue_time = self.env.now
        app.am_started = self.env.event()
        app.finished = self.env.event()
        self.apps[app.app_id] = app
        self._ready[app.app_id] = []
        self._am_attempts[app.app_id] = 1
        self._enqueue_am(app)
        self.log.mark(self.env.now, "app_submitted", app_id=app.app_id)
        return app

    def application_finished(self, app: Application, result: Any) -> None:
        self.scheduler.on_app_finished(app, result)
        self.scheduler.remove_app(app.app_id)
        self._ready.pop(app.app_id, None)
        if app.finished is not None and not app.finished.triggered:
            app.finished.succeed(result)
        self.log.mark(self.env.now, "app_finished", app_id=app.app_id)
        if not self.retain_finished_apps:
            self.forget_application(app.app_id)

    def kill_application(self, app: Application, cause: Any = "killed") -> None:
        """Terminate an application: AM process interrupted, asks dropped."""
        if app.killed or (app.finished is not None and app.finished.triggered):
            return
        app.killed = True
        self.scheduler.remove_app(app.app_id)
        self._ready.pop(app.app_id, None)
        for queued in [a for a in self._am_queue if a.app_id == app.app_id]:
            self._dequeue_am(queued)
        proc = self._am_processes.get(app.app_id)
        if proc is not None and proc.is_alive:
            proc.defuse()
            proc.interrupt(cause)
        if app.finished is not None and not app.finished.triggered:
            app.finished.fail(JobKilled(app.app_id, cause))
            app.finished.defuse()
        self.log.mark(self.env.now, "app_killed", app_id=app.app_id)
        if not self.retain_finished_apps:
            self.forget_application(app.app_id)

    # -- AM queue ------------------------------------------------------------------
    def _enqueue_am(self, app: Application) -> None:
        """Queue ``app``'s AM at its (queue_time, fifo_key) position; a
        beat may now place it."""
        insort(self._am_queue, app, key=_am_queue_key)
        mb = app.am_resource.memory_mb
        self._am_queue_mb[mb] = self._am_queue_mb.get(mb, 0) + 1
        self._wake_heartbeats()

    def _dequeue_am(self, app: Application) -> None:
        self._am_queue.remove(app)
        mb = app.am_resource.memory_mb
        left = self._am_queue_mb[mb] - 1
        if left:
            self._am_queue_mb[mb] = left
        else:
            del self._am_queue_mb[mb]

    def _am_admissible(self) -> bool:
        """Whether some queued AM fits under maximum-am-resource-percent.

        The same float test :meth:`node_heartbeat` applies, on the smallest
        queued AM: when that one fails it, every queued AM does — the
        head of line in any scheduler order included.
        """
        return bool(self._am_queue_mb) and (
            self.am_memory_used_mb + min(self._am_queue_mb)
            <= self.conf.am_resource_fraction
            * self.total_capability().memory_mb + 1e-9)

    # -- heartbeat entry points ------------------------------------------------------
    def _could_place(self) -> bool:
        """Whether a node heartbeat could place anything: a task ask is
        queued, or a queued AM fits under the AM limit. Otherwise every
        scheduler's beat is a no-op (the AM loop breaks at its first app),
        so the wheel sleeps through it. The AM limit only loosens when an
        AM container is released or a node is added; both wake the wheel,
        as does every enqueue."""
        return bool(self.scheduler.queue) or self._am_admissible()

    def _wake_heartbeats(self) -> None:
        if self.heartbeat_wheel is not None:
            self.heartbeat_wheel.wake()

    def node_heartbeat(self, node_id: str) -> None:
        """NODE_STATUS_UPDATE: serve queued AMs first, then task asks.

        Only beats that could place something get here; the wheel records
        the node's beat time (``NodeState.last_heartbeat``) itself.
        """
        node = self.nodes[node_id]
        if self.env.tracer is not None:
            self.env.tracer.metrics.incr("rm:node_heartbeats")

        # AM allocation takes precedence (YARN allocates AMs like any other
        # container but our FIFO keeps it simple and matches short-job runs).
        # The resource calculator matches the installed scheduler's (stock
        # Hadoop 2.2 = memory-only).
        memory_only = getattr(self.scheduler, "memory_only", False)
        am_limit_mb = self.conf.am_resource_fraction * self.total_capability().memory_mb
        # _am_queue is already in its intended FIFO order; the copy lets the
        # loop dequeue what it places. A blocked AM limit breaks the loop at
        # its first app in any order, so skip ordering the queue then.
        fifo = self._am_queue[:] if self._am_admissible() else []
        for app in self.scheduler.am_queue_order(fifo):
            if self.am_memory_used_mb + app.am_resource.memory_mb > am_limit_mb + 1e-9:
                # maximum-am-resource-percent reached: the head-of-line app
                # (in scheduler order) blocks admission, like the real
                # CapacityScheduler's AM-limit check.
                break
            if node.can_fit(app.am_resource, memory_only=memory_only):
                container = Container(self.next_container_id(), node_id, app.am_resource, app.app_id)
                node.allocate(app.am_resource, memory_only=memory_only)
                self.am_memory_used_mb += app.am_resource.memory_mb
                self._am_container_ids.add(container.container_id)
                app.am_container = container
                self._dequeue_am(app)
                self._launch_am(app)

        for app_id, container in self.scheduler.on_node_heartbeat(node):
            if app_id in self._ready:
                self._ready[app_id].append(container)

    def allocate(self, app_id: str, asks: list[ContainerRequest]) -> list[Container]:
        """AM heartbeat: register asks, collect everything granted so far."""
        if app_id not in self.apps:
            raise KeyError(f"unknown application {app_id}")
        grants = self.scheduler.on_allocate_request(app_id, asks)
        if self.scheduler.queue:
            self._wake_heartbeats()  # asks left for the next NM heartbeat
        ready = self._ready.get(app_id, [])
        if ready:
            self._ready[app_id] = []
        granted = ready + grants
        if self.env.tracer is not None:
            self.env.tracer.metrics.incr("rm:allocate_calls")
            if granted:
                self.env.tracer.metrics.incr("rm:containers_granted",
                                             len(granted))
        return granted

    def node_lost(self, node_id: str) -> None:
        """Mark a NodeManager dead: nothing further is scheduled there."""
        self.set_alive(node_id, False)
        self.log.mark(self.env.now, "node_lost", node=node_id)
        for listener in list(self.node_lost_listeners):
            listener(node_id)

    def node_rejoined(self, node_id: str) -> None:
        """A restarted NodeManager re-registered: schedulable again, empty.

        Accounting resets to zero — every container the node hosted died
        with it and was released through ``container_finished`` (or by the
        framework's node-loss handler for pooled AMs).
        """
        node = self.set_alive(node_id, True)
        if node is not None:
            node.reset_used()
        self.log.mark(self.env.now, "node_rejoined", node=node_id)

    def forget_application(self, app_id: str) -> None:
        """Drop a *finished* application's bookkeeping.

        The RM keeps every Application record for post-run inspection,
        which is fine for one-shot figures but unbounded on a long-lived
        cluster replaying thousands of jobs. The replay driver calls this
        after it has extracted a job's result; forgetting a live app is an
        error.
        """
        app = self.apps.get(app_id)
        if app is None:
            return
        if not app.killed and (app.finished is None or not app.finished.triggered):
            raise ValueError(f"cannot forget live application {app_id}")
        self.apps.pop(app_id, None)
        self._am_attempts.pop(app_id, None)
        self._am_processes.pop(app_id, None)
        self._ready.pop(app_id, None)

    # -- container accounting ----------------------------------------------------------
    def container_finished(self, container: Container) -> None:
        node = self.nodes.get(container.node_id)
        if node is not None:
            node.release(container.resource)
        if container.container_id in self._am_container_ids:
            self._am_container_ids.discard(container.container_id)
            self.am_memory_used_mb -= container.resource.memory_mb
            if self._am_queue:
                self._wake_heartbeats()  # the AM limit loosened
        self.scheduler.on_container_released(container)

    # -- internals -----------------------------------------------------------------------
    def _handle_am_failure(self, app: Application, exc: BaseException) -> None:
        """An AM attempt died. Either relaunch it or fail the application."""
        self.scheduler.remove_app(app.app_id)
        self._ready[app.app_id] = []
        attempt = self._am_attempts.get(app.app_id, 1)
        retriable = (
            not app.killed
            and isinstance(exc, Interrupt)  # AM's node/container died under it
            and attempt < self.conf.am_max_attempts
        )
        if retriable:
            # yarn.resourcemanager.am.max-attempts: relaunch the AM.
            # The application object (and its recovery_maps history)
            # survives, so the next attempt can replay completed
            # tasks when am_work_preserving_recovery is on.
            self._am_attempts[app.app_id] = attempt + 1
            app.am_container = None
            # Re-queue at *now* (no queue jumping over apps submitted since
            # the first attempt); same-instant restarts — a node death kills
            # several AMs at once — fall back on the apps' original
            # submission order via the retained fifo_key.
            app.queue_time = self.env.now
            self._enqueue_am(app)
            self.log.mark(self.env.now, "am_restarted",
                          app_id=app.app_id, attempt=attempt + 1)
            return
        # Terminal: surface the failure through app.finished so the
        # client sees it; don't let the AM process itself become an
        # unhandled event failure.
        self._ready.pop(app.app_id, None)
        if app.finished is not None and not app.finished.triggered:
            app.finished.fail(exc)
            self.log.mark(self.env.now, "app_failed", app_id=app.app_id)
        if not self.retain_finished_apps:
            self.forget_application(app.app_id)

    def _launch_am(self, app: Application, launch_delay: Optional[float] = None) -> None:
        nm = self.node_managers[app.am_container.node_id]
        app.launch_time = self.env.now
        ctx = AMContext(self, app, app.am_container)

        def am_body() -> Generator:
            if app.am_started is not None and not app.am_started.triggered:
                app.am_started.succeed(app.am_container.node_id)
            try:
                result = yield from app.runner(ctx)
            except Exception as exc:
                self._handle_am_failure(app, exc)
                return None
            self.application_finished(app, result)
            return result

        tracer = self.env.tracer
        if tracer is not None:
            # Retrospective: how long the AM container sat in allocation.
            from ..observe.tracer import CLUSTER
            tracer.complete("am-alloc-wait", "alloc", CLUSTER,
                            f"am-{app.app_id}", app.submit_time,
                            placed_on=app.am_container.node_id)
        if self.env.telemetry is not None:
            self.env.telemetry.am_alloc_wait.observe(
                self.env.now - app.submit_time)
        proc = nm.launch(app.am_container, am_body(), name=f"am-{app.app_id}",
                         launch_delay=launch_delay)
        self._am_processes[app.app_id] = proc

        def am_watch() -> Generator:
            # A kill that lands during the JVM launch delay never reaches
            # am_body's handler (the payload generator hasn't started), so
            # watch the container process itself and route the failure
            # through the same retry-or-fail path.
            try:
                yield proc
            except BaseException as exc:
                self._handle_am_failure(app, exc)

        self.env.process(am_watch(), name=f"am-watch-{app.app_id}")
        self.log.mark(self.env.now, "am_allocated", app_id=app.app_id,
                      node=app.am_container.node_id)


def _am_queue_key(app: Application) -> tuple:
    return (app.queue_time, app.fifo_key)


class JobKilled(Exception):
    """Delivered through ``Application.finished`` when a job is killed."""

    def __init__(self, app_id: str, cause: Any = None) -> None:
        super().__init__(f"{app_id} killed ({cause})")
        self.app_id = app_id
        self.cause = cause


class AMContext:
    """Services an ApplicationMaster uses to talk to YARN.

    One ``allocate()`` call == one AM->RM heartbeat exchange (two RPC
    half-trips of latency). The AM implementations loop::

        grants = yield from ctx.allocate(asks)
        ...
        yield from ctx.wait_heartbeat()
    """

    def __init__(self, rm: ResourceManager, app: Application, container: Container) -> None:
        self.rm = rm
        self.env = rm.env
        self.app = app
        self.container = container
        self.node_id = container.node_id
        self.conf = rm.conf
        self.topology = rm.topology

    def allocate(self, asks: list[ContainerRequest]) -> Generator:
        start = self.env.now
        yield self.env.timeout(self.conf.rpc_latency_s)
        grants = self.rm.allocate(self.app.app_id, asks)
        yield self.env.timeout(self.conf.rpc_latency_s)
        if self.env.tracer is not None:
            self.env.tracer.complete(
                "allocate-rpc", "alloc", self.node_id,
                f"am-{self.app.app_id}", start,
                asks=len(asks), grants=len(grants))
        return grants

    def wait_heartbeat(self) -> Generator:
        start = self.env.now
        yield self.env.timeout(self.conf.am_heartbeat_s)
        if self.env.tracer is not None:
            self.env.tracer.complete("heartbeat-wait", "heartbeat",
                                     self.node_id, f"am-{self.app.app_id}",
                                     start)

    def start_container(self, container: Container, runnable: Generator,
                        name: str = "task", launch_delay: Optional[float] = None):
        """startContainers RPC to the NM; returns the container process."""
        nm = self.rm.node_managers[container.node_id]
        return nm.launch(container, runnable, name=name, launch_delay=launch_delay)

    def release(self, container: Container) -> None:
        self.rm.container_finished(container)

    # -- work-preserving recovery (yarn.app.mapreduce.am.job.recovery) -------
    def record_completed_map(self, idx: int, record: Any) -> None:
        """Journal a completed map so a second AM attempt can replay it."""
        self.app.recovery_maps[idx] = record

    def recovered_maps(self) -> dict:
        """Completed-map history journaled by previous AM attempts."""
        return dict(self.app.recovery_maps)

    def node(self, node_id: str):
        return self.rm.topology.node(node_id)
