"""ResourceManager: application lifecycle, allocation plumbing, AM context.

The RM is the hub the paper's Figures 2/3 revolve around:

* stock path — AM asks are queued at CONTAINER_STATUS_UPDATE and served only
  when some NM heartbeat (NODE_STATUS_UPDATE) reaches the scheduler; the AM
  sees the grants on *its* next heartbeat (>= 2 heartbeats of latency);
* D+ path — a scheduler whose ``on_allocate_request`` returns grants
  allocates from the RM's live ClusterResource snapshot inside the same
  allocate() RPC.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional, Sequence

from ..cluster.resources import ResourceVector
from ..simulation.errors import Interrupt
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
                 conf: "HadoopConfig") -> None:
        self.env = env
        self.topology = topology
        self.scheduler = scheduler
        self.conf = conf
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
        self._admit(topology.nodes)
        scheduler.bind(self)

        self.node_managers: dict[str, "NodeManager"] = {}
        #: Every registered application (all the RM's state for its job).
        self.apps: dict[str, Application] = {}
        #: Applications whose AM container is not allocated yet; each beat
        #: serves them in ``scheduler.priority_key`` order. Only
        #: :meth:`_enqueue_am` and :meth:`_dequeue_am` change it.
        self._am_queue: list[Application] = []
        #: Multiset of the queued AMs' memory sizes (size -> count; usually
        #: one size), so the smallest queued AM is an O(1) read.
        self._am_queue_mb: dict[int, int] = {}
        #: Fallback ``Application.seq`` source for jobs submitted without one.
        self._submit_seq = count()
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

    def next_seq(self) -> int:
        """An arrival sequence for a job submitted without one."""
        return next(self._submit_seq)

    def register_node_managers(self, nms: Sequence["NodeManager"]) -> None:
        """Take in ``nms``, in order, each on the wheel at its heartbeat offset."""
        self.node_managers.update((nm.node_id, nm) for nm in nms)
        if self.heartbeat_wheel is not None:
            self.heartbeat_wheel.register_all(
                [(nm.node_id, nm.heartbeat_offset) for nm in nms])

    def add_node(self, node) -> None:
        """Admit a node provisioned after RM construction (elastic scale-up)."""
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id!r} already registered")
        self._admit((node,))
        if self._am_queue:
            self._wake_heartbeats()  # capacity and the AM limit rose

    def _admit(self, nodes: Iterable) -> None:
        """One NodeState per node, in order, advertising its capability
        with ``effective_vcores`` applied; the totals are summed as ints."""
        watcher, wheel = self._on_node_usage, self.heartbeat_wheel
        memory = vcores = 0
        for node in nodes:
            capability = node.capability
            advertised = ResourceVector(
                capability.memory_mb, self.conf.effective_vcores(capability.vcores))
            self.nodes[node.node_id] = NodeState(node.node_id, advertised,
                                                 watcher=watcher, wheel=wheel)
            memory += advertised.memory_mb
            vcores += advertised.vcores
            rack = self._rack_of[node.node_id] = node.rack
            self.rack_registered[rack] = self.rack_registered.get(rack, 0) + 1
            self.rack_alive[rack] = self.rack_alive.get(rack, 0) + 1
        total = self._total_capability
        self._total_capability = ResourceVector(total.memory_mb + memory,
                                                total.vcores + vcores)

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
    def register_application(self, app: Application) -> Application:
        """Enter ``app`` into :attr:`apps`. Its tenant queue is outside
        input, so it is checked first: an unknown queue, or a queue on a
        scheduler without queues, raises ``ValueError`` and records
        nothing. MRapid's proxy registers the job its warm AM takes."""
        if app.app_id in self.apps:
            raise ValueError(f"duplicate application {app.app_id}")
        if app.queue is not None:
            queues = getattr(self.scheduler, "queues", None)
            if queues is None:
                raise ValueError("queue routing needs the multi-tenant scheduler")
            if app.queue not in queues:
                raise ValueError(f"unknown queue {app.queue!r}")
        self.apps[app.app_id] = app
        return app

    def submit_application(self, app: Application) -> Application:
        """Register ``app`` and queue its AM (stock Figure 1 steps 2-3)."""
        self.register_application(app)
        app.submit_time = self.env.now
        if app.seq is None:
            app.seq = self.next_seq()
        app.queue_time = self.env.now
        app.finished = self.env.event()
        app.am_attempts = 1
        self._enqueue_am(app)
        return app

    def application_finished(self, app: Application, result: Any) -> None:
        """The AM returned ``result``: the application succeeded."""
        self.scheduler.on_app_finished(app, result)
        self._end(app, result)

    def application_failed(self, app: Application, exc: BaseException) -> None:
        """The AM's last attempt died with ``exc``: the application failed."""
        self._end(app, exc=exc)

    def kill_application(self, app: Application, cause: Any = "killed") -> None:
        """Terminate an application: AM process interrupted, asks dropped."""
        if app.ended:
            return
        app.killed = True
        for queued in [a for a in self._am_queue if a.app_id == app.app_id]:
            self._dequeue_am(queued)
        proc = app.am_process
        if proc is not None and proc.is_alive:
            proc.defuse()
            proc.interrupt(cause)
        self._end(app, exc=JobKilled(app.app_id, cause))
        if app.finished is not None:
            app.finished.defuse()

    def _end(self, app: Application, result: Any = None,
             exc: Optional[BaseException] = None) -> None:
        """The terminal outcome: the app's queued asks and unfetched grants
        go, and ``app.finished`` carries ``result`` or ``exc``."""
        app.ended = True
        self.scheduler.remove_app(app.app_id)
        app.unfetched = []
        if app.finished is not None and not app.finished.triggered:
            if exc is None:
                app.finished.succeed(result)
            else:
                app.finished.fail(exc)
        if not self.retain_finished_apps:
            self.forget_application(app.app_id)

    # -- AM queue ------------------------------------------------------------------
    def _enqueue_am(self, app: Application) -> None:
        """Queue ``app``'s AM; a beat may now place it."""
        self._am_queue.append(app)
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
            self.env.tracer.counter("rm:node_heartbeats").inc()

        # AM allocation takes precedence, in the scheduler's priority_key
        # order. The resource calculator matches the installed scheduler's
        # (stock Hadoop 2.2 = memory-only).
        memory_only = getattr(self.scheduler, "memory_only", False)
        am_limit_mb = self.conf.am_resource_fraction * self.total_capability().memory_mb
        # A blocked AM limit breaks the loop at its first app in any order,
        # so skip ordering the queue then.
        key, now = self.scheduler.priority_key, self.env.now
        queued = (sorted(self._am_queue, key=lambda app: key(app, now))
                  if self._am_admissible() else [])
        for app in queued:
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
            app = self.apps.get(app_id)
            if app is not None and not app.ended:
                app.unfetched.append(container)

    def allocate(self, app_id: str, asks: list[ContainerRequest]) -> list[Container]:
        """AM heartbeat: register asks, collect everything granted so far."""
        app = self.apps.get(app_id)
        if app is None:
            raise KeyError(f"unknown application {app_id}")
        grants = self.scheduler.on_allocate_request(app_id, asks)
        if self.scheduler.queue:
            self._wake_heartbeats()  # asks left for the next NM heartbeat
        granted = app.unfetched + grants
        app.unfetched = []
        if self.env.tracer is not None:
            self.env.tracer.counter("rm:allocate_calls").inc()
            if granted:
                self.env.tracer.counter("rm:containers_granted").inc(
                    len(granted))
        return granted

    def node_lost(self, node_id: str) -> None:
        """Mark a NodeManager dead: nothing further is scheduled there."""
        self.set_alive(node_id, False)
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
        if not app.ended:
            raise ValueError(f"cannot forget live application {app_id}")
        del self.apps[app_id]

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
        retriable = (
            not app.killed
            and isinstance(exc, Interrupt)  # AM's node/container died under it
            and app.am_attempts < self.conf.am_max_attempts
        )
        if retriable:
            # yarn.resourcemanager.am.max-attempts: relaunch the AM. The
            # application object (its tenant queue and recovery_maps
            # history) survives, so the next attempt is charged to the
            # same queue and can replay completed tasks when
            # am_work_preserving_recovery is on. The dead attempt's asks
            # and unfetched grants go.
            self.scheduler.remove_app(app.app_id)
            app.unfetched = []
            app.am_attempts += 1
            app.am_container = None
            # Re-queue at *now* (no queue jumping over apps submitted since
            # the first attempt); same-instant restarts — a node death kills
            # several AMs at once — fall back on the apps' original
            # arrival order via the retained seq.
            app.queue_time = self.env.now
            self._enqueue_am(app)
            if self.env.tracer is not None:
                from ..observe.tracer import CLUSTER
                self.env.tracer.instant("am_restarted", "am", CLUSTER,
                                        f"am-{app.app_id}", app_id=app.app_id,
                                        attempt=app.am_attempts)
            return
        # Terminal: surface the failure through app.finished so the
        # client sees it; don't let the AM process itself become an
        # unhandled event failure.
        self.application_failed(app, exc)

    def _launch_am(self, app: Application) -> None:
        nm = self.node_managers[app.am_container.node_id]
        app.launch_time = self.env.now
        ctx = AMContext(self, app, app.am_container)

        def am_body() -> Generator:
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
            tracer.instant("am_allocated", "am", CLUSTER, f"am-{app.app_id}",
                           app_id=app.app_id, node=app.am_container.node_id)
        if self.env.telemetry is not None:
            self.env.telemetry.am_alloc_wait.observe(
                self.env.now - app.submit_time)
        proc = app.am_process = nm.launch(app.am_container, am_body(),
                                          name=f"am-{app.app_id}")

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
                        name: str = "task"):
        """startContainers RPC to the NM; returns the container process."""
        nm = self.rm.node_managers[container.node_id]
        return nm.launch(container, runnable, name=name)

    def release(self, container: Container) -> None:
        self.rm.container_finished(container)
