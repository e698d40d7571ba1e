"""MRapid's job submission framework: proxy, AM pool, client, AMSlaves.

Paper §III-C: a proxy service maintains a pool of pre-launched
ApplicationMaster containers (3 by default). Submitting a short job picks a
warm AM from the pool — skipping AM container allocation *and* JVM launch —
and sends it the job over RPC. When the pool is exhausted, submissions wait
at the proxy, and each freed AM goes to the waiter the RM scheduler ranks
first (:meth:`~repro.yarn.scheduler.SchedulerBase.priority_key`: FIFO by
arrival, or HFSP's aged size), as the RM's own AM queue does. With
``use_am_pool=False`` the framework degrades to the stock Figure 1 path
(used by the Figure 14/15 ablations).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..cluster.resources import ResourceVector
from ..config import MRapidConfig
from ..mapreduce.appmaster import DistributedAM
from ..mapreduce.spec import JobResult, SimJobSpec
from ..simulation.errors import Interrupt
from ..simulation.events import DEFERRED, Event
from ..yarn.records import Application, Container
from ..yarn.resourcemanager import AMContext
from .uplus import UPlusAM

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..simulation.events import Process

MODE_DPLUS = "mrapid-dplus"
MODE_UPLUS = "mrapid-uplus"


class AMSlave:
    """A warm AM JVM parked on a node, ready to accept a job from the proxy."""

    def __init__(self, framework: "SubmissionFramework", container: Container) -> None:
        self.framework = framework
        self.container = container
        self.slot_id = next(framework._slot_ids)
        #: Running a job right now (vs parked in the pool).
        self.busy = False
        #: Died with its node; must never return to the pool.
        self.failed = False
        #: The current job's AM process (interrupted if the node dies).
        self.job_proc: Optional["Process"] = None

    @property
    def node_id(self) -> str:
        return self.container.node_id


class JobHandle:
    """Client-side handle: wait on ``.proc`` for the JobResult, or kill."""

    def __init__(self, cluster: "SimCluster", spec: SimJobSpec, mode: str) -> None:
        self.cluster = cluster
        self.spec = spec
        self.mode = mode
        self.proc: Optional["Process"] = None
        self.result: Optional[JobResult] = None
        self._job_proc: Optional["Process"] = None
        self._app: Optional[Application] = None

    def kill(self, cause: Any = "speculative loser") -> None:
        """Terminate the job (paper §III-C step 6). Idempotent."""
        if self.result is not None and self.result.finish_time > 0 and not self.result.killed:
            return  # already finished
        if self._job_proc is not None and self._job_proc.is_alive:
            self._job_proc.defuse()
            self._job_proc.interrupt(cause)
        elif self._app is not None:
            self.cluster.rm.kill_application(self._app, cause)


class SubmissionFramework:
    """Proxy + client + AM pool, bound to one simulated cluster."""

    def __init__(self, cluster: "SimCluster", mrapid: Optional[MRapidConfig] = None) -> None:
        from .decision import DecisionMaker  # local import: avoid cycle

        self.cluster = cluster
        self.mrapid = mrapid if mrapid is not None else MRapidConfig()
        #: Warm AMs parked at the proxy, longest-parked first.
        self.parked: list[AMSlave] = []
        #: Jobs waiting for a warm AM: (application, is U+, grant event).
        self._waiting: list[tuple[Application, bool, Event]] = []
        self._serve_armed = False
        self.slaves: list[AMSlave] = []
        # Slot ids are per-framework (not module-level): a process-global
        # counter would make traced slot numbers depend on how many clusters
        # ran earlier in the same process.
        self._slot_ids = itertools.count(1)
        #: Shared across all speculative submissions on this cluster, so the
        #: second run of a known job skips the dual launch (§III-C step 2).
        self.decision_maker = DecisionMaker()
        if self.mrapid.use_am_pool:
            self._fill_pool()
            # Pooled AMs bypass the RM's container machinery, so the proxy
            # must watch for node losses itself: kill jobs whose warm AM died
            # with its machine and heal the pool on a survivor.
            cluster.rm.node_lost_listeners.append(self._handle_node_loss)

    # -- pool bootstrap -----------------------------------------------------
    def _fill_pool(self) -> None:
        """Reserve and pre-launch ``am_pool_size`` AMs, spread across nodes."""
        env = self.cluster.env
        conf = self.cluster.conf
        nodes = sorted(self.cluster.rm.nodes.values(),
                       key=lambda n: (-n.available.memory_mb, n.node_id))
        am_resource = ResourceVector(conf.am_memory_mb, conf.am_vcores)
        for i in range(self.mrapid.am_pool_size):
            node = nodes[i % len(nodes)]
            if not node.can_fit(am_resource):
                candidates = [n for n in nodes if n.can_fit(am_resource)]
                if not candidates:
                    break  # pool smaller than configured; cluster too tight
                node = candidates[0]
            container = Container(self.cluster.rm.next_container_id(), node.node_id,
                                  am_resource, app_id="ampool")
            node.allocate(am_resource)
            slave = AMSlave(self, container)
            self.slaves.append(slave)
            # The proxy is a long-running service: its AMs were launched when
            # the cluster came up, long before any short job arrives, so the
            # pool is warm at t=0 (launch cost paid outside the measured
            # window — that is the whole point of reusing AMs).
            self.parked.append(slave)

    # -- fault handling -----------------------------------------------------------
    def _handle_node_loss(self, node_id: str) -> None:
        """A machine hosting pool AMs died: fail its slaves, heal the pool."""
        dead = [s for s in self.slaves if s.node_id == node_id]
        if not dead:
            return
        env = self.cluster.env
        state = self.cluster.rm.nodes.get(node_id)
        for slave in dead:
            slave.failed = True
            self.slaves.remove(slave)
            # Parked slaves leave the pool; busy ones die with their job
            # (the job is killed — pooled AMs have no RM restart path, like
            # a real long-running service container).
            if slave in self.parked:
                self.parked.remove(slave)
            if slave.job_proc is not None and slave.job_proc.is_alive:
                slave.job_proc.defuse()
                slave.job_proc.interrupt("AM node failure")
            if state is not None:
                state.release(slave.container.resource)
        env.process(self._respawn_slaves(len(dead)),
                    name=f"ampool-respawn-{node_id}")
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.instant("ampool_slaves_lost", "ampool", CLUSTER,
                               "ampool", node=node_id, count=len(dead))

    def _respawn_slaves(self, count: int) -> Generator:
        """Launch replacement warm AMs on surviving nodes (pays JVM launch)."""
        conf = self.cluster.conf
        yield self.cluster.env.timeout(conf.container_launch_s)
        am_resource = ResourceVector(conf.am_memory_mb, conf.am_vcores)
        spawned = 0
        for _ in range(count):
            nodes = sorted(
                (n for n in self.cluster.rm.nodes.values()
                 if n.alive and n.can_fit(am_resource)),
                key=lambda n: (-n.available.memory_mb, n.node_id))
            if not nodes:
                break  # cluster too tight; pool stays smaller
            node = nodes[0]
            container = Container(self.cluster.rm.next_container_id(), node.node_id,
                                  am_resource, app_id="ampool")
            node.allocate(am_resource)
            slave = AMSlave(self, container)
            self.slaves.append(slave)
            self._park(slave)
            spawned += 1
        tracer = self.cluster.env.tracer
        if tracer is not None:
            from ..observe.tracer import CLUSTER
            tracer.instant("ampool_respawned", "ampool", CLUSTER, "ampool",
                           count=spawned)

    # -- the proxy's warm-AM wait ------------------------------------------------
    def _park(self, slave: AMSlave) -> None:
        self.parked.append(slave)
        self._arm_serve()

    def _wait_for_am(self, app: Application, mode: str) -> Event:
        """Queue ``app`` for a warm AM; the event's value is its AMSlave."""
        grant = self.cluster.env.event()
        self._waiting.append((app, mode == MODE_UPLUS, grant))
        self._arm_serve()
        return grant

    def _arm_serve(self) -> None:
        if self._serve_armed or not (self.parked and self._waiting):
            return
        self._serve_armed = True
        # DEFERRED: the serve runs after every other event of its instant,
        # so it ranks all of that instant's waiters together, whichever
        # order their submissions' events were queued in.
        self.cluster.env.timeout(0, priority=DEFERRED).callbacks.append(self._serve)

    def _serve(self, _event: Event) -> None:
        """Hand parked AMs to the waiters the RM scheduler ranks first; a
        speculative job's D+ half before its U+ half (they share a key)."""
        self._serve_armed = False
        key, now = self.cluster.rm.scheduler.priority_key, self.cluster.env.now
        self._waiting.sort(key=lambda waiter: (key(waiter[0], now), waiter[1]))
        while self.parked and self._waiting:
            self._waiting.pop(0)[2].succeed(self.parked.pop(0))

    # -- submission ---------------------------------------------------------------
    def submit(self, spec: SimJobSpec, mode: str) -> JobHandle:
        """Submit a short job in ``mode`` (MODE_DPLUS or MODE_UPLUS)."""
        if mode not in (MODE_DPLUS, MODE_UPLUS):
            raise ValueError(f"unknown MRapid mode {mode!r}")
        if spec.seq is None:  # no replay driver: arrival order is call order
            spec = replace(spec, seq=self.cluster.rm.next_seq())
        handle = JobHandle(self.cluster, spec, mode)
        body = self._run_pooled(spec, mode, handle) if self.mrapid.use_am_pool \
            else self._run_unpooled(spec, mode, handle)
        handle.proc = self.cluster.env.process(
            body, name=f"mrapid-{spec.name}-{mode}")
        return handle

    def run(self, spec: SimJobSpec, mode: str) -> JobResult:
        handle = self.submit(spec, mode)
        self.cluster.env.run(until=handle.proc)
        return handle.proc.value

    # -- runners -----------------------------------------------------------------
    def _make_am(self, spec: SimJobSpec, mode: str, result: JobResult):
        commit_rpc_s = (0.0 if self.mrapid.reduce_communication
                        else self.cluster.conf.task_commit_rpc_s)
        if mode == MODE_DPLUS:
            return DistributedAM(self.cluster, spec, result,
                                 commit_rpc_s=commit_rpc_s,
                                 reduce_locality=self.mrapid.reduce_locality_aware)
        return UPlusAM(self.cluster, spec, result, self.mrapid)

    def _run_pooled(self, spec: SimJobSpec, mode: str, handle: JobHandle) -> Generator:
        env = self.cluster.env
        conf = self.cluster.conf
        rm = self.cluster.rm
        app_id = rm.next_app_id("mrapid")
        result = JobResult(app_id=app_id, job_name=spec.name, mode=mode,
                           submit_time=env.now)
        handle.result = result

        # Client: job id from HDFS, upload jar + conf, submit to proxy.
        yield env.timeout(conf.client_submit_s)
        tracer = env.tracer
        if tracer is not None:
            from ..observe.tracer import CLUSTER
            tracer.complete("client-submit", "submit", CLUSTER,
                            f"job:{app_id}", result.submit_time, app_id=app_id)

        # Proxy: pick a warm AM (waits when the pool is empty).
        t_pool = env.now
        app = Application(app_id=app_id, name=spec.name,
                          am_resource=ResourceVector(conf.am_memory_mb, conf.am_vcores),
                          runner=lambda ctx: iter(()),
                          submit_time=result.submit_time, seq=spec.seq,
                          queue_time=t_pool)
        slave = yield self._wait_for_am(app, mode)
        slave.busy = True
        # Service time (HFSP's size sample) runs from here, as for an AM
        # the RM launches.
        app.launch_time = env.now
        if tracer is not None and env.now > t_pool:
            from ..observe.tracer import CLUSTER
            tracer.complete("am-pool-wait", "wait", CLUSTER, f"job:{app_id}",
                            t_pool, slot=slave.slot_id)
        try:
            # Proxy -> AMSlave RPC carrying the job description.
            t_rpc = env.now
            yield env.timeout(conf.rpc_latency_s)
            if tracer is not None:
                tracer.complete("proxy-rpc", "rpc", slave.node_id,
                                f"am-{app_id}", t_rpc)

            rm.apps[app_id] = app
            rm._ready[app_id] = []
            handle._app = app

            ctx = AMContext(rm, app, slave.container)
            am = self._make_am(spec, mode, result)
            job_proc = env.process(am.run(ctx), name=f"am-{app_id}")
            handle._job_proc = job_proc
            slave.job_proc = job_proc
            try:
                final: JobResult = yield job_proc
            except Interrupt:
                result.killed = True
                result.finish_time = env.now
                return result
            except Exception:
                result.failed = True
                result.finish_time = env.now
                return result
            else:
                rm.scheduler.on_app_finished(app, final)
            finally:
                rm.scheduler.remove_app(app_id)
                rm.apps.pop(app_id, None)
                rm._ready.pop(app_id, None)
            if tracer is not None:
                from ..observe.tracer import CLUSTER
                tracer.complete(spec.name, "job", CLUSTER, f"job:{app_id}",
                                result.submit_time, app_id=app_id, mode=mode)
            return final
        finally:
            # The AM survives the job and goes back to the pool — unless its
            # node died under it, in which case the loss handler already
            # scheduled a replacement. (Plain call: yielding inside a
            # finally block would break generator close()).
            slave.busy = False
            slave.job_proc = None
            if not slave.failed:
                self._park(slave)

    def _run_unpooled(self, spec: SimJobSpec, mode: str, handle: JobHandle) -> Generator:
        """Figure 1 path: allocate + launch a fresh AM for this job."""
        env = self.cluster.env
        conf = self.cluster.conf
        app_id = self.cluster.rm.next_app_id("mrapid")
        result = JobResult(app_id=app_id, job_name=spec.name, mode=mode,
                           submit_time=env.now)
        handle.result = result

        yield env.timeout(conf.client_submit_s)
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.complete("client-submit", "submit", CLUSTER,
                                f"job:{app_id}", result.submit_time,
                                app_id=app_id)
        am = self._make_am(spec, mode, result)
        app = Application(
            app_id=app_id,
            name=spec.name,
            am_resource=ResourceVector(conf.am_memory_mb, conf.am_vcores),
            runner=am.run,
            seq=spec.seq,
        )
        handle._app = app
        self.cluster.rm.submit_application(app)
        try:
            final: JobResult = yield app.finished
        except Exception:
            result.killed = True
            result.finish_time = env.now
            return result
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.complete(spec.name, "job", CLUSTER, f"job:{app_id}",
                                result.submit_time, app_id=app_id, mode=mode)
        return final
