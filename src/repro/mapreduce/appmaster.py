"""The distributed-mode MRAppMaster (stock Hadoop and D+ share this body).

Lifecycle (paper Figure 1 steps 3-6): init (download splits/conf/jar), ask
the RM for one container per map via the heartbeat loop, match granted
containers to tasks by locality (as the real MRAppMaster does), launch task
JVMs through the NMs, request the reduce container at slow-start, wait for
everything, commit.

Fault tolerance mirrors Hadoop's: a task attempt killed by a node failure
is retried in a fresh container (up to ``max_task_attempts``); a failed
reduce attempt is relaunched and re-fetches the already-completed map
outputs; a reducer's shuffle *fetch failure* (the completed map's output
died with its node) re-executes that map and hands the fresh output to the
blocked fetcher; a second AM attempt replays the completed-map history
journaled on the Application (work-preserving recovery); and nodes that
fail ``max_failures_per_node`` attempts are blacklisted for the rest of
the job.

Whether allocation takes >= 2 heartbeats (stock CapacityScheduler) or
returns in the same heartbeat (D+), and whether grants spread across nodes,
is entirely the *scheduler's* doing — this AM is identical in both modes,
exactly like MRapid's backward-compatible implementation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

from ..hdfs.splits import compute_splits
from ..simulation.errors import Interrupt
from ..simulation.resources import Store
from ..yarn.records import Container, ContainerRequest
from .spec import JobResult, MapOutput, SimJobSpec, TaskRecord
from .tasks import ShuffleService, sim_map_task, sim_reduce_task

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..yarn.resourcemanager import AMContext

REDUCE = -1  # task index used for the single reduce


class JobFailed(Exception):
    """A task ran out of attempts (or the job is otherwise unrecoverable)."""


class OutputBus:
    """Routes map outputs to the *current* reduce attempt's store.

    A reduce retry gets a fresh store preloaded with every already-completed
    map output; maps that finish later put into the new store transparently.
    Outputs are de-duplicated by base task id so a speculative duplicate
    attempt finishing second never double-feeds the reducer.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.store: Store = Store(env)
        self._seen: set[str] = set()

    @staticmethod
    def _base(task_id: str) -> str:
        return task_id.split(".")[0]

    def put(self, item: MapOutput) -> None:
        base = self._base(item.task_id)
        if base in self._seen:
            return
        self._seen.add(base)
        self.store.put(item)

    def rebuild(self, preload: list[MapOutput]) -> Store:
        self.store = Store(self.env)
        self._seen = set()
        for item in preload:
            self.put(item)
        return self.store


class DistributedAM:
    """One job's ApplicationMaster running in its allocated container."""

    def __init__(self, cluster: "SimCluster", spec: SimJobSpec, result: JobResult,
                 request_locality: bool = True,
                 commit_rpc_s: Optional[float] = None,
                 reduce_locality: bool = False) -> None:
        self.cluster = cluster
        self.spec = spec
        self.result = result
        self.request_locality = request_locality
        #: LARTS-style extension: prefer placing the reduce where the most
        #: map output already lives (paper related work [14]).
        self.reduce_locality = reduce_locality
        # Stock Hadoop routes per-task status/commit through RM-side RPC
        # paths; MRapid's framework passes 0 here when it short-circuits them.
        self.commit_rpc_s = (cluster.conf.task_commit_rpc_s
                             if commit_rpc_s is None else commit_rpc_s)
        self._children: list = []

    # -- entry point ----------------------------------------------------------
    def run(self, ctx: "AMContext") -> Generator:
        env = self.cluster.env
        conf = self.cluster.conf
        self.result.am_start_time = env.now
        # A restarted AM attempt reuses this result object: clear the
        # previous attempt's demise before trying again.
        self.result.killed = False
        self.result.failed = False
        self._children = []
        try:
            # AM init: parse conf, download splits / jar from HDFS.
            t_init = env.now
            yield env.timeout(conf.am_init_s)
            if env.tracer is not None:
                env.tracer.complete("am-init", "init", ctx.node_id,
                                    f"am-{ctx.app.app_id}", t_init)

            splits = compute_splits(self.cluster.namenode, self.spec.input_paths)
            n_maps = len(splits)
            bus = OutputBus(env)

            map_records = [TaskRecord(f"m{idx:03d}", "map") for idx in range(n_maps)]
            reduce_record = TaskRecord("r000", "reduce")
            self.result.maps = map_records
            self.result.reduces = [reduce_record]

            container_resource = conf.container_resource()
            blacklisted: set[str] = set()
            node_task_failures: dict[str, int] = {}

            rm_nodes = self.cluster.rm.nodes

            def node_alive(node_id: str) -> bool:
                state = rm_nodes.get(node_id)
                return state is not None and state.alive

            shuffle = ShuffleService(env, node_alive)

            def map_ask(idx: int) -> ContainerRequest:
                prefs = splits[idx].hosts if self.request_locality else ()
                return ContainerRequest(container_resource, tuple(prefs), tag=idx,
                                        blacklist=tuple(sorted(blacklisted)))

            def reduce_ask() -> ContainerRequest:
                prefs: tuple[str, ...] = ()
                if self.reduce_locality:
                    # LARTS: rank nodes by completed map-output bytes.
                    by_node: dict[str, float] = {}
                    for r in map_records:
                        if r.finish_time > 0:
                            by_node[r.node_id] = by_node.get(r.node_id, 0.0) + r.output_mb
                    if by_node:
                        prefs = tuple(sorted(by_node, key=lambda n: -by_node[n])[:3])
                return ContainerRequest(container_resource, prefs, tag="reduce",
                                        blacklist=tuple(sorted(blacklisted)))

            attempts: dict[int, int] = {idx: 0 for idx in range(n_maps)}
            attempts[REDUCE] = 0
            launches: dict[int, int] = {idx: 0 for idx in range(n_maps)}
            running: dict = {}          # proc -> task index (REDUCE for reduce)
            proc_records: dict = {}     # proc -> its attempt's TaskRecord
            proc_nodes: dict = {}       # proc -> node its container ran on
            completed: set[int] = set()
            speculating: set[int] = set()  # tasks with a duplicate in flight
            reduce_requested = False
            reduce_pending = False      # ask sent, container not yet granted
            reduce_done = False
            reduce_threshold = max(1, math.ceil(conf.slowstart_completed_maps * n_maps))

            # Work-preserving recovery: a second AM attempt replays the maps
            # the previous attempt journaled, provided their outputs are
            # still reachable (the hosting node is alive); the rest re-run.
            if conf.am_work_preserving_recovery:
                for idx, old in sorted(ctx.recovered_maps().items()):
                    if idx >= n_maps or old.finish_time <= 0 or not node_alive(old.node_id):
                        continue
                    completed.add(idx)
                    map_records[idx] = old
                    launches[idx] = 1
                    bus.put(MapOutput(old.task_id, old.node_id, old.output_mb,
                                      old.in_memory_output))
                    if env.tracer is not None:
                        env.tracer.instant("map_recovered", "am", ctx.node_id,
                                           f"am-{ctx.app.app_id}",
                                           task=old.task_id, node=old.node_id)
                self.result.maps = map_records

            unassigned = [idx for idx in range(n_maps) if idx not in completed]
            asks = [map_ask(idx) for idx in unassigned]
            ask_times: dict[int, float] = {idx: env.now for idx in unassigned}

            def requeue_grant(container: Container) -> None:
                """Return an unusable grant and restore the ask it consumed.

                D+ grants carry the task tag, so the exact ask is re-issued.
                Stock grants are untagged, but stock asks are fungible at
                match time (:meth:`_pick_task` ignores which ask a container
                answered), so re-asking anything outstanding keeps the
                ask/grant ledger balanced.
                """
                ctx.release(container)
                tag = getattr(container, "tag", None)
                if tag == "reduce":
                    asks.append(reduce_ask())
                elif isinstance(tag, int):
                    asks.append(map_ask(tag))
                elif unassigned:
                    asks.append(map_ask(unassigned[0]))
                elif reduce_pending:
                    asks.append(reduce_ask())

            def relaunch_map(idx: int, cause: str, task_id: str, node: str) -> None:
                """Re-execute a map whose completed output became unreachable."""
                completed.discard(idx)
                ctx.app.recovery_maps.pop(idx, None)
                if env.tracer is not None:
                    env.tracer.instant(cause, "am", ctx.node_id,
                                       f"am-{ctx.app.app_id}",
                                       task=task_id, node=node)
                if idx not in unassigned:
                    unassigned.append(idx)
                    ask_times[idx] = env.now
                    asks.append(map_ask(idx))

            # -- heartbeat loop --------------------------------------------------
            while True:
                grants = yield from ctx.allocate(asks)
                asks = []
                for container in grants:
                    if (not node_alive(container.node_id)
                            or container.node_id in blacklisted):
                        # Granted just before the node died (or was
                        # blacklisted after the ask went out): give the
                        # container back and restore the ask.
                        requeue_grant(container)
                        continue
                    task_idx = self._pick_task(container, splits, unassigned)
                    if task_idx is not None:
                        unassigned.remove(task_idx)
                        record = self._fresh_map_record(task_idx, launches[task_idx])
                        launches[task_idx] += 1
                        if task_idx not in completed:
                            map_records[task_idx] = record
                            self.result.maps = map_records
                        record.phases.wait = env.now - ask_times[task_idx]
                        record.phases.launch = conf.container_launch_s
                        if env.tracer is not None and record.phases.wait > 0:
                            from ..observe.tracer import CLUSTER
                            env.tracer.complete("grant-wait", "wait", CLUSTER,
                                                record.task_id,
                                                ask_times[task_idx],
                                                placed_on=container.node_id)
                        body = sim_map_task(self.cluster, self.spec.profile,
                                            splits[task_idx], container.node_id,
                                            record, bus, conf.task_setup_s,
                                            commit_rpc_s=self.commit_rpc_s)
                        proc = ctx.start_container(container, body,
                                                   name=f"{self.spec.name}-{record.task_id}")
                        # Pre-defuse: attempt failures are harvested by the
                        # heartbeat loop, not by waiting on the process.
                        proc.defuse()
                        running[proc] = task_idx
                        proc_records[proc] = record
                        proc_nodes[proc] = container.node_id
                        self._children.append(proc)
                    elif reduce_pending:
                        reduce_pending = False
                        record = self._fresh_reduce_record(attempts[REDUCE])
                        self.result.reduces = [record]
                        record.phases.launch = conf.container_launch_s
                        body = sim_reduce_task(
                            self.cluster, self.spec.profile, n_maps,
                            container.node_id, record, bus.store,
                            conf.task_setup_s,
                            output_path=f"/out/{self.result.app_id}",
                            commit_rpc_s=self.commit_rpc_s,
                            shuffle=shuffle,
                        )
                        proc = ctx.start_container(
                            container, body, name=f"{self.spec.name}-reduce")
                        proc.defuse()
                        running[proc] = REDUCE
                        proc_records[proc] = record
                        proc_nodes[proc] = container.node_id
                        self._children.append(proc)
                    else:
                        ctx.release(container)  # surplus grant

                # Shuffle fetch failures: a reducer could not pull a completed
                # map's output (it died with its node) and is blocked on a
                # replacement — re-execute those maps, like the real AM does
                # after TOO_MANY_FETCH_FAILURES.
                for lost in shuffle.drain():
                    relaunch_map(int(lost.task_id.split(".")[0][1:]),
                                 "fetch_failure", lost.task_id, lost.node_id)

                # Harvest finished attempts; retry failures; settle duplicates.
                for proc in [p for p in list(running) if not p.is_alive]:
                    idx = running.pop(proc)
                    record = proc_records.pop(proc, None)
                    fail_node = proc_nodes.pop(proc, None)
                    if proc.ok:
                        if idx == REDUCE:
                            reduce_done = True
                            continue
                        if idx not in completed:
                            if record is not None and not node_alive(record.node_id):
                                # The attempt finished, but its machine died
                                # before this heartbeat heard: the output is
                                # already gone. Leave the task incomplete and
                                # re-run it (the drain above may have queued
                                # the relaunch already).
                                if idx not in unassigned:
                                    unassigned.append(idx)
                                    ask_times[idx] = env.now
                                    asks.append(map_ask(idx))
                                continue
                            completed.add(idx)
                            if record is not None:
                                map_records[idx] = record  # winning attempt
                                # Journal for work-preserving AM recovery and
                                # wake any fetcher blocked on this map's output.
                                ctx.record_completed_map(idx, record)
                                shuffle.resolve(record.task_id, MapOutput(
                                    record.task_id, record.node_id,
                                    record.output_mb, record.in_memory_output))
                            # A still-running duplicate lost the race: kill it.
                            for other, other_idx in list(running.items()):
                                if other_idx == idx and other.is_alive:
                                    other.defuse()
                                    other.interrupt("speculative duplicate lost")
                        speculating.discard(idx)
                        if idx in unassigned:
                            unassigned.remove(idx)  # pending dup no longer needed
                        continue
                    if idx != REDUCE and idx in completed:
                        continue  # the losing duplicate of a finished task
                    # Node blacklisting (mapreduce.job.maxtaskfailures.per.tracker):
                    # a machine that keeps failing attempts — gray disk, flaky
                    # JVMs — is taken out of this job's rotation, as long as
                    # at least one other node remains usable.
                    if conf.node_blacklist_enabled and fail_node is not None:
                        node_task_failures[fail_node] = node_task_failures.get(fail_node, 0) + 1
                        if (node_task_failures[fail_node] >= conf.max_failures_per_node
                                and fail_node not in blacklisted
                                and len(blacklisted) < len(rm_nodes) - 1):
                            blacklisted.add(fail_node)
                            if env.tracer is not None:
                                env.tracer.instant(
                                    "node_blacklisted", "am", ctx.node_id,
                                    f"am-{ctx.app.app_id}", node=fail_node,
                                    failures=node_task_failures[fail_node])
                    attempts[idx] += 1
                    if attempts[idx] >= conf.max_task_attempts:
                        raise JobFailed(
                            f"{self.spec.name}: task {idx} failed "
                            f"{attempts[idx]} attempts ({proc.value!r})")
                    if idx == REDUCE:
                        reduce_pending = True
                        # Preload the retry with outputs that are still
                        # reachable; maps whose output died with their node
                        # are re-executed instead of fed to a doomed fetch.
                        preload = []
                        for r_idx, r in enumerate(map_records):
                            if r.finish_time <= 0:
                                continue
                            if not node_alive(r.node_id):
                                relaunch_map(r_idx, "map_output_lost",
                                             r.task_id, r.node_id)
                                continue
                            preload.append(MapOutput(r.task_id, r.node_id,
                                                     r.output_mb,
                                                     r.in_memory_output))
                        bus.rebuild(preload)
                        asks.append(reduce_ask())
                    else:
                        speculating.discard(idx)
                        if idx not in unassigned:
                            unassigned.append(idx)
                            ask_times[idx] = env.now
                            asks.append(map_ask(idx))

                # In-job straggler speculation (mapreduce.map.speculative):
                # duplicate attempts for tasks running well past the average.
                if conf.speculative_tasks and len(completed) >= conf.speculative_min_completed:
                    done_times = [map_records[i].elapsed for i in completed]
                    avg_elapsed = sum(done_times) / len(done_times)
                    for proc, idx in list(running.items()):
                        if idx == REDUCE or idx in speculating or idx in completed:
                            continue
                        rec = proc_records.get(proc)
                        if rec is None or rec.start_time <= 0:
                            continue
                        if (env.now - rec.start_time) > conf.speculative_slowness * avg_elapsed:
                            speculating.add(idx)
                            unassigned.append(idx)
                            ask_times[idx] = env.now
                            asks.append(map_ask(idx))

                if not reduce_requested and len(completed) >= reduce_threshold:
                    reduce_requested = True
                    reduce_pending = True
                    asks.append(reduce_ask())

                if len(completed) == n_maps and reduce_done:
                    break
                yield from ctx.wait_heartbeat()

            self.result.num_waves = self._count_waves(map_records)
            self.result.finish_time = env.now
            return self.result
        except BaseException as exc:
            if isinstance(exc, Interrupt):
                self.result.killed = True
            else:
                self.result.failed = True
            for proc in self._children:
                if proc.is_alive:
                    proc.defuse()
                    proc.interrupt("job aborted")
            raise

    # -- helpers ------------------------------------------------------------------
    def _fresh_map_record(self, idx: int, attempt: int) -> TaskRecord:
        suffix = f"m{idx:03d}" if attempt == 0 else f"m{idx:03d}.a{attempt}"
        return TaskRecord(suffix, "map")

    def _fresh_reduce_record(self, attempt: int) -> TaskRecord:
        suffix = "r000" if attempt == 0 else f"r000.a{attempt}"
        return TaskRecord(suffix, "reduce")

    def _pick_task(self, container: Container, splits, unassigned: list[int]) -> Optional[int]:
        """Match a granted container to the best waiting map task.

        Honors the scheduler's explicit assignment (D+ tags grants with the
        task index); otherwise picks by locality like the stock MRAppMaster:
        node-local first, then rack-local, then any.
        """
        if not unassigned:
            return None
        tag = getattr(container, "tag", None)
        if tag is not None and tag in unassigned:
            return tag
        if tag == "reduce":
            return None
        from ..cluster.topology import Locality

        topo = self.cluster.topology
        best_idx = None
        best_level = None
        for idx in unassigned:
            level = topo.locality(container.node_id, splits[idx].hosts)
            if best_level is None or level < best_level:
                best_level = level
                best_idx = idx
                if level == Locality.NODE_LOCAL:
                    break
        return best_idx

    @staticmethod
    def _count_waves(records: list[TaskRecord]) -> int:
        """n^w estimated as ceil(#maps / peak map concurrency)."""
        if not records:
            return 0
        events = []
        for r in records:
            events.append((r.start_time, 1))
            events.append((r.finish_time, -1))
        events.sort()
        peak = cur = 0
        for _, delta in events:
            cur += delta
            peak = max(peak, cur)
        return max(1, math.ceil(len(records) / max(1, peak)))
