"""Simulated task bodies: the timed sub-phases of map and reduce attempts.

Phase structure follows the paper's Equation 1 decomposition:
map = setup + read (s^i/d^o) + map (t^m) + spill (s^o/d^i) [+ merge
(s^o/d^o + s^o/d^i)]; reduce = shuffle + [merge] + reduce + write. All I/O
goes through the contended devices, so packing tasks on one node slows them
down the way it does on real hardware.

A finished map advertises its own :class:`~.spec.TaskRecord` to the
reducer: through :class:`ShuffleService`, the distributed AM attempt's
shuffle channel, or through a plain :class:`Store` in Uber and U+.

Every wait is interrupt-safe: killing a task (speculative execution
terminating the slower mode) also kills its in-flight disk/network/CPU
flows so no phantom load stays behind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Protocol, Union

from ..cluster.fabric import Flow, FlowKilled
from ..hdfs.block import InputSplit
from ..simulation.errors import Interrupt
from ..simulation.resources import Store
from ..workloads.base import WorkloadProfile, attempt_fails, task_skew_factor
from .spec import TaskRecord, base_task_id

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..simulation.events import Event


class TransientTaskError(Exception):
    """Injected attempt failure (bad sector, OOM-killed JVM, ...)."""


class FetchFailure(Exception):
    """A shuffle fetch cannot be served: the map output died with its node.
    Its argument is the lost map's record."""


class ShuffleService:
    """One AM attempt's shuffle channel: the map outputs advertised to the
    current reduce attempt, and the reducer <-> AM fetch-failure channel.

    :attr:`store` holds each task's output once (a speculative duplicate
    finishing second never double-feeds the reducer); a reduce retry gets
    a fresh one (:meth:`rebuild`), preloaded with the completed outputs.

    Real Hadoop: a reducer that cannot fetch a map's output reports the
    failure through the umbilical; after enough reports the AM re-executes
    the completed map and the reducer retries against the fresh output. Here
    a fetcher calls :meth:`report_fetch_failure` and waits on the returned
    event; the AM drains the reports each heartbeat, re-runs the maps, and
    :meth:`resolve`\\ s each waiter with the replacement's record.
    """

    def __init__(self, env, is_node_alive: Callable[[str], bool]) -> None:
        self.env = env
        self.is_node_alive = is_node_alive
        self.store: Store = Store(env)
        self._seen: set[str] = set()
        #: Reported failures the AM has not seen yet.
        self.pending: list[TaskRecord] = []
        self._waiters: dict[str, "Event"] = {}

    def put(self, record: TaskRecord) -> None:
        """Advertise a finished map's output to the current reduce attempt."""
        base = base_task_id(record.task_id)
        if base not in self._seen:
            self._seen.add(base)
            self.store.put(record)

    def rebuild(self, preload: list[TaskRecord]) -> None:
        """A fresh store for a reduce retry, holding ``preload``."""
        self.store, self._seen = Store(self.env), set()
        for record in preload:
            self.put(record)

    def report_fetch_failure(self, record: TaskRecord) -> "Event":
        """Register a failed fetch; returns the replacement-output event."""
        base = base_task_id(record.task_id)
        ev = self._waiters.get(base)
        if ev is None:
            ev = self.env.event()
            self._waiters[base] = ev
            self.pending.append(record)
        return ev

    def drain(self) -> list[TaskRecord]:
        """AM side: collect fetch failures reported since the last
        heartbeat, by task id: fetchers failing at one instant report in
        whichever order their events ran, and the AM re-runs the maps in
        the order it drains them."""
        reported, self.pending = self.pending, []
        return sorted(reported, key=lambda record: record.task_id)

    def resolve(self, replacement: TaskRecord) -> None:
        """AM side: a re-executed map finished; wake the blocked fetcher."""
        ev = self._waiters.pop(base_task_id(replacement.task_id), None)
        if ev is not None and not ev.triggered:
            ev.succeed(replacement)


def wait_flow(flow: Flow) -> Generator:
    """Yield until ``flow`` completes; kill it if we are interrupted."""
    try:
        value = yield flow.done
        return value
    except Interrupt:
        flow.fabric.kill(flow)
        raise


def read_split_interruptible(cluster: "SimCluster", split: InputSplit,
                             at_node: str) -> Generator:
    """HDFS split read that cancels its disk/net flows on interruption.

    A read torn mid-stream by the source DataNode dying (its flows are
    killed) fails over to a surviving replica, exactly like a DFSClient
    rotating through block locations. Returns the replica node the bytes
    finally came from.
    """
    tried: set[str] = set()
    while True:
        file = cluster.namenode.get_file(split.path)
        block = file.blocks[split.split_index]
        candidates = [r for r in block.replicas if r not in tried]
        source = cluster.topology.closest_replica(at_node, candidates)
        if source is None:
            raise RuntimeError(f"no replicas for block {block.block_id}")
        if split.length_mb <= 0:
            return source
        disk = cluster.topology.node(source).disk.read(split.length_mb, label="split")
        flows = [disk]
        wait = disk.done
        if source != at_node:
            net = cluster.network.transfer(source, at_node, split.length_mb, label="split")
            flows.append(net)
            wait = disk.done & net.done
        try:
            yield wait
        except Interrupt:
            for flow in flows:
                flow.fabric.kill(flow)
            raise
        except FlowKilled:
            # The source machine died under us; drop the surviving sibling
            # flow and restart the read from another replica (the NameNode's
            # replica list is already pruned by the replication manager).
            for flow in flows:
                flow.fabric.kill(flow)
            tried.add(source)
            continue
        return source


class MemoryCache(Protocol):
    """Intermediate-data cache interface (U+ mode implements it)."""

    def try_reserve(self, mb: float) -> bool: ...  # pragma: no cover


def _phase_span(env, record: TaskRecord, name: str, cat: str, start: float,
                parent=None, **args) -> None:
    """Retrospective phase span on the task's lane (no-op untraced)."""
    if env.tracer is not None:
        env.tracer.complete(name, cat, record.node_id, record.task_id, start,
                            parent=parent, **args)


def sim_map_task(cluster: "SimCluster", profile: WorkloadProfile, split: InputSplit,
                 node_id: str, record: TaskRecord, outputs: Union[Store, ShuffleService],
                 setup_s: float, memory_cache: Optional[MemoryCache] = None,
                 commit_rpc_s: float = 0.0) -> Generator:
    """One map attempt on ``node_id`` (container already launched)."""
    env = cluster.env
    conf = cluster.conf
    node = cluster.topology.node(node_id)
    record.node_id = node_id
    record.start_time = env.now
    record.input_mb = split.length_mb
    record.locality = cluster.topology.locality(node_id, split.hosts)
    root = None
    if env.tracer is not None:
        root = env.tracer.begin(record.task_id, "task", node_id,
                                record.task_id, split_mb=split.length_mb)
    try:
        # setup sub-phase
        if setup_s > 0:
            t = env.now
            yield env.timeout(setup_s)
            _phase_span(env, record, "setup", "setup", t, parent=root)
        record.phases.setup = setup_s

        # Injected transient failures surface here (deterministic per
        # attempt). finish_time stays 0: an aborted attempt never
        # advertises output.
        if attempt_fails(profile, f"{split.path}#{split.split_index}#{record.task_id}"):
            raise TransientTaskError(record.task_id)

        # read sub-phase: s^i / d^o (possibly remote)
        t = env.now
        record.source_node = yield from read_split_interruptible(cluster, split, node_id)
        record.phases.read = env.now - t
        _phase_span(env, record, "read", "read", t, parent=root,
                    source=record.source_node)

        # map sub-phase: t^m on the contended CPU (with deterministic per-task
        # data skew, as real record mixes are not uniform)
        t = env.now
        skew = task_skew_factor(profile, f"{split.path}#{split.split_index}")
        cpu = node.cpu.compute(profile.map_cpu_s(split.length_mb) * skew,
                               label=record.task_id)
        yield from wait_flow(cpu)
        record.phases.compute = env.now - t
        _phase_span(env, record, "map", "compute", t, parent=root)

        # spill / merge sub-phases
        out_mb = profile.map_output_mb(split.length_mb)
        in_memory = False
        if memory_cache is not None and out_mb > 0:
            in_memory = memory_cache.try_reserve(out_mb)
        if not in_memory and out_mb > 0:
            t = env.now
            yield from wait_flow(node.disk.write(out_mb, label="spill"))
            record.phases.spill = env.now - t
            _phase_span(env, record, "spill", "spill", t, parent=root,
                        mb=out_mb)
            if out_mb > conf.sort_buffer_mb:
                # multiple spill files: one merge pass (read back + rewrite)
                t = env.now
                yield from wait_flow(node.disk.read(out_mb, label="merge-read"))
                yield from wait_flow(node.disk.write(out_mb, label="merge-write"))
                record.phases.merge = env.now - t
                _phase_span(env, record, "merge", "merge", t, parent=root)

        # Status/commit round-trips through the stock RM/umbilical path.
        if commit_rpc_s > 0:
            t = env.now
            yield env.timeout(commit_rpc_s)
            _phase_span(env, record, "commit-rpc", "commit", t, parent=root)
    finally:
        # lint: MR103 baselined — `root` is only non-None when the tracer
        # was present at span start; tracers install before t=0 and are
        # never removed mid-run, so `root is not None` implies a tracer.
        if root is not None:
            env.tracer.end(root)

    record.output_mb = out_mb
    record.in_memory_output = in_memory
    record.finish_time = env.now
    outputs.put(record)
    return record


def _fetch_one(cluster: "SimCluster", out: TaskRecord, reduce_node: str) -> Generator:
    """Bring one map's output to the reducer (shuffle fetch).

    Raises :class:`FetchFailure` when the serving node dies mid-transfer
    (its flows are killed); the caller decides whether that is recoverable.
    """
    if out.output_mb <= 0:
        return
    if out.node_id == reduce_node:
        if out.in_memory_output:
            return  # U+ fast path: already in RAM on this node
        # Local fetch: the reducer reads the mapper's spill from local disk.
        yield from wait_flow(
            cluster.topology.node(out.node_id).disk.read(out.output_mb, label="shuffle-local")
        )
        return
    flows = []
    waits = []
    if not out.in_memory_output:
        disk = cluster.topology.node(out.node_id).disk.read(out.output_mb, label="shuffle-read")
        flows.append(disk)
        waits.append(disk.done)
    net = cluster.network.transfer(out.node_id, reduce_node, out.output_mb, label="shuffle")
    flows.append(net)
    waits.append(net.done)
    try:
        yield cluster.env.all_of(waits)
    except Interrupt:
        for flow in flows:
            flow.fabric.kill(flow)
        raise
    except FlowKilled:
        for flow in flows:
            flow.fabric.kill(flow)
        raise FetchFailure(out) from None


def _fetch_with_failover(cluster: "SimCluster", out: TaskRecord, reduce_node: str,
                         shuffle: ShuffleService) -> Generator:
    """Fetch one output; on a dead source, report and await a re-executed map."""
    while True:
        if (out.node_id != reduce_node and out.output_mb > 0
                and not shuffle.is_node_alive(out.node_id)):
            # Source already known-dead: skip the doomed transfer attempt.
            out = yield shuffle.report_fetch_failure(out)
            continue
        try:
            yield from _fetch_one(cluster, out, reduce_node)
            return
        except FetchFailure:
            out = yield shuffle.report_fetch_failure(out)


def sim_reduce_task(cluster: "SimCluster", profile: WorkloadProfile, num_maps: int,
                    node_id: str, record: TaskRecord, outputs: Store,
                    setup_s: float, output_path: str,
                    commit_rpc_s: float = 0.0,
                    shuffle: Optional[ShuffleService] = None) -> Generator:
    """The single reduce attempt: shuffle (overlapped fetches) -> merge ->
    reduce -> HDFS write."""
    env = cluster.env
    conf = cluster.conf
    node = cluster.topology.node(node_id)
    record.node_id = node_id
    record.start_time = env.now
    root = None
    if env.tracer is not None:
        root = env.tracer.begin(record.task_id, "task", node_id,
                                record.task_id, num_maps=num_maps)
    try:
        if setup_s > 0:
            t = env.now
            yield env.timeout(setup_s)
            _phase_span(env, record, "setup", "setup", t, parent=root)
        record.phases.setup = setup_s

        # Shuffle: fetch each map output as soon as it is advertised; fetches
        # overlap with still-running maps and with each other (parallel fetchers).
        t = env.now
        fetchers = []
        total_mb = 0.0
        try:
            for _ in range(num_maps):
                out = yield outputs.get()
                total_mb += out.output_mb
                body = (_fetch_with_failover(cluster, out, node_id, shuffle)
                        if shuffle is not None else _fetch_one(cluster, out, node_id))
                fetchers.append(env.process(body, name=f"fetch-{out.task_id}"))
            if fetchers:
                yield env.all_of(fetchers)
        except BaseException:
            # Interrupt (reduce killed) or a fetcher's unrecoverable FetchFailure:
            # tear down the surviving fetchers so no phantom transfers remain.
            for fetcher in fetchers:
                if fetcher.is_alive:
                    fetcher.defuse()
                    fetcher.interrupt("reduce aborted")
            raise
        record.phases.shuffle = env.now - t
        record.input_mb = total_mb
        _phase_span(env, record, "shuffle", "shuffle", t, parent=root,
                    mb=total_mb)

        # Merge pass when the shuffled data exceed the in-memory sort buffer.
        if total_mb > conf.sort_buffer_mb:
            t = env.now
            yield from wait_flow(node.disk.write(total_mb, label="reduce-merge-w"))
            yield from wait_flow(node.disk.read(total_mb, label="reduce-merge-r"))
            record.phases.merge = env.now - t
            _phase_span(env, record, "merge", "merge", t, parent=root)

        # Reduce compute.
        t = env.now
        cpu = node.cpu.compute(profile.reduce_cpu_s(total_mb), label=record.task_id)
        yield from wait_flow(cpu)
        record.phases.compute = env.now - t
        _phase_span(env, record, "reduce", "compute", t, parent=root)

        # Output commit to HDFS. Written with replication 1 (common for job
        # output of short ad-hoc queries; also keeps reduce time mode-independent
        # exactly as the paper's estimator assumes).
        out_mb = profile.reduce_output_mb(total_mb)
        record.output_mb = out_mb
        if out_mb > 0:
            t = env.now
            if not cluster.namenode.exists(output_path):
                cluster.namenode.create_file(output_path, out_mb, writer_node=node_id)
            yield from wait_flow(node.disk.write(out_mb, label="reduce-out"))
            record.phases.write = env.now - t
            _phase_span(env, record, "write", "write", t, parent=root,
                        mb=out_mb)

        if commit_rpc_s > 0:
            t = env.now
            yield env.timeout(commit_rpc_s)
            _phase_span(env, record, "commit-rpc", "commit", t, parent=root)
    finally:
        # lint: MR103 baselined — `root` is only non-None when the tracer
        # was present at span start; tracers install before t=0 and are
        # never removed mid-run, so `root is not None` implies a tracer.
        if root is not None:
            env.tracer.end(root)

    record.finish_time = env.now
    return record
