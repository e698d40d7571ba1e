"""Spark-lite execution: driver + long-lived executors over the simulator.

The execution model mirrors Spark-on-YARN where it matters to short jobs:

* one driver (AM) container plus N executor containers, all allocated
  through the cluster's installed scheduler (stock heartbeat-driven or D+);
* executors are JVMs that live for the whole application: tasks dispatch to
  them over RPC with *no per-task container launch*;
* stage outputs are cached in executor memory; shuffles move bytes directly
  executor-to-executor over the network fabric;
* ``warm_pool=True`` applies MRapid's submission-framework idea (§VI): the
  driver and executors are pre-provisioned like the AM pool, so a short
  application pays none of the startup cost — the paper's observation that
  "Spark on Yarn is still slow for short jobs because of the high overhead
  to launch containers for AMs and executors" is exactly the cold path here.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from ..cluster.resources import ResourceVector
from ..mapreduce.tasks import wait_flow
from ..simulation.resources import Resource
from ..yarn.records import Application, Container, ContainerRequest
from .dag import SparkResult, SparkStage, StageResult, validate_dag

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster


class SparkExecutor:
    """A long-lived executor JVM on one node.

    ``cache_limit_mb`` bounds the in-memory block store (the storage
    fraction of the executor heap); cached partitions beyond it spill to
    the node's disk — both the write now and the read-back at the next
    stage boundary are real timed I/O.
    """

    def __init__(self, cluster: "SimCluster", container: Container,
                 task_slots: int, executor_id: int,
                 cache_limit_mb: float = float("inf")) -> None:
        self.cluster = cluster
        self.container = container
        self.executor_id = executor_id
        self.node_id = container.node_id
        self.slots = Resource(cluster.env, capacity=task_slots)
        self.cached_mb = 0.0
        self.cache_limit_mb = cache_limit_mb
        self.spilled_mb = 0.0

    def cache_partition(self, mb: float) -> float:
        """Reserve cache for a partition; returns the MB that must spill."""
        fits = max(0.0, min(mb, self.cache_limit_mb - self.cached_mb))
        self.cached_mb += fits
        overflow = mb - fits
        self.spilled_mb += overflow
        return overflow


class SparkLiteRunner:
    """Runs Spark-lite DAGs on a simulated cluster."""

    def __init__(self, cluster: "SimCluster", num_executors: int = 3,
                 executor_vcores: int = 2, executor_memory_mb: int = 1536,
                 warm_pool: bool = False,
                 storage_fraction: float = 0.5) -> None:
        if num_executors < 1 or executor_vcores < 1:
            raise ValueError("need at least one executor with one core")
        if not 0 < storage_fraction <= 1:
            raise ValueError("storage_fraction must be in (0, 1]")
        self.cluster = cluster
        self.num_executors = num_executors
        self.executor_vcores = executor_vcores
        self.executor_memory_mb = executor_memory_mb
        self.cache_limit_mb = executor_memory_mb * storage_fraction
        self.warm_pool = warm_pool
        # Per-runner, not module-level: ids reset with each application, so
        # partition_homes in results never depend on what ran earlier in
        # the process.
        self._executor_ids = itertools.count(1)
        self._warm_executors: Optional[list[SparkExecutor]] = None
        if warm_pool:
            self._warm_executors = self._provision_now()

    # -- provisioning ---------------------------------------------------------
    def _provision_now(self) -> list[SparkExecutor]:
        """Reserve executor containers directly (pre-warmed pool at t=0)."""
        executors = []
        states = sorted(self.cluster.rm.nodes.values(),
                        key=lambda s: (-s.available.memory_mb, s.node_id))
        demand = ResourceVector(self.executor_memory_mb, self.executor_vcores)
        for i in range(self.num_executors):
            state = states[i % len(states)]
            if not state.can_fit(demand):
                state = next((s for s in states if s.can_fit(demand)), None)
                if state is None:
                    break
            container = Container(self.cluster.rm.next_container_id(), state.node_id,
                                  demand, app_id="sparklite-pool")
            state.allocate(demand)
            executors.append(SparkExecutor(self.cluster, container,
                                           self.executor_vcores,
                                           next(self._executor_ids),
                                           cache_limit_mb=self.cache_limit_mb))
        if not executors:
            raise ValueError("cluster too small for even one warm executor")
        return executors

    # -- public -------------------------------------------------------------------
    def submit(self, stages: Sequence[SparkStage]):
        validate_dag(stages)
        return self.cluster.env.process(self._run(list(stages)), name="sparklite")

    def run(self, stages: Sequence[SparkStage]) -> SparkResult:
        proc = self.submit(stages)
        self.cluster.env.run(until=proc)
        return proc.value

    # -- application ------------------------------------------------------------------
    def _run(self, stages: list[SparkStage]) -> Generator:
        env = self.cluster.env
        conf = self.cluster.conf
        rm = self.cluster.rm
        app_id = rm.next_app_id("spark")
        result = SparkResult(app_id=app_id, submit_time=env.now,
                             warm_start=self.warm_pool,
                             num_executors=self.num_executors)

        yield env.timeout(conf.client_submit_s)

        if self.warm_pool:
            executors = self._warm_executors
            result.driver_start_time = env.now
            result.executors_ready_time = env.now
        else:
            # Cold start: driver AM through the RM, then executor containers
            # through the scheduler, each paying the JVM launch.
            driver_started = env.event()
            app = Application(app_id=app_id, name="sparklite-driver",
                              am_resource=ResourceVector(conf.am_memory_mb,
                                                         conf.am_vcores),
                              runner=lambda ctx: _driver_forever(ctx, driver_started,
                                                                 conf))
            rm.submit_application(app)
            yield driver_started
            result.driver_start_time = env.now
            yield env.timeout(conf.am_init_s)

            demand = ResourceVector(self.executor_memory_mb, self.executor_vcores)
            asks = [ContainerRequest(demand) for _ in range(self.num_executors)]
            granted: list[Container] = []
            granted.extend(rm.allocate(app_id, asks))
            while len(granted) < self.num_executors:
                yield env.timeout(conf.am_heartbeat_s)
                granted.extend(rm.allocate(app_id, []))
            # Executor JVMs launch in parallel.
            yield env.timeout(conf.container_launch_s)
            executors = [SparkExecutor(self.cluster, c, self.executor_vcores,
                                       next(self._executor_ids),
                                       cache_limit_mb=self.cache_limit_mb)
                         for c in granted]
            result.executors_ready_time = env.now
            self._cold_app = app  # so we can tear down below

        # -- run stages in topological order -------------------------------------
        stage_results: dict[str, StageResult] = {}
        for stage in stages:
            record = yield from self._run_stage(stage, executors, stage_results)
            stage_results[stage.name] = record
        result.stages = stage_results
        result.finish_time = env.now

        if not self.warm_pool:
            for executor in executors:
                rm.container_finished(executor.container)
            rm.kill_application(self._cold_app, "application finished")
        return result

    # -- stages ---------------------------------------------------------------------------
    def _run_stage(self, stage: SparkStage, executors: list[SparkExecutor],
                   prior: dict[str, StageResult]) -> Generator:
        env = self.cluster.env
        record = StageResult(stage.name, start_time=env.now)

        if stage.is_source:
            splits = self._source_partitions(stage)
            n_parts = len(splits)
        else:
            parents = [prior[p] for p in stage.parents]
            total_in = sum(p.output_mb for p in parents)
            n_parts = stage.partitions or max(len(executors), 1)
            splits = [("__shuffle__", total_in / n_parts)] * n_parts
        record.tasks = n_parts
        record.input_mb = sum(mb for _src, mb in splits)

        def task(index: int, executor: SparkExecutor) -> Generator:
            with executor.slots.request() as slot:
                yield slot
                src, mb = splits[index]
                if stage.is_source:
                    yield from self._read_source(src, index, executor)
                else:
                    moved = yield from self._fetch_shuffle(
                        mb, executor, [prior[p] for p in stage.parents],
                        executors)
                    record.shuffle_mb_moved += moved
                cpu_s = stage.cpu_fixed_s + mb * stage.cpu_s_per_mb
                if cpu_s > 0:
                    node = self.cluster.topology.node(executor.node_id)
                    yield from wait_flow(node.cpu.compute(cpu_s,
                                                          label=f"{stage.name}#{index}"))
                out_mb = mb * stage.output_ratio
                overflow = executor.cache_partition(out_mb)
                if overflow > 0:
                    # Block-store eviction: the overflow spills to local disk.
                    node = self.cluster.topology.node(executor.node_id)
                    yield from wait_flow(node.disk.write(overflow,
                                                         label="spark-spill"))
                record.partition_homes[index] = executor.executor_id
                record.output_mb += out_mb

        procs = [
            env.process(task(i, executors[i % len(executors)]),
                        name=f"{stage.name}-t{i}")
            for i in range(n_parts)
        ]
        if procs:
            yield env.all_of(procs)
        record.finish_time = env.now
        return record

    # -- data movement -------------------------------------------------------------------
    def _source_partitions(self, stage: SparkStage) -> list[tuple[str, float]]:
        splits = []
        for path in stage.inputs:
            file = self.cluster.namenode.get_file(path)
            for block in file.blocks:
                splits.append((path, block.size_mb))
        return splits

    def _read_source(self, path: str, index: int,
                     executor: SparkExecutor) -> Generator:
        file = self.cluster.namenode.get_file(path)
        block = file.blocks[min(index, len(file.blocks) - 1)]
        yield from _interruptible_block_read(self.cluster, block,
                                             executor.node_id)

    def _fetch_shuffle(self, mb: float, executor: SparkExecutor,
                       parents: list[StageResult],
                       executors: list[SparkExecutor]) -> Generator:
        """Pull this partition's share from every parent partition's home."""
        by_id = {e.executor_id: e for e in executors}
        moved = 0.0
        flows = []
        total_parent = sum(p.output_mb for p in parents) or 1.0
        fraction = mb / total_parent  # this partition's share of all data
        for parent in parents:
            n_homes = max(1, len(parent.partition_homes))
            per_home = parent.output_mb / n_homes
            for _part, home_id in parent.partition_homes.items():
                home = by_id.get(home_id)
                if home is None:
                    continue
                share = per_home * fraction
                if home.node_id != executor.node_id and share > 0:
                    flows.append(self.cluster.network.transfer(
                        home.node_id, executor.node_id, share, label="spark-shuffle"))
                    moved += share
        for flow in flows:
            yield from wait_flow(flow)
        return moved


def _driver_forever(ctx, started_event, conf) -> Generator:
    """Cold-start driver body: signal readiness, then idle until killed."""
    if not started_event.triggered:
        started_event.succeed(ctx.node_id)
    from ..simulation.errors import Interrupt

    try:
        while True:
            yield ctx.env.timeout(conf.am_heartbeat_s)
    except Interrupt:
        return None


def _interruptible_block_read(cluster: "SimCluster", block, at_node: str) -> Generator:
    from ..simulation.errors import Interrupt

    source = cluster.topology.closest_replica(at_node, block.replicas)
    if source is None or block.size_mb <= 0:
        return
    disk = cluster.topology.node(source).disk.read(block.size_mb, label="spark-src")
    flows = [disk]
    wait = disk.done
    if source != at_node:
        net = cluster.network.transfer(source, at_node, block.size_mb,
                                       label="spark-src")
        flows.append(net)
        wait = disk.done & net.done
    try:
        yield wait
    except Interrupt:
        for flow in flows:
            flow.fabric.kill(flow)
        raise
