"""The U+ (Improved Uber) mode: parallel in-container maps + memory cache.

Paper §III-B / Figure 5. Inherits the single-container design of Uber mode
but:

* runs map tasks concurrently with ``n_u^m = n^c * n_c^m`` worker threads
  (``n^c`` = the AM's configured cpu_vcores, ``n_c^m`` = maps per vcore) —
  CPU contention beyond the node's physical cores emerges from the
  fair-share CPU model, reproducing the "steals idle resources" behaviour
  Figure 13 discusses;
* keeps small intermediate data in memory, skipping the spill/merge disk
  round-trips and making the reduce's fetch free; when the job's estimated
  *raw* map output exceeds the cache limit it falls back to disk like the
  original Uber mode (the Figure 7 @16-files regime).

Ablations (Figure 15): ``parallel_maps=False`` serializes the maps,
``memory_cache=False`` always spills.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..config import MRapidConfig
from ..mapreduce.spec import JobResult, SimJobSpec
from ..mapreduce.tasks import sim_reduce_task
from ..mapreduce.uber import UberAM
from ..simulation.errors import Interrupt
from ..simulation.resources import Resource, Store

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..yarn.resourcemanager import AMContext


class IntermediateCache:
    """Job-scoped in-memory store for map outputs (simple budget)."""

    def __init__(self, limit_mb: float, enabled: bool = True,
                 estimated_total_mb: float = 0.0) -> None:
        self.limit_mb = limit_mb
        self.used_mb = 0.0
        # Pre-decision: if the whole job's raw intermediate data cannot fit,
        # behave like the original Uber mode and spill everything — partial
        # caching would make the spill/no-spill boundary input-order
        # dependent, which neither Hadoop nor the paper does.
        self.enabled = enabled and estimated_total_mb <= limit_mb

    def try_reserve(self, mb: float) -> bool:
        if not self.enabled or self.used_mb + mb > self.limit_mb:
            return False
        self.used_mb += mb
        return True

    def release_all(self) -> None:
        self.used_mb = 0.0


class UPlusAM(UberAM):
    """Single-container executor with multithreaded maps and RAM cache."""

    def __init__(self, cluster: "SimCluster", spec: SimJobSpec, result: JobResult,
                 mrapid: MRapidConfig) -> None:
        super().__init__(cluster, spec, result)
        self.mrapid = mrapid
        self._children: list = []

    def run(self, ctx: "AMContext") -> Generator:
        env = self.cluster.env
        conf = self.cluster.conf
        node_id = ctx.node_id
        try:
            splits = yield from self.open(ctx)
            n_maps = len(splits)
            outputs = Store(env)

            # n_u^m = n^c * n_c^m  (paper §III-B)
            n_c = self.cluster.topology.node(node_id).capability.vcores
            n_u_m = max(1, n_c * self.mrapid.maps_per_vcore) if self.mrapid.parallel_maps else 1
            workers = Resource(env, capacity=n_u_m)

            raw_total = sum(
                self.spec.profile.map_raw_output_mb(s.length_mb) for s in splits
            )
            cache = IntermediateCache(
                self.mrapid.memory_cache_limit_mb,
                enabled=self.mrapid.memory_cache,
                estimated_total_mb=raw_total,
            )

            commit_rpc_s = (0.0 if self.mrapid.reduce_communication
                            else conf.task_commit_rpc_s)

            map_procs = [
                env.process(self._map_in_place(idx, split, node_id, outputs,
                                               commit_rpc_s, workers=workers,
                                               memory_cache=cache),
                            name=f"{self.spec.name}-u+m{idx}")
                for idx, split in enumerate(splits)
            ]
            self._children.extend(map_procs)

            # The reducer shares the container; it starts pulling outputs
            # immediately (everything is node-local so fetches are cheap).
            reduce_proc = env.process(
                sim_reduce_task(
                    self.cluster, self.spec.profile, n_maps, node_id,
                    self.result.reduces[0], outputs, conf.uber_task_setup_s,
                    output_path=f"/out/{self.result.app_id}",
                    commit_rpc_s=commit_rpc_s,
                ),
                name=f"{self.spec.name}-u+reduce",
            )
            self._children.append(reduce_proc)

            yield env.all_of(map_procs + [reduce_proc])

            cache.release_all()
            self.result.num_waves = max(1, -(-n_maps // n_u_m))  # ceil
            self.result.finish_time = env.now
            return self.result
        except Interrupt:
            self.result.killed = True
            for proc in self._children:
                if proc.is_alive:
                    proc.defuse()
                    proc.interrupt("job killed")
            raise
