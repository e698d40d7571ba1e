"""Stock Uber mode: all tasks run *sequentially* inside the AM container.

Paper Figure 4. The two inefficiencies MRapid's U+ mode removes are both
here on purpose: strict serial execution of map tasks (one thread), and
intermediate data always spilled to the AM node's local disk.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Generator, Optional

from ..hdfs.block import InputSplit
from ..simulation.errors import Interrupt
from ..simulation.resources import Resource, Store
from .appmaster import AppMaster
from .spec import attempt_record
from .tasks import MemoryCache, sim_map_task, sim_reduce_task

if TYPE_CHECKING:  # pragma: no cover
    from ..yarn.resourcemanager import AMContext


class UberAM(AppMaster):
    """Sequential single-container executor (mapreduce.job.ubertask.enable)."""

    def run(self, ctx: "AMContext") -> Generator:
        env = self.cluster.env
        conf = self.cluster.conf
        node_id = ctx.node_id
        splits = yield from self.open(ctx)
        outputs = Store(env)

        # Maps one after another in the AM's own JVM: no container launch,
        # cheap setup, but zero parallelism (Figure 4).
        for idx, split in enumerate(splits):
            yield from self._map_in_place(idx, split, node_id, outputs,
                                          conf.task_commit_rpc_s)

        # The reduce runs in the same JVM; all fetches are local disk reads.
        yield from sim_reduce_task(
            self.cluster, self.spec.profile, len(splits), node_id,
            self.result.reduces[0], outputs, conf.uber_task_setup_s,
            output_path=f"/out/{self.result.app_id}",
            commit_rpc_s=conf.task_commit_rpc_s,
        )

        self.result.num_waves = len(splits)  # strictly serial: one map per "wave"
        self.result.finish_time = env.now
        return self.result

    def _map_in_place(self, idx: int, split: InputSplit, node_id: str,
                      outputs: Store, commit_rpc_s: float,
                      workers: Optional[Resource] = None,
                      memory_cache: Optional[MemoryCache] = None) -> Generator:
        """Map ``idx`` in the AM's own JVM. A failed attempt (a transient
        I/O error; a node death kills the whole single-container job
        instead) re-runs in place, up to ``max_task_attempts`` like a
        distributed map. U+ passes its ``workers`` pool: each attempt
        holds one worker slot."""
        env = self.cluster.env
        conf = self.cluster.conf
        attempt = 0
        while True:
            t_slot = env.now
            with (workers.request() if workers is not None
                  else nullcontext()) as slot:
                if slot is not None:
                    yield slot
                    if env.tracer is not None and env.now > t_slot:
                        env.tracer.complete("slot-wait", "wait", node_id,
                                            f"m{idx:03d}", t_slot)
                record = (self.result.maps[idx] if attempt == 0
                          else attempt_record("map", idx, attempt))
                try:
                    yield from sim_map_task(
                        self.cluster, self.spec.profile, split, node_id,
                        record, outputs, conf.uber_task_setup_s,
                        memory_cache=memory_cache, commit_rpc_s=commit_rpc_s,
                    )
                    self.result.maps[idx] = record
                    return
                except Interrupt:
                    raise  # job-level kill: do not retry
                except Exception:
                    attempt += 1
                    if attempt >= conf.max_task_attempts:
                        raise
