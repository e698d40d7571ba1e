"""Job client for the *stock* Hadoop paths (Figure 1 submission flow).

MRapid's submission framework (proxy + AM pool + speculation) lives in
:mod:`repro.core`; this client is the baseline it is measured against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..cluster.resources import ResourceVector
from ..yarn.records import Application
from .appmaster import DistributedAM
from .spec import JobResult, SimJobSpec
from .uber import UberAM

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..simulation.events import Process

MODE_DISTRIBUTED = "hadoop-distributed"
MODE_UBER = "hadoop-uber"
MODE_AUTO = "hadoop-auto"


def uber_eligible(cluster: "SimCluster", spec: SimJobSpec) -> bool:
    """Hadoop's ubertask decision (mapreduce.job.ubertask.*).

    A job runs uberized iff it has at most ``uber_max_maps`` maps, at most
    ``uber_max_reduces`` reduces, and its total input is smaller than one
    HDFS block. This is the "quantitative definition of a small job" the
    paper quotes in §I — and criticizes as unhelpful, since the better mode
    really depends on available resources (which MRapid's decision maker
    accounts for).
    """
    conf = cluster.conf
    from ..hdfs.splits import compute_splits, total_input_mb

    splits = compute_splits(cluster.namenode, spec.input_paths)
    return (
        len(splits) <= conf.uber_max_maps
        and spec.num_reduces <= conf.uber_max_reduces
        and total_input_mb(splits) < conf.block_size_mb
    )


class JobClient:
    """Submits jobs to the stock RM and waits for their completion."""

    def __init__(self, cluster: "SimCluster") -> None:
        self.cluster = cluster

    def submit(self, spec: SimJobSpec, mode: str = MODE_DISTRIBUTED,
               queue: str | None = None) -> "Process":
        """Start the client-side submission; returns a process whose value
        is the :class:`JobResult`. ``queue`` routes the app to a tenant
        queue when the cluster runs the multi-tenant scheduler."""
        return self.cluster.env.process(self._run(spec, mode, queue),
                                        name=f"client-{spec.name}-{mode}")

    def run(self, spec: SimJobSpec, mode: str = MODE_DISTRIBUTED,
            queue: str | None = None) -> JobResult:
        """Submit and run the simulation until this job finishes."""
        proc = self.submit(spec, mode, queue=queue)
        self.cluster.env.run(until=proc)
        return proc.value

    # -- internals ---------------------------------------------------------------
    def _run(self, spec: SimJobSpec, mode: str, queue: str | None = None) -> Generator:
        env = self.cluster.env
        conf = self.cluster.conf
        app_id = self.cluster.rm.next_app_id()
        result = JobResult(app_id=app_id, job_name=spec.name, mode=mode,
                           submit_time=env.now)

        # Step 1 (Figure 1): get job id, upload splits/jar/conf, submit.
        yield env.timeout(conf.client_submit_s)
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.complete("client-submit", "submit", CLUSTER,
                                f"job:{app_id}", result.submit_time,
                                app_id=app_id)

        if mode == MODE_AUTO:
            mode = MODE_UBER if uber_eligible(self.cluster, spec) else MODE_DISTRIBUTED
            result.mode = mode

        if mode == MODE_DISTRIBUTED:
            am = DistributedAM(self.cluster, spec, result)
        elif mode == MODE_UBER:
            am = UberAM(self.cluster, spec, result)
        else:
            raise ValueError(f"unknown stock mode {mode!r}; use {MODE_DISTRIBUTED!r}, "
                             f"{MODE_UBER!r} or {MODE_AUTO!r}")

        app = Application(
            app_id=app_id,
            name=spec.name,
            am_resource=ResourceVector(conf.am_memory_mb, conf.am_vcores),
            runner=am.run,
            seq=spec.seq,
        )
        self.cluster.rm.submit_application(app)
        if queue is not None:
            assign = getattr(self.cluster.scheduler, "assign_app", None)
            if assign is None:
                raise ValueError("queue routing needs the multi-tenant scheduler")
            assign(app_id, queue)
        final: JobResult = yield app.finished
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.complete(spec.name, "job", CLUSTER, f"job:{app_id}",
                                result.submit_time, app_id=app_id, mode=mode)
        return final
