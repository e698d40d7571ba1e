"""The job client: one lifecycle for every submit path (Figure 1 step 1).

Every job, stock or MRapid, runs :func:`run_lifecycle`: the client gets a
job id, uploads splits, jar and conf and submits (``client_submit_s``, the
``client-submit`` span); the path serves the job; the client waits for
the result (the closing ``job`` span). Only the serve step differs:

* :class:`JobClient` (the stock paths) and MRapid's framework without the
  AM pool hand the RM an application for a fresh AM
  (:func:`serve_by_rm`);
* MRapid's proxy (:mod:`repro.core.ampool`) hands the job to a warm AM
  from its pool, skipping AM allocation and JVM launch.

Either way the RM records the job as :func:`job_application` builds it,
in the job's tenant queue (:attr:`SimJobSpec.queue`).

A job submitted with a :class:`JobHandle` (MRapid's framework) can be
killed, and its result says how it ended: ``killed`` for a kill or an
AM-node loss, ``failed`` for anything else. The stock client raises
instead, as Hadoop's ``JobClient`` does.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..cluster.resources import ResourceVector
from ..simulation.errors import Interrupt
from ..yarn.records import Application
from ..yarn.resourcemanager import JobKilled
from .appmaster import AppMaster, DistributedAM
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
        elif self.proc is not None and self.proc.is_alive:
            # No AM runs the job yet: it is still submitting, waits at the
            # proxy for a warm AM, or rides the proxy's RPC to one.
            self.proc.interrupt(cause)


def run_lifecycle(cluster: "SimCluster", spec: SimJobSpec, mode: str,
                  serve: Callable[[JobResult], Generator], *, prefix: str = "app",
                  handle: Optional[JobHandle] = None) -> Generator:
    """One job's client side, the body of every submit path's process.
    After the upload, ``serve(result)`` runs the job and returns (as a
    generator) its final result."""
    env = cluster.env
    app_id = cluster.rm.next_app_id(prefix)
    result = JobResult(app_id=app_id, job_name=spec.name, mode=mode,
                       submit_time=env.now)
    if handle is not None:
        handle.result = result
    try:
        # Step 1 (Figure 1): get job id, upload splits/jar/conf, submit.
        yield env.timeout(cluster.conf.client_submit_s)
        if env.tracer is not None:
            from ..observe.tracer import CLUSTER
            env.tracer.complete("client-submit", "submit", CLUSTER,
                                f"job:{app_id}", result.submit_time,
                                app_id=app_id)
        final: JobResult = yield from serve(result)
    except Exception as exc:
        if handle is None:
            raise
        if isinstance(exc, (Interrupt, JobKilled)):
            result.killed = True
        else:
            result.failed = True
        result.finish_time = env.now
        return result
    if env.tracer is not None:
        from ..observe.tracer import CLUSTER
        env.tracer.complete(spec.name, "job", CLUSTER, f"job:{app_id}",
                            result.submit_time, app_id=app_id, mode=result.mode)
    return final


def job_application(cluster: "SimCluster", spec: SimJobSpec, app_id: str,
                    runner: Callable[[Any], Any], **times: float) -> Application:
    """The RM's record of job ``spec``, on every submit path: an AM-sized
    application in the job's tenant queue, with its arrival sequence."""
    conf = cluster.conf
    return Application(app_id, spec.name,
                       ResourceVector(conf.am_memory_mb, conf.am_vcores),
                       runner, queue=spec.queue, seq=spec.seq, **times)


def serve_by_rm(cluster: "SimCluster", spec: SimJobSpec, am: AppMaster,
                handle: Optional[JobHandle] = None) -> Generator:
    """Figure 1 steps 2-6: the RM allocates and launches a fresh AM that
    runs ``am``; returns the application's result."""
    app = job_application(cluster, spec, am.result.app_id, am.run)
    if handle is not None:
        handle._app = app
    cluster.rm.submit_application(app)
    return (yield app.finished)


class JobClient:
    """Submits jobs to the stock RM and waits for their completion."""

    def __init__(self, cluster: "SimCluster") -> None:
        self.cluster = cluster

    def submit(self, spec: SimJobSpec, mode: str = MODE_DISTRIBUTED) -> "Process":
        """Start the client-side submission; returns a process whose value
        is the :class:`JobResult`."""
        return self.cluster.env.process(
            run_lifecycle(self.cluster, spec, mode, partial(self._serve, spec)),
            name=f"client-{spec.name}-{mode}")

    def _serve(self, spec: SimJobSpec, result: JobResult) -> Generator:
        if result.mode == MODE_AUTO:
            result.mode = (MODE_UBER if uber_eligible(self.cluster, spec)
                           else MODE_DISTRIBUTED)
        am_class = {MODE_DISTRIBUTED: DistributedAM,
                    MODE_UBER: UberAM}.get(result.mode)
        if am_class is None:
            raise ValueError(f"unknown stock mode {result.mode!r}; use "
                             f"{MODE_DISTRIBUTED!r}, {MODE_UBER!r} or "
                             f"{MODE_AUTO!r}")
        return (yield from serve_by_rm(self.cluster, spec,
                                       am_class(self.cluster, spec, result)))
