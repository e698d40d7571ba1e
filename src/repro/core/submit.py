"""Top-level MRapid API: one call to run a short job in any mode.

This is the facade examples and the experiment harness use::

    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_short_job(cluster, spec, mode="uplus")
    outcome = run_speculative(cluster, spec)          # launch both, keep winner

Stock baselines go through :func:`run_stock_job` on a cluster built with the
stock scheduler (:func:`build_stock_cluster`).
"""

from __future__ import annotations

from typing import Optional

from ..config import ClusterSpec, HadoopConfig, MRapidConfig
from ..mapreduce.client import MODE_DISTRIBUTED, MODE_UBER, JobClient
from ..mapreduce.spec import JobResult, SimJobSpec
from ..simcluster import SimCluster
from ..yarn.scheduler import CapacityScheduler
from .ampool import MODE_DPLUS, MODE_UPLUS, SubmissionFramework
from .dplus import DPlusScheduler
from .speculation import SpeculationOutcome, SpeculativeExecutor


def build_stock_cluster(spec: ClusterSpec, conf: Optional[HadoopConfig] = None,
                        seed: int = 7) -> SimCluster:
    """A cluster running unmodified Hadoop 2.2 (greedy CapacityScheduler)."""
    return SimCluster(spec, conf=conf, scheduler=CapacityScheduler(), seed=seed)


def build_mrapid_cluster(spec: ClusterSpec, conf: Optional[HadoopConfig] = None,
                         mrapid: Optional[MRapidConfig] = None,
                         seed: int = 7) -> SimCluster:
    """A cluster with the D+ scheduler installed in the RM.

    The returned cluster carries a ready :class:`SubmissionFramework` on
    ``cluster.mrapid_framework`` (AM pool pre-warming starts at t=0, like a
    proxy service started with the cluster).
    """
    mrapid = mrapid if mrapid is not None else MRapidConfig()
    scheduler = DPlusScheduler(
        balanced_spread=mrapid.balanced_spread,
        locality_aware=mrapid.locality_aware,
        respond_same_heartbeat=mrapid.respond_same_heartbeat,
    )
    cluster = SimCluster(spec, conf=conf, scheduler=scheduler, seed=seed)
    cluster.mrapid_framework = SubmissionFramework(cluster, mrapid)  # type: ignore[attr-defined]
    return cluster


def run_stock_job(cluster: SimCluster, spec: SimJobSpec, mode: str) -> JobResult:
    """Run a job on stock Hadoop; mode is 'distributed' or 'uber'."""
    normalized = {
        "distributed": MODE_DISTRIBUTED, MODE_DISTRIBUTED: MODE_DISTRIBUTED,
        "uber": MODE_UBER, MODE_UBER: MODE_UBER,
    }.get(mode)
    if normalized is None:
        raise ValueError(f"unknown stock mode {mode!r}")
    return JobClient(cluster).run(spec, normalized)


def run_short_job(cluster: SimCluster, spec: SimJobSpec, mode: str) -> JobResult:
    """Run a job through MRapid's submission framework in 'dplus'/'uplus'."""
    framework: SubmissionFramework = getattr(cluster, "mrapid_framework", None)
    if framework is None:
        raise ValueError("cluster was not built with build_mrapid_cluster()")
    normalized = {
        "dplus": MODE_DPLUS, MODE_DPLUS: MODE_DPLUS,
        "uplus": MODE_UPLUS, MODE_UPLUS: MODE_UPLUS,
    }.get(mode)
    if normalized is None:
        raise ValueError(f"unknown MRapid mode {mode!r}")
    return framework.run(spec, normalized)


def run_speculative(cluster: SimCluster, spec: SimJobSpec) -> SpeculationOutcome:
    """Launch both modes, keep the winner (paper Figure 6)."""
    framework: SubmissionFramework = getattr(cluster, "mrapid_framework", None)
    if framework is None:
        raise ValueError("cluster was not built with build_mrapid_cluster()")
    return SpeculativeExecutor(framework).run(spec)
