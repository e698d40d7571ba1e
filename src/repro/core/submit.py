"""Top-level MRapid API: one mode table serves every submission.

The paper's MRapid client (§III-C, Figure 6) decides whether a job takes
the stock path, D+ or U+ through the proxy, or both at once. Here that
decision is :data:`MODES`, keyed by short mode labels:

* ``stock`` — the stock client under Hadoop's own uber rule
  (``hadoop-auto``: uberized iff the job is small enough);
* ``distributed`` / ``uber`` — the stock client, mode forced;
* ``dplus`` / ``uplus`` — MRapid's proxy and AM pool in one mode;
* ``speculative`` — both MRapid modes at once, the slower one killed.

Examples, figures, replays and the CLI all go through it::

    cluster = build_cluster(a3_cluster(4), "speculative")
    result = run_job(cluster, spec, "speculative")    # the winner's result

``repro profile --mode stock`` keeps one older spelling: there ``stock``
means Hadoop-Distributed (CI and the ``profile`` registry scenario pin
it), not the uber rule it names everywhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

from ..config import ClusterSpec, HadoopConfig, MRapidConfig
from ..mapreduce.client import MODE_AUTO, MODE_DISTRIBUTED, MODE_UBER, JobClient
from ..mapreduce.spec import JobResult, SimJobSpec
from ..simcluster import SimCluster
from ..yarn.scheduler import CapacityScheduler
from .ampool import MODE_DPLUS, MODE_UPLUS, SubmissionFramework
from .dplus import DPlusScheduler
from .speculation import SpeculationOutcome, SpeculativeExecutor

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.events import Process


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


def _framework(cluster: SimCluster) -> SubmissionFramework:
    framework = getattr(cluster, "mrapid_framework", None)
    if framework is None:
        raise ValueError("MRapid modes need a cluster with a SubmissionFramework "
                         "(build_cluster, build_mrapid_cluster or "
                         "build_trace_cluster with an MRapid strategy)")
    return framework


#: A path's submit: ``(cluster, spec) -> process``.
Start = Callable[[SimCluster, SimJobSpec], "Process"]


def _client(client_mode: str) -> Start:
    def start(cluster: SimCluster, spec: SimJobSpec) -> "Process":
        return JobClient(cluster).submit(spec, client_mode)
    return start


def _proxy(framework_mode: str) -> Start:
    def start(cluster: SimCluster, spec: SimJobSpec) -> "Process":
        return _framework(cluster).submit(spec, framework_mode).proc
    return start


def _speculate(cluster: SimCluster, spec: SimJobSpec) -> "Process":
    return SpeculativeExecutor(_framework(cluster)).submit(spec)


class SubmitPath(NamedTuple):
    """How one mode is served."""

    #: Runs on :func:`build_mrapid_cluster`'s cluster (D+ scheduler and the
    #: proxy), else on :func:`build_stock_cluster`'s.
    mrapid: bool
    start: Start


#: Mode label -> its cluster and submit path.
MODES: dict[str, SubmitPath] = {
    "stock": SubmitPath(False, _client(MODE_AUTO)),
    "distributed": SubmitPath(False, _client(MODE_DISTRIBUTED)),
    "uber": SubmitPath(False, _client(MODE_UBER)),
    "dplus": SubmitPath(True, _proxy(MODE_DPLUS)),
    "uplus": SubmitPath(True, _proxy(MODE_UPLUS)),
    "speculative": SubmitPath(True, _speculate),
}


def _path(mode: str) -> SubmitPath:
    path = MODES.get(mode)
    if path is None:
        raise ValueError(f"unknown mode {mode!r}; use one of {tuple(MODES)}")
    return path


def check_mode(cluster: SimCluster, mode: str) -> None:
    """Raise :class:`ValueError` if ``cluster`` cannot serve ``mode``: an
    unknown mode, or an MRapid mode on a cluster without the proxy."""
    if _path(mode).mrapid:
        _framework(cluster)


def build_cluster(spec: ClusterSpec, mode: str, *,
                  conf: Optional[HadoopConfig] = None,
                  mrapid: Optional[MRapidConfig] = None,
                  seed: int = 7) -> SimCluster:
    """A fresh cluster that serves ``mode`` (``mrapid`` configures the
    proxy and D+ of the MRapid modes)."""
    if _path(mode).mrapid:
        return build_mrapid_cluster(spec, conf=conf, mrapid=mrapid, seed=seed)
    return build_stock_cluster(spec, conf=conf, seed=seed)


def submit(cluster: SimCluster, spec: SimJobSpec, mode: str) -> "Process":
    """Start ``spec`` on the path ``mode`` names and return that path's
    own process: its value is the :class:`JobResult`, or for
    ``speculative`` the executor's :class:`SpeculationOutcome`
    (:func:`result_of` reads the job's result off either). An unknown
    mode, or an MRapid mode on a cluster without the proxy, raises
    :class:`ValueError`."""
    return _path(mode).start(cluster, spec)


def result_of(value: Union[JobResult, SpeculationOutcome]) -> JobResult:
    """The job's result from a :func:`submit` process value: the winner's
    for a speculative pair."""
    return value.winner if isinstance(value, SpeculationOutcome) else value


def run_job(cluster: SimCluster, spec: SimJobSpec, mode: str) -> JobResult:
    """Submit ``spec`` in ``mode`` and run the simulation until it finishes;
    returns its result (the winner's for ``speculative``)."""
    proc = submit(cluster, spec, mode)
    cluster.env.run(until=proc)
    return result_of(proc.value)
