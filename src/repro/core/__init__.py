"""MRapid core: the paper's contribution.

* :class:`DPlusScheduler` — Algorithm 1, same-heartbeat locality-aware
  balanced allocation (D+ mode).
* :class:`UPlusAM` — parallel in-container maps + in-memory intermediate
  cache (U+ mode).
* :class:`SubmissionFramework` — proxy + AM pool + client (§III-C).
* :mod:`~repro.core.estimator` — Equations 1-3.
* :class:`DecisionMaker` — mode selection and the per-signature winners.
* :class:`SpeculativeExecutor` — run both, kill the slower (Figure 6).
* :data:`~repro.core.submit.MODES` — the one mode table:
  :func:`build_cluster`, :func:`run_job` and
  :func:`repro.core.submit.submit` (not re-exported here, where it would
  shadow the ``repro.core.submit`` module).
"""

from ..mapreduce.client import JobHandle
from .ampool import MODE_DPLUS, MODE_UPLUS, AMSlave, SubmissionFramework
from .chain import ChainResult, ChainRunner, ChainStage, run_chain, validate_chain
from .cluster_resource import ClusterResource
from .decision import Decision, DecisionMaker, FailureModel
from .dplus import DPlusScheduler
from .estimator import (
    EstimatorInputs,
    containers_for_deadline,
    crossover_maps,
    estimate_dplus,
    estimate_full_job,
    estimate_uplus,
    pick_mode,
)
from .profiler import JobProfiler, ProfileSnapshot, estimator_inputs_from
from .speculation import SpeculationOutcome, SpeculativeExecutor
from .submit import (
    MODES,
    build_cluster,
    build_mrapid_cluster,
    build_stock_cluster,
    result_of,
    run_job,
)
from .tuning import TuningCandidate, TuningReport, tune_am_pool_size, tune_maps_per_vcore
from .uplus import IntermediateCache, UPlusAM

__all__ = [
    "AMSlave",
    "ChainResult",
    "ChainRunner",
    "ChainStage",
    "ClusterResource",
    "run_chain",
    "validate_chain",
    "Decision",
    "DecisionMaker",
    "DPlusScheduler",
    "EstimatorInputs",
    "FailureModel",
    "IntermediateCache",
    "JobHandle",
    "JobProfiler",
    "MODES",
    "MODE_DPLUS",
    "MODE_UPLUS",
    "ProfileSnapshot",
    "SpeculationOutcome",
    "SpeculativeExecutor",
    "SubmissionFramework",
    "TuningCandidate",
    "TuningReport",
    "UPlusAM",
    "build_cluster",
    "build_mrapid_cluster",
    "build_stock_cluster",
    "containers_for_deadline",
    "crossover_maps",
    "estimate_dplus",
    "estimate_full_job",
    "estimate_uplus",
    "estimator_inputs_from",
    "pick_mode",
    "result_of",
    "run_job",
    "tune_am_pool_size",
    "tune_maps_per_vcore",
]
