"""MRapid core: the paper's contribution.

* :class:`DPlusScheduler` — Algorithm 1, same-heartbeat locality-aware
  balanced allocation (D+ mode).
* :class:`UPlusAM` — parallel in-container maps + in-memory intermediate
  cache (U+ mode).
* :class:`SubmissionFramework` — proxy + AM pool + client (§III-C).
* :mod:`~repro.core.estimator` — Equations 1-3.
* :class:`DecisionMaker` — mode selection and the per-signature winners.
* :class:`SpeculativeExecutor` — run both, kill the slower (Figure 6).
* :func:`run_short_job` / :func:`run_speculative` / builders — facade.
"""

from .ampool import MODE_DPLUS, MODE_UPLUS, AMSlave, JobHandle, SubmissionFramework
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
    build_mrapid_cluster,
    build_stock_cluster,
    run_short_job,
    run_speculative,
    run_stock_job,
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
    "MODE_DPLUS",
    "MODE_UPLUS",
    "ProfileSnapshot",
    "SpeculationOutcome",
    "SpeculativeExecutor",
    "SubmissionFramework",
    "TuningCandidate",
    "TuningReport",
    "UPlusAM",
    "build_mrapid_cluster",
    "build_stock_cluster",
    "containers_for_deadline",
    "crossover_maps",
    "estimate_dplus",
    "estimate_full_job",
    "estimate_uplus",
    "estimator_inputs_from",
    "pick_mode",
    "run_short_job",
    "run_speculative",
    "tune_am_pool_size",
    "tune_maps_per_vcore",
    "run_stock_job",
]
