"""MRapid - an efficient short-job optimizer on Hadoop (IPPS 2017), reproduced.

A full-Python reproduction of the paper's system and evaluation:

* :mod:`repro.simulation` - deterministic discrete-event kernel.
* :mod:`repro.cluster` - machines, fair-shared disks/CPUs, max-min network.
* :mod:`repro.hdfs` - namespace, rack-aware replica placement, timed I/O.
* :mod:`repro.yarn` - RM/NM heartbeats and the stock CapacityScheduler.
* :mod:`repro.mapreduce` - task phases, distributed AM, stock Uber AM.
* :mod:`repro.core` - MRapid itself: D+ scheduler (Algorithm 1), U+ mode,
  AM-pool submission framework, Eq. 1-3 estimator, speculation.
* :mod:`repro.engine` - a real functional MapReduce engine.
* :mod:`repro.workloads` - WordCount, TeraSort, PI (really executable).
* :mod:`repro.experiments` - every table/figure of the paper regenerated.

Quickstart::

    from repro import a3_cluster, build_cluster, run_job
    from repro import SimJobSpec, WORDCOUNT_PROFILE

    cluster = build_cluster(a3_cluster(4), "speculative")
    paths = cluster.load_input_files("/wc", 4, 10.0)
    result = run_job(cluster, SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE),
                     "speculative")              # launch D+ and U+, keep the winner
    print(result.mode, result.elapsed)
"""

from .config import (
    INSTANCE_TYPES,
    ClusterSpec,
    HadoopConfig,
    InstanceType,
    MRapidConfig,
    a2_cluster,
    a3_cluster,
)
from .core import (
    DecisionMaker,
    DPlusScheduler,
    EstimatorInputs,
    SpeculationOutcome,
    SpeculativeExecutor,
    SubmissionFramework,
    UPlusAM,
    build_cluster,
    build_mrapid_cluster,
    build_stock_cluster,
    estimate_dplus,
    estimate_full_job,
    estimate_uplus,
    result_of,
    run_job,
)
from .mapreduce import JobClient, JobResult, SimJobSpec
from .simcluster import SimCluster
from .workloads import (
    TERASORT_PROFILE,
    WORDCOUNT_PROFILE,
    WorkloadProfile,
    pi_profile,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterSpec",
    "DecisionMaker",
    "DPlusScheduler",
    "EstimatorInputs",
    "HadoopConfig",
    "INSTANCE_TYPES",
    "InstanceType",
    "JobClient",
    "JobResult",
    "MRapidConfig",
    "SimCluster",
    "SimJobSpec",
    "SpeculationOutcome",
    "SpeculativeExecutor",
    "SubmissionFramework",
    "TERASORT_PROFILE",
    "UPlusAM",
    "WORDCOUNT_PROFILE",
    "WorkloadProfile",
    "__version__",
    "a2_cluster",
    "a3_cluster",
    "build_cluster",
    "build_mrapid_cluster",
    "build_stock_cluster",
    "estimate_dplus",
    "estimate_full_job",
    "estimate_uplus",
    "pi_profile",
    "result_of",
    "run_job",
]
