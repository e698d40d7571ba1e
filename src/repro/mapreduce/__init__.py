"""Simulated MapReduce framework: job model, task phases, AMs, client."""

from .appmaster import DistributedAM, JobFailed
from .client import MODE_AUTO, MODE_DISTRIBUTED, MODE_UBER, JobClient, uber_eligible
from .spec import JobResult, PhaseTimings, SimJobSpec, TaskRecord
from .tasks import sim_map_task, sim_reduce_task, wait_flow
from .uber import UberAM

__all__ = [
    "DistributedAM",
    "JobClient",
    "JobFailed",
    "JobResult",
    "MODE_AUTO",
    "MODE_DISTRIBUTED",
    "MODE_UBER",
    "uber_eligible",
    "PhaseTimings",
    "SimJobSpec",
    "TaskRecord",
    "UberAM",
    "sim_map_task",
    "sim_reduce_task",
    "wait_flow",
]
