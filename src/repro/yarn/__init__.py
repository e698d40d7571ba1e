"""Simulated YARN: ResourceManager, NodeManagers, schedulers, records."""

from .hfsp import HFSPScheduler
from .nodemanager import NodeManager
from .queues import MultiTenantCapacityScheduler, QueueConfig, QueueState
from .records import Application, Container, ContainerRequest, IdAllocator, NodeState
from .resourcemanager import AMContext, JobKilled, ResourceManager
from .scheduler import CapacityScheduler, PendingAsk, SchedulerBase

__all__ = [
    "AMContext",
    "Application",
    "CapacityScheduler",
    "Container",
    "ContainerRequest",
    "HFSPScheduler",
    "IdAllocator",
    "JobKilled",
    "MultiTenantCapacityScheduler",
    "NodeManager",
    "NodeState",
    "PendingAsk",
    "QueueConfig",
    "QueueState",
    "ResourceManager",
    "SchedulerBase",
]
