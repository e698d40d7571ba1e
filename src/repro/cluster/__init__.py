"""Physical-cluster substrate: machines, devices, network, topology.

* :class:`ResourceVector` — memory+vcores arithmetic (YARN ``Resource``).
* :class:`FairShareDevice` — a processor-sharing queue; the base class of
  disks and CPU pools.
* :class:`SharedFabric` — max-min fair capacity sharing over links; used
  for the network.
* :class:`Node` — a machine with a :class:`CpuPool` and :class:`DiskDevice`.
* :class:`ClusterNetwork` — two-level (rack/core) network fabric.
* :class:`Topology` / :class:`Locality` — rack membership and Hadoop-style
  network distances.
"""

from .fabric import FairShareDevice, Flow, FlowKilled, SharedFabric
from .network import ClusterNetwork
from .node import CpuPool, DiskDevice, Node
from .resources import ResourceVector, dominant_resource
from .topology import Locality, Topology

__all__ = [
    "ClusterNetwork",
    "CpuPool",
    "DiskDevice",
    "FairShareDevice",
    "Flow",
    "FlowKilled",
    "Locality",
    "Node",
    "ResourceVector",
    "SharedFabric",
    "Topology",
    "dominant_resource",
]
