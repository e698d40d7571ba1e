"""Cluster network fabric: NICs, rack switches, a core switch.

Transfers are flows on a :class:`~repro.cluster.fabric.SharedFabric` whose
links are each node's NIC (full duplex: separate in/out links), each rack's
uplink/downlink to the core, and the core switch itself. Same-node transfers
bypass the network entirely (HDFS short-circuit reads). Allocation across
concurrent transfers is max-min fair, so a reducer fetching from four mappers
on one node sees that node's NIC shared four ways.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .fabric import Flow, SharedFabric
from .node import Node

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment


class ClusterNetwork:
    """Hierarchical two-level network with configurable oversubscription."""

    def __init__(self, env: "Environment", nodes: list[Node], bandwidth_mb_s: float = 120.0,
                 rack_uplink_mb_s: Optional[float] = None, core_mb_s: Optional[float] = None) -> None:
        if bandwidth_mb_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth_mb_s = bandwidth_mb_s
        self.fabric = SharedFabric(env)
        #: Racks in first-seen node order (an ordered set): the order the
        #: rack links are added in is the allocator's tie-break order, so
        #: it must not follow string hashing.
        self._racks: dict[str, None] = dict.fromkeys(n.rack for n in nodes)
        self._node_rack: dict[str, str] = {n.node_id: n.rack for n in nodes}

        for node in nodes:
            self.fabric.add_link(f"nic_out:{node.node_id}", bandwidth_mb_s)
            self.fabric.add_link(f"nic_in:{node.node_id}", bandwidth_mb_s)

        # Default to a non-blocking fabric (cloud VMs see no visible rack
        # oversubscription); pass rack_uplink_mb_s to model an oversubscribed
        # rack switch explicitly.
        per_rack = max(
            (sum(1 for n in nodes if n.rack == rack) for rack in self._racks), default=1
        )
        uplink = rack_uplink_mb_s if rack_uplink_mb_s is not None else bandwidth_mb_s * per_rack
        core = core_mb_s if core_mb_s is not None else uplink * max(1, len(self._racks))
        for rack in self._racks:
            self.fabric.add_link(f"rack_up:{rack}", uplink)
            self.fabric.add_link(f"rack_down:{rack}", uplink)
        self.fabric.add_link("core", core)

    def add_node(self, node: Node) -> None:
        """Register a node added after construction (e.g. elastic tests)."""
        self._node_rack[node.node_id] = node.rack
        self.fabric.add_link(f"nic_out:{node.node_id}", self.bandwidth_mb_s)
        self.fabric.add_link(f"nic_in:{node.node_id}", self.bandwidth_mb_s)
        if node.rack not in self._racks:
            self._racks[node.rack] = None
            uplink = self.bandwidth_mb_s
            self.fabric.add_link(f"rack_up:{node.rack}", uplink)
            self.fabric.add_link(f"rack_down:{node.rack}", uplink)

    def path(self, src: str, dst: str) -> tuple[str, ...]:
        """Link path between two node ids; empty for same-node transfers."""
        if src == dst:
            return ()
        src_rack = self._node_rack[src]
        dst_rack = self._node_rack[dst]
        if src_rack == dst_rack:
            return (f"nic_out:{src}", f"nic_in:{dst}")
        return (
            f"nic_out:{src}",
            f"rack_up:{src_rack}",
            "core",
            f"rack_down:{dst_rack}",
            f"nic_in:{dst}",
        )

    def transfer(self, src: str, dst: str, mb: float, label: str = "xfer") -> Flow:
        """Move ``mb`` megabytes from ``src`` to ``dst``; returns the flow.

        Same-node transfers complete immediately (zero-size flow on an empty
        path is still an event, so callers can yield it uniformly).
        """
        path = self.path(src, dst)
        if not path:
            return self.fabric.submit((), 0.0, label=label)
        return self.fabric.submit(path, mb, label=label)

    def kill(self, flow: Flow) -> None:
        self.fabric.kill(flow)

    # -- fault hooks --------------------------------------------------------
    def _node_links(self, node_id: str) -> tuple[str, str]:
        if node_id not in self._node_rack:
            raise KeyError(f"unknown node {node_id!r}")
        return (f"nic_out:{node_id}", f"nic_in:{node_id}")

    def set_node_degradation(self, node_id: str, factor: float) -> None:
        """Degrade a node's NIC by ``factor`` (>1 = slower; 1.0 restores).

        A very large factor approximates a network partition: capacity must
        stay positive, so in-flight transfers stall to a crawl instead of
        erroring, and heal transparently when the degradation is lifted —
        exactly how a gray network failure looks to the application.
        """
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        for link in self._node_links(node_id):
            self.fabric.set_capacity(link, self.bandwidth_mb_s / factor)

    def restore_node(self, node_id: str) -> None:
        self.set_node_degradation(node_id, 1.0)

    def fail_node_flows(self, node_id: str) -> int:
        """Kill every in-flight transfer touching ``node_id`` (machine died).

        Returns the number of flows killed; their waiters observe
        :class:`~repro.cluster.fabric.FlowKilled`.
        """
        links = set(self._node_links(node_id))
        victims = [f for f in self.fabric.active_flows
                   if links.intersection(f.path)]
        for flow in victims:
            self.fabric.kill(flow)
        return len(victims)
