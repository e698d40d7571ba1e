"""Rack topology and locality classification (Hadoop network-distance style).

Replica placement draws nodes from "every node outside this rack" or
"every node but these" once per block, so :class:`Topology` answers those
as cached membership views rather than filtered copies of the node list:
the node-id sequence, each rack's members, and :class:`Excluding` views
over them, each in node order. They are built in one O(nodes) pass on
first use, dropped by :meth:`Topology.add` and :meth:`Topology.remove`,
and read in O(log rack) per element.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Iterable, Optional, Sequence

from .node import Node


class Locality(enum.IntEnum):
    """Container-placement locality relative to a task's input data.

    Order matters: lower is better, and the D+ scheduler serves requests in
    NODE_LOCAL -> RACK_LOCAL -> ANY order (paper Algorithm 1, line 1).
    """

    NODE_LOCAL = 0
    RACK_LOCAL = 1
    ANY = 2


class Excluding:
    """Read-only sequence: ``base`` without the items at some positions.

    ``gaps[k]`` is ``p_k - k`` for the k-th excluded position ``p_k``
    (ascending): the number of kept items before it. Item ``i`` of the view
    is therefore ``base[i + bisect_right(gaps, i)]``, so a view over n
    items excluding m costs O(m) to build and O(log m) per read, and
    ``random.choice`` draws from it exactly as from the filtered list.
    """

    __slots__ = ("_base", "_gaps", "_len")

    def __init__(self, base: Sequence[str], excluded: Iterable[int]) -> None:
        self._base = base
        self._gaps = [p - k for k, p in enumerate(sorted(excluded))]
        self._len = len(base) - len(self._gaps)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < self._len:
            raise IndexError(i)
        return self._base[i + bisect_right(self._gaps, i)]


class _Views:
    """Membership views of one topology version (see the module docstring)."""

    __slots__ = ("ids", "position", "rack_ids", "outside")

    def __init__(self, nodes: Sequence[Node]) -> None:
        #: every node id, in node order
        self.ids = tuple(node.node_id for node in nodes)
        at: dict[str, list[int]] = {}
        for i, node in enumerate(nodes):
            at.setdefault(node.rack, []).append(i)
        #: rack -> its members' ids, in node order
        self.rack_ids = {rack: tuple(self.ids[i] for i in pos)
                         for rack, pos in at.items()}
        #: node id -> (index in ids, index in its rack's members)
        self.position = {self.ids[i]: (i, k)
                         for pos in at.values() for k, i in enumerate(pos)}
        #: rack -> the nodes outside it
        self.outside = {rack: Excluding(self.ids, pos) for rack, pos in at.items()}


class Topology:
    """Node/rack membership with Hadoop-style network distances."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ValueError("topology needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in topology")
        self._nodes: dict[str, Node] = {n.node_id: n for n in nodes}
        self._racks: dict[str, list[Node]] = {}
        for node in nodes:
            self._racks.setdefault(node.rack, []).append(node)
        self._cached: Optional[_Views] = None

    def add(self, node: Node) -> None:
        """Register a node added after construction (elastic scale-up)."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._racks.setdefault(node.rack, []).append(node)
        self._cached = None

    def remove(self, node_id: str) -> Node:
        """Forget a decommissioned node (its id must never be reused)."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise KeyError(f"unknown node {node_id!r}")
        rack = self._racks.get(node.rack)
        if rack is not None:
            rack.remove(node)
            if not rack:
                del self._racks[node.rack]
        self._cached = None
        return node

    # -- membership views (cached until the next add/remove) ----------------
    def _views(self) -> _Views:
        if self._cached is None:
            self._cached = _Views(list(self._nodes.values()))
        return self._cached

    def outside_rack(self, rack: str) -> Excluding:
        """The nodes not in ``rack``, in node order."""
        return self._views().outside[rack]

    def excluding(self, node_ids: Iterable[str]) -> Excluding:
        """Every node but the (distinct) ``node_ids``, in node order."""
        views = self._views()
        return Excluding(views.ids, [views.position[n][0] for n in node_ids])

    def rack_excluding(self, rack: str, node_ids: Iterable[str]) -> Excluding:
        """The members of ``rack`` but the (distinct) ``node_ids``, in node
        order; ids in other racks are ignored."""
        views = self._views()
        return Excluding(views.rack_ids[rack], [
            views.position[n][1] for n in node_ids if self._nodes[n].rack == rack])

    # -- lookup ------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Every node id, in node order (cached until the next add/remove)."""
        return self._views().ids

    @property
    def racks(self) -> list[str]:
        return list(self._racks.keys())

    def rack_of(self, node_id: str) -> str:
        return self._nodes[node_id].rack

    def nodes_in_rack(self, rack: str) -> list[Node]:
        return list(self._racks.get(rack, []))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- distances ------------------------------------------------------------
    def distance(self, a: str, b: str) -> int:
        """Hadoop network distance: 0 same node, 2 same rack, 4 off rack."""
        if a == b:
            return 0
        if self.rack_of(a) == self.rack_of(b):
            return 2
        return 4

    def locality(self, node_id: str, replica_nodes: Iterable[str]) -> Locality:
        """Best locality of ``node_id`` relative to any of ``replica_nodes``."""
        best = Locality.ANY
        rack = self.rack_of(node_id)
        for replica in replica_nodes:
            if replica == node_id:
                return Locality.NODE_LOCAL
            if replica in self and self.rack_of(replica) == rack:
                best = Locality.RACK_LOCAL
        return best

    def closest_replica(self, node_id: str, replica_nodes: Sequence[str]) -> Optional[str]:
        """The replica holder nearest to ``node_id`` (ties: first listed)."""
        best: Optional[str] = None
        best_distance = 10
        for replica in replica_nodes:
            if replica not in self:
                continue
            d = self.distance(node_id, replica)
            if d < best_distance:
                best_distance = d
                best = replica
        return best
