"""The NameNode: namespace plus the default rack-aware placement policy."""

from __future__ import annotations

import itertools
import random
from typing import Optional

from ..cluster.topology import Topology
from .block import Block, HdfsFile


class HdfsError(Exception):
    """Namespace-level failure (missing path, duplicate create, ...)."""


class NameNode:
    """Namespace owner and replica placer.

    Placement follows the HDFS default the paper describes (§III-A): first
    replica on the writer's node (or a random node for off-cluster writers),
    second on a node in a *different* rack, third on a *different node in
    that same remote rack*. Extra replicas (replication > 3) go to random
    nodes without duplicates. Candidates come from the topology's cached
    membership views (:mod:`repro.cluster.topology`), which a node joining
    or leaving drops, so placement sees the current membership.
    """

    def __init__(self, topology: Topology, block_size_mb: float = 64.0,
                 replication: int = 3, seed: int = 7) -> None:
        if block_size_mb <= 0:
            raise ValueError("block size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.topology = topology
        self.block_size_mb = block_size_mb
        self.replication = replication
        self._seed = seed
        #: Draws that are not tied to a file path (e.g. re-replication
        #: targets) come from this stream; per-file placement must not —
        #: see :meth:`_file_rng`.
        self._rng = random.Random(seed)
        self._files: dict[str, HdfsFile] = {}
        self._block_ids = itertools.count(1)

    # -- namespace ------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def get_file(self, path: str) -> HdfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise HdfsError(f"no such file: {path}") from None

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise HdfsError(f"no such file: {path}")
        del self._files[path]

    def list_files(self) -> list[str]:
        return sorted(self._files)

    # -- creation ---------------------------------------------------------------
    def create_file(self, path: str, size_mb: float,
                    writer_node: Optional[str] = None) -> HdfsFile:
        """Allocate blocks + replicas for a new file of ``size_mb``.

        This is the metadata operation only; actually moving bytes is the
        client's job (:meth:`repro.hdfs.client.HdfsClient.write_file`).
        """
        if path in self._files:
            raise HdfsError(f"file exists: {path}")
        if size_mb < 0:
            raise ValueError("size cannot be negative")
        file = HdfsFile(path)
        rng = self._file_rng(path)
        remaining = size_mb
        while remaining > 0 or not file.blocks:
            chunk = min(self.block_size_mb, remaining) if remaining > 0 else 0.0
            block = Block(next(self._block_ids), path, chunk,
                          replicas=self._place_replicas(writer_node, rng))
            file.blocks.append(block)
            remaining -= chunk
            if chunk == 0:
                break
        self._files[path] = file
        return file

    def _file_rng(self, path: str) -> random.Random:
        """Placement stream for one file: a pure function of (seed, path).

        Drawing replica targets from the shared ``_rng`` would make a
        file's block locations depend on how many files happened to be
        created before it — so two jobs whose inputs load at the same
        simulated instant would swap placements under a different kernel
        tie-break (the ``--sanitize-races`` hazard). Seeding per path keeps
        placement independent of creation order. String seeding hashes the
        text deterministically (no ``PYTHONHASHSEED`` dependence).
        """
        return random.Random(f"{self._seed}:{path}")

    def _place_replicas(self, writer_node: Optional[str],
                        rng: Optional[random.Random] = None) -> list[str]:
        """Replica targets for one block, drawn by ``rng.choice`` from the
        topology's membership views. Each candidate set holds the nodes a
        filter over every node would keep, in the same order, so the draws
        are the same; reading one costs O(log rack), not O(nodes)."""
        rng = rng if rng is not None else self._rng
        topology = self.topology
        nodes = topology.node_ids
        want = min(self.replication, len(nodes))

        if writer_node is not None and writer_node in topology:
            first = writer_node
        else:
            first = rng.choice(nodes)
        replicas = [first]

        if want >= 2:
            remote_rack_nodes = topology.outside_rack(topology.rack_of(first))
            if remote_rack_nodes:
                second = rng.choice(remote_rack_nodes)
            else:  # single-rack cluster: any other node
                second = rng.choice(topology.excluding(replicas))
            replicas.append(second)

        if want >= 3:
            same_remote = topology.rack_excluding(topology.rack_of(replicas[1]),
                                                  replicas)
            pool = same_remote or topology.excluding(replicas)
            replicas.append(rng.choice(pool))

        while len(replicas) < want:
            replicas.append(rng.choice(topology.excluding(replicas)))
        return replicas

    # -- queries used by schedulers ------------------------------------------------
    def block_locations(self, path: str) -> list[tuple[Block, list[str]]]:
        return [(b, list(b.replicas)) for b in self.get_file(path).blocks]

    def blocks_on_node(self, node_id: str) -> list[Block]:
        return [
            b for f in self._files.values() for b in f.blocks if b.hosted_on(node_id)
        ]

    def under_replicated(self) -> list[Block]:
        """Blocks with fewer live replicas than the target factor.

        The fsck-style health view: non-empty after a DataNode loss, drains
        back to empty as the ReplicationManager restores the factors.
        """
        return [
            b for f in self._files.values() for b in f.blocks
            if b.size_mb > 0 and 0 < len(b.replicas) < self.replication
        ]
