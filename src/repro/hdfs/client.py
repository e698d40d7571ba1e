"""HDFS data-path client: timed reads and writes over disks + network.

Reads stream from the closest replica: the replica's disk read and the
network hop (when remote) run concurrently, approximating HDFS's pipelined
``DataXceiver`` streaming — the slower stage dominates. Writes pipeline to
every replica.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..cluster.network import ClusterNetwork
from ..cluster.topology import Topology
from .block import Block
from .namenode import HdfsError, NameNode

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment
    from ..simulation.events import Event


class HdfsClient:
    """Performs timed HDFS I/O for a caller located on some node."""

    def __init__(self, env: "Environment", namenode: NameNode,
                 network: ClusterNetwork, topology: Topology) -> None:
        self.env = env
        self.namenode = namenode
        self.network = network
        self.topology = topology

    # -- reads --------------------------------------------------------------
    def read_block(self, block: Block, at_node: str) -> Generator:
        """Read one block to ``at_node``; yields until the data has arrived.

        Returns the replica node the data came from (useful for locality
        accounting in tests and the profiler).
        """
        source = self.topology.closest_replica(at_node, block.replicas)
        if source is None:
            raise HdfsError(f"block {block.block_id} has no live replicas")
        if block.size_mb <= 0:
            return source
        disk = self.topology.node(source).disk.read(block.size_mb, label=f"blk{block.block_id}")
        if source == at_node:
            yield disk.done
        else:
            net = self.network.transfer(source, at_node, block.size_mb,
                                        label=f"blk{block.block_id}")
            yield disk.done & net.done
        return source

    def read_file(self, path: str, at_node: str) -> Generator:
        """Read a whole file block-by-block (sequentially, like a scan)."""
        file = self.namenode.get_file(path)
        sources = []
        for block in file.blocks:
            source = yield from self.read_block(block, at_node)
            sources.append(source)
        return sources

    # -- writes ---------------------------------------------------------------
    def write_file(self, path: str, size_mb: float, at_node: str) -> Generator:
        """Create and persist a file, pipelining each block to its replicas."""
        file = self.namenode.create_file(path, size_mb, writer_node=at_node)
        for block in file.blocks:
            if block.size_mb <= 0:
                continue
            waits: list["Event"] = []
            for replica in block.replicas:
                disk = self.topology.node(replica).disk.write(block.size_mb,
                                                              label=f"blk{block.block_id}")
                waits.append(disk.done)
                if replica != at_node:
                    net = self.network.transfer(at_node, replica, block.size_mb,
                                                label=f"repl{block.block_id}")
                    waits.append(net.done)
            yield self.env.all_of(waits)
        return file
