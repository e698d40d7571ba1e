"""SimCluster: one-stop construction of a fully wired simulated testbed.

Builds the environment, physical nodes, topology, network, HDFS, RM and NMs
from a :class:`~repro.config.ClusterSpec` + :class:`~repro.config.HadoopConfig`,
with any scheduler. Everything downstream (MapReduce AMs, MRapid, the
experiment harness) receives a ``SimCluster`` and never wires plumbing again.
"""

from __future__ import annotations

from typing import Optional

from .cluster.network import ClusterNetwork
from .cluster.node import Node
from .cluster.topology import Topology
from .config import ClusterSpec, HadoopConfig
from .hdfs.client import HdfsClient
from .hdfs.datanode import DataNodeDaemon, ReplicationManager
from .hdfs.namenode import NameNode
from .simulation.core import Environment
from .yarn.nodemanager import NodeManager
from .yarn.resourcemanager import ResourceManager
from .yarn.scheduler import CapacityScheduler, SchedulerBase


class SimCluster:
    """A running simulated Hadoop cluster (pre-job-submission state)."""

    def __init__(self, spec: ClusterSpec, conf: Optional[HadoopConfig] = None,
                 scheduler: Optional[SchedulerBase] = None, seed: int = 7) -> None:
        self.spec = spec
        self.conf = conf if conf is not None else HadoopConfig()
        self.env = Environment()

        inst = spec.instance
        self.datanodes: list[Node] = [
            Node(
                self.env,
                f"dn{i}",
                rack=f"rack{i % spec.racks}",
                cores=inst.cores,
                memory_mb=inst.memory_mb,
                disk_read_mb_s=inst.disk_read_mb_s,
                disk_write_mb_s=inst.disk_write_mb_s,
                disk_seek_penalty=inst.disk_seek_penalty,
            )
            for i in range(spec.num_datanodes)
        ]
        self.topology = Topology(self.datanodes)
        self.network = ClusterNetwork(self.env, self.datanodes,
                                      bandwidth_mb_s=inst.network_mb_s)
        self.namenode = NameNode(self.topology, block_size_mb=self.conf.block_size_mb,
                                 replication=min(self.conf.replication, spec.num_datanodes),
                                 seed=seed)
        self.hdfs = HdfsClient(self.env, self.namenode, self.network, self.topology)

        self.datanode_daemons: dict[str, DataNodeDaemon] = {
            node.node_id: DataNodeDaemon(self.env, node.node_id, self.namenode,
                                         report_interval_s=3.0)
            for node in self.datanodes
        }
        self.replication_manager = ReplicationManager(
            self.env, self.namenode, self.network, self.topology)

        self.scheduler = scheduler if scheduler is not None else CapacityScheduler()
        self.rm = ResourceManager(self.env, self.topology, self.scheduler, self.conf)
        #: Monotonic id source for nodes provisioned after construction.
        #: Never decremented: decommissioned ids must not come back, and
        #: deriving fresh ids from ``len(self.datanodes)`` would collide as
        #: soon as a node has been removed.
        self._node_seq = spec.num_datanodes
        #: Nodes with CPU or disk work in flight, keyed by id, with their
        #: creation index (``datanodes`` order): probes skip idle nodes.
        self._busy: dict[str, tuple[int, Node]] = {}
        self._index: dict[str, int] = {}
        #: Physical cores over ``datanodes``.
        self.total_cores = 0
        for i, node in enumerate(self.datanodes):
            self._watch(node, i)
        self.node_managers: list[NodeManager] = []
        for i, node in enumerate(self.datanodes):
            # Deterministic but spread heartbeat phases, like real daemons
            # that started at arbitrary times.
            offset = (i * 0.317) % self.conf.nm_heartbeat_s if self.conf.nm_heartbeat_s else 0.0
            nm = NodeManager(self.env, node, self.rm, heartbeat_offset=offset)
            self.rm.register_node_manager(nm)
            self.node_managers.append(nm)

    def add_node(self) -> NodeManager:
        """Provision one more worker (elastic scale-up, e.g. the autoscaler).

        The new node gets the next ``dn{i}`` id with the same deterministic
        rack assignment and heartbeat phase the constructor would have given
        it, joins the topology/network/HDFS/RM, and is schedulable from its
        first heartbeat. Node ids are never reused — the id comes from a
        monotonic counter, so it stays fresh even after :meth:`remove_node`
        has decommissioned workers (``len(self.datanodes)`` would collide).
        """
        inst = self.spec.instance
        i = self._node_seq
        self._node_seq += 1
        node = Node(
            self.env,
            f"dn{i}",
            rack=f"rack{i % self.spec.racks}",
            cores=inst.cores,
            memory_mb=inst.memory_mb,
            disk_read_mb_s=inst.disk_read_mb_s,
            disk_write_mb_s=inst.disk_write_mb_s,
            disk_seek_penalty=inst.disk_seek_penalty,
        )
        self.datanodes.append(node)
        self._watch(node, i)
        self.topology.add(node)
        self.network.add_node(node)
        self.datanode_daemons[node.node_id] = DataNodeDaemon(
            self.env, node.node_id, self.namenode, report_interval_s=3.0)
        self.rm.add_node(node)
        offset = (i * 0.317) % self.conf.nm_heartbeat_s if self.conf.nm_heartbeat_s else 0.0
        nm = NodeManager(self.env, node, self.rm, heartbeat_offset=offset)
        self.rm.register_node_manager(nm)
        self.node_managers.append(nm)
        return nm

    def remove_node(self, node_id: str):
        """Decommission a worker permanently (scale-down beyond drain).

        The node leaves the RM (state forgotten, heartbeats unregistered),
        the topology and the HDFS membership; its replicas are written off
        and re-replicated onto the survivors. Its id is never reused —
        :meth:`add_node` draws from a monotonic counter. The node must be
        idle (no running containers); drain it first under load. Network
        links are left in place: they are keyed by id and unreachable once
        the node is out of the topology.

        Returns the HDFS re-replication process.
        """
        nm = self.rm.node_managers[node_id]
        if nm.running:
            raise ValueError(
                f"cannot decommission {node_id}: containers still running")
        node = self.topology.node(node_id)
        self.rm.remove_node(node_id)
        self.topology.remove(node_id)
        self.datanodes.remove(node)
        del self._index[node_id]
        self._busy.pop(node_id, None)
        self.total_cores -= node.cpu.cores
        self.node_managers = [m for m in self.node_managers
                              if m.node_id != node_id]
        daemon = self.datanode_daemons.pop(node_id)
        daemon.fail()
        return self.replication_manager.handle_datanode_loss(node_id)

    def busy_nodes(self) -> list[Node]:
        """Nodes with CPU or disk work in flight, in ``datanodes`` order.
        Every other node reads zero on both devices."""
        return [node for _, node in sorted(self._busy.values())]

    def _watch(self, node: Node, index: int) -> None:
        self._index[node.node_id] = index
        self.total_cores += node.cpu.cores
        node.on_busy = self._on_node_busy

    def _on_node_busy(self, node: Node, busy: bool) -> None:
        index = self._index.get(node.node_id)
        if busy and index is not None:
            self._busy[node.node_id] = (index, node)
        else:
            self._busy.pop(node.node_id, None)

    # -- convenience -----------------------------------------------------------
    def load_input_files(self, prefix: str, num_files: int,
                         file_size_mb: float) -> list[str]:
        """Pre-populate HDFS with input files (no simulated ingest time).

        The primary replica rotates across DataNodes, as data loaded by
        parallel ``hdfs put`` / TeraGen ends up spread out. Returns the
        created paths.
        """
        paths = []
        node_ids = self.topology.node_ids
        for i in range(num_files):
            path = f"{prefix}/part-{i:05d}"
            self.namenode.create_file(path, file_size_mb,
                                      writer_node=node_ids[i % len(node_ids)])
            paths.append(path)
        return paths

    def ingest_input_files(self, prefix: str, num_files: int, file_size_mb: float,
                           gateway_node: str = "dn0"):
        """*Timed* input ingest: write files through the HDFS data path.

        Unlike :meth:`load_input_files` (instant metadata, for experiments
        whose clock starts at job submission), this pays the real pipelined
        replication traffic of an ``hdfs put`` from ``gateway_node``.
        Returns a process whose value is the list of created paths.
        """

        def body():
            paths = []
            for i in range(num_files):
                path = f"{prefix}/part-{i:05d}"
                yield from self.hdfs.write_file(path, file_size_mb, gateway_node)
                paths.append(path)
            return paths

        return self.env.process(body(), name=f"ingest-{prefix}")

    def fail_node(self, node_id: str):
        """Whole-machine failure: YARN containers die, heartbeats stop, the
        DataNode's replicas are lost, in-flight disk and network transfers
        served by the machine are torn down (readers fail over to surviving
        replicas; shuffle fetchers report fetch failures), and HDFS
        re-replication kicks off.

        Returns the re-replication process (completes when replication
        factors are restored on the survivors).
        """
        self.rm.node_managers[node_id].fail()
        self.datanode_daemons[node_id].fail()
        # Prune the replica maps first (handle_datanode_loss does so
        # synchronously before yielding), then deliver the flow failures, so
        # FlowKilled handlers already see the post-failure replica lists.
        rerepl = self.replication_manager.handle_datanode_loss(node_id)
        self.topology.node(node_id).disk.fail_active()
        self.network.fail_node_flows(node_id)
        return rerepl

    def restart_node(self, node_id: str) -> None:
        """Bring a failed machine back: the NM re-registers empty and the
        DataNode resumes (its block inventory was already written off by the
        NameNode on failure, so the node rejoins with no replicas — real
        HDFS would eventually delete the stale block files anyway).
        """
        self.rm.node_managers[node_id].restart()
        self.datanode_daemons[node_id].restart()
        self.replication_manager.dead_nodes.discard(node_id)
