"""Tests for nodes, disks, network paths, topology, and resource vectors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterNetwork,
    Locality,
    Node,
    ResourceVector,
    Topology,
    dominant_resource,
)
from repro.simulation import Environment


def make_nodes(env, n=4, racks=2, cores=4, memory_mb=7168):
    return [
        Node(env, f"dn{i}", rack=f"rack{i % racks}", cores=cores, memory_mb=memory_mb)
        for i in range(n)
    ]


# -- ResourceVector ----------------------------------------------------------

def test_resource_vector_arithmetic():
    a = ResourceVector(1024, 2)
    b = ResourceVector(512, 1)
    assert a + b == ResourceVector(1536, 3)
    assert a - b == ResourceVector(512, 1)
    assert 2 * b == ResourceVector(1024, 2)


def test_resource_vector_negative_rejected():
    with pytest.raises(ValueError):
        ResourceVector(-1, 0)
    a = ResourceVector(100, 1)
    with pytest.raises(ValueError):
        _ = a - ResourceVector(200, 0)


def test_fits_in_requires_both_dimensions():
    assert ResourceVector(100, 1).fits_in(ResourceVector(100, 1))
    assert not ResourceVector(101, 1).fits_in(ResourceVector(100, 2))
    assert not ResourceVector(50, 3).fits_in(ResourceVector(100, 2))


def test_dominant_resource_selection():
    total = ResourceVector(10000, 10)
    assert dominant_resource(ResourceVector(9000, 2), total) == "memory"
    assert dominant_resource(ResourceVector(1000, 8), total) == "vcores"


def test_dominant_share():
    total = ResourceVector(1000, 10)
    assert ResourceVector(500, 1).dominant_share(total) == pytest.approx(0.5)


@given(st.integers(0, 10_000), st.integers(0, 64),
       st.integers(0, 10_000), st.integers(0, 64))
@settings(max_examples=50)
def test_property_resource_add_sub_roundtrip(m1, c1, m2, c2):
    a = ResourceVector(m1 + m2, c1 + c2)
    b = ResourceVector(m2, c2)
    assert (a - b) + b == a
    assert b.fits_in(a)


# -- Disk ---------------------------------------------------------------------

def test_disk_read_rate():
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=7168,
                disk_read_mb_s=100.0, disk_write_mb_s=80.0)
    flow = node.disk.read(200.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(2.0)


def test_disk_write_slower_than_read():
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=7168,
                disk_read_mb_s=100.0, disk_write_mb_s=80.0)
    flow = node.disk.write(160.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(2.0)


def test_disk_contention_two_readers():
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=7168, disk_read_mb_s=100.0,
                disk_seek_penalty=0.0)
    f1 = node.disk.read(100.0)
    f2 = node.disk.read(100.0)
    env.run()
    assert f1.done.value == pytest.approx(2.0)
    assert f2.done.value == pytest.approx(2.0)


def test_disk_seek_penalty_slows_concurrent_streams():
    """With penalty 0.5, two concurrent readers run at 2/3 aggregate rate."""
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=7168, disk_read_mb_s=100.0,
                disk_seek_penalty=0.5)
    f1 = node.disk.read(100.0)
    f2 = node.disk.read(100.0)
    env.run()
    # aggregate = 100 * 1/(1+0.5) = 66.7 MB/s -> 200 MB takes 3 s.
    assert f1.done.value == pytest.approx(3.0)
    assert f2.done.value == pytest.approx(3.0)


def test_disk_seek_penalty_recovers_after_completion():
    """A solo op after a contended phase runs at full speed again."""
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=7168, disk_read_mb_s=100.0,
                disk_seek_penalty=0.5)
    node.disk.read(50.0)
    node.disk.read(50.0)
    env.run()
    f3 = node.disk.read(100.0)
    env.run()
    assert f3.done.value - f3.last_update <= 1.0 + 1e-6


def test_disk_single_stream_unaffected_by_penalty():
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=7168, disk_read_mb_s=100.0,
                disk_seek_penalty=0.9)
    f = node.disk.read(100.0)
    env.run()
    assert f.done.value == pytest.approx(1.0)


def test_cpu_pool_contention():
    env = Environment()
    node = Node(env, "n0", "r0", cores=2, memory_mb=4096)
    flows = [node.cpu.compute(10.0) for _ in range(4)]
    env.run()
    for f in flows:
        assert f.done.value == pytest.approx(20.0)


def test_cpu_slowdown_applies_to_running_tasks_and_restores():
    env = Environment()
    node = Node(env, "n0", "r0", cores=4, memory_mb=4096)
    flows = [node.cpu.compute(10.0) for _ in range(4)]
    env.run(until=2.0)  # 2 of 10 done at 1 core each
    node.cpu.set_slowdown(4.0)  # one core's worth for four tasks
    assert node.cpu.slowdown == 4.0
    env.run(until=6.0)  # 1 more each at 0.25
    node.cpu.set_slowdown(1.0)
    env.run()
    for f in flows:
        assert f.done.value == pytest.approx(13.0)
    with pytest.raises(ValueError):
        node.cpu.set_slowdown(0.0)


# -- Network -------------------------------------------------------------------

def test_same_node_transfer_is_free():
    env = Environment()
    nodes = make_nodes(env)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=100.0)
    flow = net.transfer("dn0", "dn0", 1000.0)
    env.run()
    assert flow.done.value == pytest.approx(0.0)


def test_intra_rack_transfer_at_nic_speed():
    env = Environment()
    nodes = make_nodes(env, n=4, racks=2)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=100.0)
    # dn0 and dn2 share rack0.
    flow = net.transfer("dn0", "dn2", 500.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(5.0)


def test_cross_rack_path_includes_core():
    env = Environment()
    nodes = make_nodes(env, n=4, racks=2)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=100.0)
    path = net.path("dn0", "dn1")  # rack0 -> rack1
    assert "core" in path
    assert path[0] == "nic_out:dn0" and path[-1] == "nic_in:dn1"


def test_incast_shares_receiver_nic():
    """Three senders to one receiver split the receiver's NIC."""
    env = Environment()
    nodes = make_nodes(env, n=4, racks=1)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=90.0)
    flows = [net.transfer(f"dn{i}", "dn3", 300.0) for i in range(3)]
    env.run()
    for f in flows:
        assert f.done.value == pytest.approx(10.0)  # 30 MB/s each


def test_outcast_shares_sender_nic():
    env = Environment()
    nodes = make_nodes(env, n=3, racks=1)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=100.0)
    f1 = net.transfer("dn0", "dn1", 100.0)
    f2 = net.transfer("dn0", "dn2", 100.0)
    env.run()
    assert f1.done.value == pytest.approx(2.0)
    assert f2.done.value == pytest.approx(2.0)


def test_rack_link_order_does_not_depend_on_string_hashing():
    """The order the rack links are added in is the allocator's tie-break
    order, so it must be the same under every ``PYTHONHASHSEED``: the
    racks' first-seen node order."""
    import repro

    code = ("import json\n"
            "from repro.config import a2_cluster\n"
            "from repro.simcluster import SimCluster\n"
            "print(json.dumps(list(SimCluster(a2_cluster(9)).network.fabric.links)))")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    orders = []
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        orders.append(json.loads(out))
    assert orders[0] == orders[1]
    assert [link for link in orders[0] if link.startswith("rack_up:")] == [
        "rack_up:rack0", "rack_up:rack1", "rack_up:rack2"]


def test_disjoint_pairs_run_at_full_speed():
    env = Environment()
    nodes = make_nodes(env, n=4, racks=1)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=100.0)
    f1 = net.transfer("dn0", "dn1", 100.0)
    f2 = net.transfer("dn2", "dn3", 100.0)
    env.run()
    assert f1.done.value == pytest.approx(1.0)
    assert f2.done.value == pytest.approx(1.0)


# -- Topology -------------------------------------------------------------------

def test_topology_distance():
    env = Environment()
    topo = Topology(make_nodes(env, n=4, racks=2))
    assert topo.distance("dn0", "dn0") == 0
    assert topo.distance("dn0", "dn2") == 2  # same rack
    assert topo.distance("dn0", "dn1") == 4  # cross rack


def test_topology_locality_classification():
    env = Environment()
    topo = Topology(make_nodes(env, n=4, racks=2))
    assert topo.locality("dn0", ["dn0", "dn1"]) == Locality.NODE_LOCAL
    assert topo.locality("dn0", ["dn2"]) == Locality.RACK_LOCAL
    assert topo.locality("dn0", ["dn1", "dn3"]) == Locality.ANY


def test_topology_closest_replica():
    env = Environment()
    topo = Topology(make_nodes(env, n=4, racks=2))
    assert topo.closest_replica("dn0", ["dn1", "dn2"]) == "dn2"
    assert topo.closest_replica("dn0", ["dn0", "dn2"]) == "dn0"
    assert topo.closest_replica("dn0", []) is None


def test_topology_rejects_duplicates_and_empty():
    env = Environment()
    with pytest.raises(ValueError):
        Topology([])
    n = Node(env, "x", "r", 1, 1024)
    m = Node(env, "x", "r", 1, 1024)
    with pytest.raises(ValueError):
        Topology([n, m])


def test_locality_ordering_is_schedulable_priority():
    assert Locality.NODE_LOCAL < Locality.RACK_LOCAL < Locality.ANY
