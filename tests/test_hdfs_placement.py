"""Rack-aware replica placement over the topology's cached membership views.

``NameNode._place_replicas`` draws every replica from an O(rack) view of
the current membership. It must make exactly the draws a scan over every
node makes: the same ``rng.choice`` over sequences with the same contents
in the same order. The reference below is that full scan, kept here as the
specification.
"""

import random
from typing import NamedTuple, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Topology
from repro.hdfs import NameNode


class Host(NamedTuple):
    """The two fields a topology reads from a node."""

    node_id: str
    rack: str


def full_scan_place(topology: Topology, replication: int,
                    writer_node: Optional[str], rng: random.Random) -> list[str]:
    """Default HDFS placement, filtering the whole node list per draw."""
    nodes = topology.node_ids
    want = min(replication, len(nodes))
    rack_of = topology.rack_of
    if writer_node is not None and writer_node in topology:
        first = writer_node
    else:
        first = rng.choice(nodes)
    replicas = [first]
    if want >= 2:
        remote = [n for n in nodes if rack_of(n) != rack_of(first)]
        if remote:
            second = rng.choice(remote)
        else:
            second = rng.choice([n for n in nodes if n != first])
        replicas.append(second)
    if want >= 3:
        same_remote = [n for n in nodes
                       if n not in replicas and rack_of(n) == rack_of(replicas[1])]
        pool = same_remote or [n for n in nodes if n not in replicas]
        replicas.append(rng.choice(pool))
    while len(replicas) < want:
        replicas.append(rng.choice([n for n in nodes if n not in replicas]))
    return replicas


#: One step between placements: add a node to rack r (r may be a new rack),
#: remove the i-th node, or place a file.
_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 4)),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("place"),
              st.integers(1, 5),                       # replication
              st.sampled_from(["on", "off", "none"]),  # writer
              st.integers(0, 99),                      # writer pick
              st.floats(0.0, 300.0, allow_nan=False)), # file size, MB
)


@given(racks=st.integers(1, 4), nodes=st.integers(1, 24),
       interleaved=st.booleans(), seed=st.integers(0, 1000),
       steps=st.lists(_STEP, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_placement_matches_full_scan(racks, nodes, interleaved, seed, steps):
    def rack(i):
        return f"r{i % racks if interleaved else i * racks // nodes}"

    topology = Topology([Host(f"n{i}", rack(i)) for i in range(nodes)])
    next_id = nodes
    for n, step in enumerate(steps):
        if step[0] == "add":
            topology.add(Host(f"n{next_id}", f"r{step[1]}"))
            next_id += 1
        elif step[0] == "remove":
            if len(topology) > 1:
                topology.remove(topology.node_ids[step[1] % len(topology)])
        else:
            _, replication, writer_kind, pick, size_mb = step
            writer = {"on": topology.node_ids[pick % len(topology)],
                      "off": "client-host", "none": None}[writer_kind]
            namenode = NameNode(topology, block_size_mb=64.0,
                                replication=replication, seed=seed)
            path = f"/data/part-{n}"
            blocks = namenode.create_file(path, size_mb, writer_node=writer).blocks
            rng = random.Random(f"{seed}:{path}")
            assert [b.replicas for b in blocks] == [
                full_scan_place(topology, replication, writer, rng) for _ in blocks]


def test_single_rack_cluster_spreads_over_other_nodes():
    topology = Topology([Host(f"n{i}", "r0") for i in range(5)])
    namenode = NameNode(topology, replication=3, seed=3)
    replicas = namenode._place_replicas("n2", random.Random(9))
    assert replicas == full_scan_place(topology, 3, "n2", random.Random(9))
    assert replicas[0] == "n2" and len(set(replicas)) == 3


def test_views_follow_membership_changes():
    topology = Topology([Host(f"n{i}", f"r{i % 2}") for i in range(6)])
    assert list(topology.outside_rack("r0")) == ["n1", "n3", "n5"]
    topology.add(Host("n6", "r1"))
    topology.remove("n3")
    assert topology.node_ids == ("n0", "n1", "n2", "n4", "n5", "n6")
    assert list(topology.outside_rack("r0")) == ["n1", "n5", "n6"]
    assert list(topology.rack_excluding("r1", ["n5", "n0"])) == ["n1", "n6"]
    assert list(topology.excluding(["n6", "n0"])) == [
        "n1", "n2", "n4", "n5"]


def test_placement_cost_does_not_grow_with_the_cluster(monkeypatch):
    """On 10 000 nodes, a block asks for a constant number of racks."""
    topology = Topology([Host(f"n{i}", f"r{i % 2}") for i in range(10_000)])
    namenode = NameNode(topology, block_size_mb=64.0, replication=3, seed=7)
    calls = 0
    rack_of = Topology.rack_of

    def counting_rack_of(self, node_id):
        nonlocal calls
        calls += 1
        return rack_of(self, node_id)

    monkeypatch.setattr(Topology, "rack_of", counting_rack_of)
    blocks = namenode.create_file("/big", 64.0 * 10, writer_node="n17").blocks
    blocks += namenode.create_file("/offsite", 64.0 * 10).blocks
    assert len(blocks) == 20
    assert calls <= 3 * len(blocks)
    assert all(len(set(b.replicas)) == 3 for b in blocks)
