"""Node id allocation, decommission, and the RM's O(1) resource totals.

The id-allocation regression: ``SimCluster.add_node`` used to derive fresh
ids from ``len(self.datanodes)``, which collides with a *live* node as soon
as any node has been decommissioned. Ids now come from a monotonic counter
and are never reused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceVector
from repro.config import HadoopConfig, a3_cluster
from repro.simcluster import SimCluster
from repro.yarn import Application


def make_cluster(n=4, conf=None):
    return SimCluster(a3_cluster(n), conf=conf)


def brute_force_used(rm):
    total = ResourceVector.zero()
    for state in rm.nodes.values():
        total = total + state.used
    return total


def brute_force_capability(rm):
    total = ResourceVector.zero()
    for state in rm.nodes.values():
        total = total + state.capability
    return total


# -- regression: fresh ids after decommission -----------------------------------

def test_add_node_after_remove_gets_a_fresh_id():
    """With len()-derived ids, removing dn1 from a 4-node cluster makes the
    next add_node mint "dn3" — colliding with the live dn3."""
    cluster = make_cluster(4)
    cluster.env.run(until=1.0)
    cluster.remove_node("dn1")
    nm = cluster.add_node()
    assert nm.node_id == "dn4"
    assert "dn1" not in cluster.topology
    assert sorted(cluster.rm.nodes) == ["dn0", "dn2", "dn3", "dn4"]
    # And again: ids keep marching forward.
    cluster.remove_node("dn4")
    assert cluster.add_node().node_id == "dn5"


def test_removed_node_id_never_rejoins_scheduling():
    cluster = make_cluster(4)
    cluster.env.run(until=1.0)
    cluster.remove_node("dn2")
    with pytest.raises(KeyError):
        cluster.rm.node_state("dn2")
    wheel = cluster.rm.heartbeat_wheel
    before = wheel.heartbeats_delivered
    hb_before = {n: s.last_heartbeat for n, s in cluster.rm.nodes.items()}
    cluster.env.run(until=4.0)
    assert wheel.heartbeats_delivered > before  # survivors still beat
    assert all(cluster.rm.nodes[n].last_heartbeat > t
               for n, t in hb_before.items())


def test_remove_node_with_running_containers_refused():
    cluster = make_cluster(2)

    def slow_am(ctx):
        yield ctx.env.timeout(100.0)
        return None

    app = Application("app_rm", "t", ResourceVector(1536, 1), slow_am)
    cluster.rm.submit_application(app)
    cluster.env.run(until=app.am_started)
    host = app.am_container.node_id
    with pytest.raises(ValueError):
        cluster.remove_node(host)


def test_remove_unknown_node_raises():
    cluster = make_cluster(2)
    with pytest.raises(KeyError):
        cluster.rm.remove_node("dn99")


# -- churn + autoscale ----------------------------------------------------------

def test_churn_and_autoscale_keep_ids_and_totals_consistent():
    """Crash/rejoin, drain, decommission and scale-up interleaved: node ids
    stay unique and the incrementally maintained totals stay exactly equal
    to a brute-force re-sum."""
    conf = HadoopConfig(nm_heartbeat_s=1.0)
    cluster = make_cluster(4, conf=conf)
    rm = cluster.rm
    record = []

    def am(ctx):
        record.append(ctx.node_id)
        yield ctx.env.timeout(3.0)
        return "ok"

    def churn(env):
        yield env.timeout(1.2)
        cluster.fail_node("dn1")
        yield env.timeout(2.0)
        cluster.restart_node("dn1")
        yield env.timeout(0.5)
        cluster.node_managers[2].drain()
        yield env.timeout(0.5)
        cluster.remove_node("dn2")
        cluster.add_node()          # -> dn4
        yield env.timeout(0.5)
        cluster.add_node()          # -> dn5
        app = Application(rm.next_app_id(), "late", ResourceVector(1536, 1), am)
        rm.submit_application(app)

    cluster.env.process(churn(cluster.env))
    app0 = Application("app_c0", "t", ResourceVector(1536, 1), am)
    rm.submit_application(app0)
    cluster.env.run(until=20.0)

    ids = [nm.node_id for nm in cluster.node_managers]
    assert len(ids) == len(set(ids))
    assert sorted(rm.nodes) == ["dn0", "dn1", "dn3", "dn4", "dn5"]
    assert len(record) == 2  # both jobs ran
    assert rm.total_used() == brute_force_used(rm)
    assert rm.total_capability() == brute_force_capability(rm)
    assert rm.total_used() == ResourceVector(0, 0)


def test_incremental_totals_track_allocate_release_and_rejoin():
    cluster = make_cluster(3)
    rm = cluster.rm
    state = rm.nodes["dn0"]
    state.allocate(ResourceVector(2048, 2))
    rm.nodes["dn1"].allocate(ResourceVector(1024, 1))
    assert rm.total_used() == brute_force_used(rm) == ResourceVector(3072, 3)
    state.release(ResourceVector(2048, 2))
    assert rm.total_used() == brute_force_used(rm) == ResourceVector(1024, 1)
    # A release landing after a rejoin zeroed the node drives the raw
    # counter negative; the totals must track the floored value.
    rm.node_rejoined("dn1")
    rm.nodes["dn1"].release(ResourceVector(1024, 1))
    assert rm.nodes["dn1"].used_memory_mb < 0
    assert rm.total_used() == brute_force_used(rm) == ResourceVector(0, 0)


def test_added_node_capability_joins_totals():
    cluster = make_cluster(2)
    before = cluster.rm.total_capability()
    cluster.add_node()
    per_node = cluster.rm.nodes["dn0"].capability
    assert cluster.rm.total_capability() == before + per_node
    assert cluster.rm.total_capability() == brute_force_capability(cluster.rm)


# -- per-rack liveness counts --------------------------------------------------

def walked_rack_counts(cluster):
    """Per-rack (registered, alive) counts by a full walk of the topology
    against the RM's node states; racks with no registered node omitted."""
    registered, alive = {}, {}
    for rack in cluster.topology.racks:
        for node in cluster.topology.nodes_in_rack(rack):
            state = cluster.rm.nodes.get(node.node_id)
            if state is None:
                continue
            registered[rack] = registered.get(rack, 0) + 1
            alive[rack] = alive.get(rack, 0) + int(state.alive)
    return registered, alive


def rm_rack_counts(rm):
    """The RM's kept counts in the same shape, after sanity bounds."""
    for rack, registered in rm.rack_registered.items():
        assert 0 <= rm.rack_alive[rack] <= registered, rack
    return ({r: n for r, n in rm.rack_registered.items() if n},
            {r: rm.rack_alive[r] for r, n in rm.rack_registered.items() if n})


_LIVENESS_OPS = ("fail", "restart", "lost", "rejoined", "drain", "undrain",
                 "add", "remove")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LIVENESS_OPS),
                          st.integers(min_value=0, max_value=63)),
                max_size=30))
def test_rack_liveness_counts_match_a_full_walk(steps):
    """Conservation: the RM's per-rack registered/alive counts equal a
    full walk of topology x RM node states after every lifecycle step —
    including repeats (a node lost twice, a failed node drained, a crashed
    node undrained) and direct RM calls for ids already removed."""
    cluster = make_cluster(5, HadoopConfig())
    rm = cluster.rm
    ever = list(rm.nodes)
    assert rm_rack_counts(rm) == walked_rack_counts(cluster)
    for op, pick in steps:
        live = sorted(rm.node_managers)
        nm = rm.node_managers[live[pick % len(live)]]
        any_id = ever[pick % len(ever)]
        if op == "fail":
            nm.fail()
        elif op == "restart":
            nm.restart()
        elif op == "lost":
            rm.node_lost(any_id)
        elif op == "rejoined":
            rm.node_rejoined(any_id)
        elif op == "drain":
            nm.drain()
        elif op == "undrain":
            nm.undrain()
        elif op == "add":
            ever.append(cluster.add_node().node_id)
        elif len(live) > 1:
            cluster.remove_node(nm.node_id)
        assert rm_rack_counts(rm) == walked_rack_counts(cluster), (op, pick)


def test_set_alive_is_idempotent_and_ignores_unknown_ids():
    cluster = make_cluster(4)
    rm = cluster.rm
    rack = cluster.topology.rack_of("dn1")
    before = rm.rack_alive[rack]
    assert rm.set_alive("dn1", False) is rm.nodes["dn1"]
    assert rm.set_alive("dn1", False) is rm.nodes["dn1"]
    assert rm.rack_alive[rack] == before - 1
    assert rm.set_alive("dn99", True) is None
    rm.set_alive("dn1", True)
    assert rm.rack_alive[rack] == before


# -- 1k-node replay smoke --------------------------------------------------------

def test_thousand_node_replay_completes_with_bounded_rss():
    from repro.bench import bench_scale

    point = bench_scale(1000, sim_duration_s=10.0, job_interval_s=1.0)
    assert point["jobs_finished"] == point["jobs_submitted"] > 0
    assert point["heartbeats"] >= 1000 * 9
    assert point["max_rss_mb"] < 512, (
        f"1k-node replay RSS {point['max_rss_mb']}MB — unbounded growth?")
