"""Property-based invariants of the schedulers and the flow network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterNetwork, Node, ResourceVector
from repro.config import INSTANCE_TYPES, ClusterSpec, HadoopConfig
from repro.core.dplus import DPlusScheduler
from repro.metrics import SignatureStats
from repro.simcluster import SimCluster
from repro.simulation import Environment
from repro.yarn import (
    Application,
    CapacityScheduler,
    ContainerRequest,
    HFSPScheduler,
)


def mk_cluster(n_nodes, scheduler, instance="A3"):
    spec = ClusterSpec(INSTANCE_TYPES[instance], n_nodes,
                       racks=min(2, n_nodes), name="t")
    return SimCluster(spec, scheduler=scheduler)


def register(cluster, app_id="x"):
    cluster.rm.register_application(Application(
        app_id, app_id, ResourceVector(1, 1), lambda ctx: iter(())))
    return app_id


# -- D+ invariants --------------------------------------------------------------

@given(st.integers(1, 24), st.integers(1, 8), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_property_dplus_never_overallocates(n_asks, n_nodes, seed):
    cluster = mk_cluster(n_nodes, DPlusScheduler())
    app_id = register(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(n_asks)]
    grants = cluster.rm.allocate(app_id, asks)
    # Every node's booked resources stay within its advertised capability.
    for state in cluster.rm.nodes.values():
        assert state.used_memory_mb <= state.capability.memory_mb
        assert state.used_vcores <= state.capability.vcores
    # Grants never exceed asks, and each grant is on a real node.
    assert len(grants) <= n_asks
    assert all(g.node_id in cluster.rm.nodes for g in grants)


@given(st.integers(1, 16), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_property_dplus_spread_is_balanced(n_asks, n_nodes):
    """Balanced mode: max/min container counts differ by at most 1 while
    capacity allows (the round-robin invariant)."""
    cluster = mk_cluster(n_nodes, DPlusScheduler())
    app_id = register(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(n_asks)]
    grants = cluster.rm.allocate(app_id, asks)
    if len(grants) == n_asks:  # cluster had room for everything
        counts = {n: 0 for n in cluster.rm.nodes}
        for g in grants:
            counts[g.node_id] += 1
        assert max(counts.values()) - min(counts.values()) <= 1


@given(st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_property_dplus_deterministic(n_asks):
    def run_once():
        cluster = mk_cluster(4, DPlusScheduler())
        app_id = register(cluster)
        asks = [ContainerRequest(ResourceVector(1024, 1), preferred_nodes=("dn1",))
                for _ in range(n_asks)]
        return [g.node_id for g in cluster.rm.allocate(app_id, asks)]

    assert run_once() == run_once()


@given(st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_property_dplus_honors_node_local_preference_when_possible(n_asks):
    cluster = mk_cluster(4, DPlusScheduler())
    app_id = register(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1), preferred_nodes=("dn2",))
            for _ in range(n_asks)]
    grants = cluster.rm.allocate(app_id, asks)
    # Up to dn2's vcore capacity, everything lands node-local.
    local = sum(1 for g in grants if g.node_id == "dn2")
    capacity = cluster.rm.nodes["dn2"].capability.vcores
    assert local == min(n_asks, capacity)


# -- stock scheduler invariants -------------------------------------------------------

@given(st.integers(1, 30), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_property_stock_grants_conserved(n_asks, n_nodes):
    """Each ask is granted at most once, eventually all are if space exists."""
    cluster = mk_cluster(n_nodes, CapacityScheduler())
    app_id = register(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(n_asks)]
    cluster.rm.allocate(app_id, asks)
    cluster.env.run(until=2.0)
    grants = cluster.rm.allocate(app_id, [])
    total_memory = sum(s.capability.memory_mb for s in cluster.rm.nodes.values())
    expected = min(n_asks, total_memory // 1024)
    assert len(grants) == expected
    # Memory is never oversubscribed even by the memory-only calculator.
    for state in cluster.rm.nodes.values():
        assert state.used_memory_mb <= state.capability.memory_mb


@given(st.integers(2, 20))
@settings(max_examples=30, deadline=None)
def test_property_stock_packs_first_node_to_memory_limit(n_asks):
    cluster = mk_cluster(4, CapacityScheduler())
    app_id = register(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(n_asks)]
    cluster.rm.allocate(app_id, asks)
    cluster.env.run(until=2.0)
    grants = cluster.rm.allocate(app_id, [])
    counts = {}
    for g in grants:
        counts[g.node_id] = counts.get(g.node_id, 0) + 1
    if counts:
        per_node_cap = 7168 // 1024
        assert max(counts.values()) == min(n_asks, per_node_cap)


# -- HFSP invariants ------------------------------------------------------------

def hfsp_app(cluster, app_id, name, submit_time=0.0):
    app = Application(app_id, name, ResourceVector(1536, 1),
                      lambda ctx: iter(()), submit_time=submit_time,
                      seq=int(app_id.rsplit("_", 1)[1]))
    return cluster.rm.register_application(app)


def trained(*service_s):
    """Size stats of a signature that completed runs of these durations."""
    stats = SignatureStats()
    for value in service_s:
        stats.observe(value)
    return stats


@given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_property_hfsp_work_conserving(n_asks, n_nodes, n_apps):
    """A node is left idle only when no pending ask fits: the grant count
    equals the memory bound, exactly like the stock scheduler's."""
    cluster = mk_cluster(n_nodes, HFSPScheduler(memory_only=True))
    apps = [hfsp_app(cluster, f"app_{i:04d}", f"job{i % 2}")
            for i in range(n_apps)]
    for i in range(n_asks):
        app = apps[i % n_apps]
        cluster.rm.allocate(app.app_id,
                            [ContainerRequest(ResourceVector(1024, 1))])
    cluster.env.run(until=2.0)
    grants = []
    for app in apps:
        grants += cluster.rm.allocate(app.app_id, [])
    total_memory = sum(s.capability.memory_mb for s in cluster.rm.nodes.values())
    assert len(grants) == min(n_asks, total_memory // 1024)
    for state in cluster.rm.nodes.values():
        assert state.used_memory_mb <= state.capability.memory_mb


@given(st.floats(1.0, 500.0), st.floats(0.0, 100.0), st.floats(0.01, 2.0))
@settings(max_examples=60, deadline=None)
def test_property_hfsp_aging_prevents_starvation(big_size, small_size, rate):
    """Any waiting job eventually outranks any freshly arrived job: its aged
    key falls below the fresh job's (non-negative) key after a bounded wait,
    whatever the adversarial size mix."""
    cluster = mk_cluster(2, HFSPScheduler(aging_rate=rate, training_samples=1))
    sched = cluster.scheduler
    old = hfsp_app(cluster, "app_0001", "big", submit_time=0.0)
    # Train both signatures to the adversarial sizes.
    sched.sizes["big"] = trained(big_size)
    sched.sizes["small"] = trained(small_size)
    # Bound on the wait: after big_size/rate seconds the old job's key has
    # aged below zero, under any fresh job's (non-negative) key.
    horizon = big_size / rate + 1.0
    fresh = hfsp_app(cluster, "app_0002", "small", submit_time=horizon)
    assert sched.priority_key(old, horizon) < sched.priority_key(fresh, horizon)


def test_hfsp_ages_a_job_submitted_at_time_zero_from_zero():
    """Regression: HFSP recorded ``submit_time or now``, so a job submitted
    at t=0 aged from the instant HFSP first saw it. First sight depends on
    which heartbeats the wheel delivers; the key must not."""
    spec = ClusterSpec(INSTANCE_TYPES["A3"], 2, racks=2, name="t")
    sched = HFSPScheduler()
    # Heartbeats off: nothing looks at the queued AM until the call below.
    cluster = SimCluster(spec, conf=HadoopConfig(nm_heartbeat_s=0.0),
                         scheduler=sched)
    app = cluster.rm.submit_application(Application(
        "app_0001", "sig", ResourceVector(1536, 1), lambda ctx: iter(())))
    assert app.submit_time == 0.0
    cluster.env.run(until=3.0)
    assert sched.priority_key(app, 3.0) == (
        sched.initial_guess_s - sched.aging_rate * 3.0, app.seq)


@given(st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_property_hfsp_am_order_permutation_invariant(perm):
    """priority_key is a total order, even among jobs of one signature
    submitted at one instant (``seq`` breaks their tie): input permutation
    never matters."""
    cluster = mk_cluster(2, HFSPScheduler())
    apps = [hfsp_app(cluster, f"app_{i:04d}", f"sig{i % 2}") for i in range(5)]
    sched = cluster.scheduler
    sched.sizes["sig0"] = trained(5.0, 5.0)
    sched.sizes["sig1"] = trained(3.0, 3.0)

    def order(waiting):
        return [a.app_id for a in sorted(
            waiting, key=lambda a: sched.priority_key(a, 1.0))]

    assert order(apps) == ["app_0001", "app_0003",
                           "app_0000", "app_0002", "app_0004"]
    assert order([apps[i] for i in perm]) == order(apps)


@given(st.lists(st.floats(0.5, 120.0), min_size=1, max_size=8),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_property_hfsp_training_converges_to_mean(durations, training_samples):
    """estimated_size_s returns the optimistic guess until training_samples
    completions, then the exact running mean."""
    cluster = mk_cluster(2, HFSPScheduler(training_samples=training_samples,
                                          initial_guess_s=8.0))
    sched = cluster.scheduler
    for i, duration in enumerate(durations):
        app = hfsp_app(cluster, f"app_{i + 1:04d}", "sig",
                       submit_time=cluster.env.now)
        app.launch_time = 0.0
        cluster.env._now = duration  # service time == duration
        sched.on_app_finished(app)
        cluster.env._now = 0.0
        seen = i + 1
        if seen < training_samples:
            assert not sched.is_trained("sig")
            assert sched.estimated_size_s("sig") == 8.0
        else:
            assert sched.is_trained("sig")
            expected = sum(durations[:seen]) / seen
            assert sched.estimated_size_s("sig") == pytest.approx(expected)


def test_hfsp_killed_app_does_not_train_signature():
    """Regression: a kill racing the AM's completion used to fold the
    truncated duration into the signature's mean and count toward
    training_samples — graduating the signature on garbage."""
    cluster = mk_cluster(2, HFSPScheduler(training_samples=1))
    sched = cluster.scheduler
    app = hfsp_app(cluster, "app_0001", "sig", submit_time=0.0)
    app.launch_time = 0.0
    app.killed = True
    cluster.env._now = 3.0  # direct clock poke: pure accounting check
    sched.on_app_finished(app)
    assert "sig" not in sched.sizes
    assert not sched.is_trained("sig")
    assert sched.estimated_size_s("sig") == sched.initial_guess_s


def test_hfsp_failed_result_does_not_train_signature():
    """Same rule via the result path: an AM that died with attempts
    exhausted reports failed=True and must leave the estimate alone; the
    next clean run still trains normally."""

    class Outcome:
        def __init__(self, killed=False, failed=False):
            self.killed = killed
            self.failed = failed

    cluster = mk_cluster(2, HFSPScheduler(training_samples=1))
    sched = cluster.scheduler
    app = hfsp_app(cluster, "app_0001", "sig", submit_time=0.0)
    app.launch_time = 0.0
    cluster.env._now = 3.0
    sched.on_app_finished(app, Outcome(failed=True))
    sched.on_app_finished(app, Outcome(killed=True))
    assert "sig" not in sched.sizes
    sched.on_app_finished(app, Outcome())
    cluster.env._now = 0.0
    assert sched.is_trained("sig")
    assert sched.estimated_size_s("sig") == pytest.approx(3.0)


# -- network max-min properties -----------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.floats(1.0, 50.0)), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_property_network_all_transfers_complete(pairs):
    env = Environment()
    nodes = [Node(env, f"n{i}", rack=f"r{i % 2}", cores=4, memory_mb=4096)
             for i in range(4)]
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=50.0)
    flows = [net.transfer(f"n{a}", f"n{b}", mb) for a, b, mb in pairs]
    env.run()
    for flow, (a, b, mb) in zip(flows, pairs):
        assert flow.done.triggered and flow.done.ok
        if a != b:
            assert flow.done.value >= mb / 50.0 - 1e-6  # no faster than NIC


@given(st.integers(1, 6), st.floats(5.0, 40.0))
@settings(max_examples=30, deadline=None)
def test_property_incast_fairness(n_senders, mb):
    """n equal senders into one receiver all finish together."""
    env = Environment()
    nodes = [Node(env, f"n{i}", rack="r0", cores=4, memory_mb=4096)
             for i in range(n_senders + 1)]
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=60.0)
    flows = [net.transfer(f"n{i}", f"n{n_senders}", mb) for i in range(n_senders)]
    env.run()
    finish = {round(f.done.value, 6) for f in flows}
    assert len(finish) == 1
    assert flows[0].done.value == pytest.approx(n_senders * mb / 60.0)
