"""Tests for the YARN layer: RM bookkeeping, NM heartbeats, stock scheduler."""

import pytest

from repro.cluster import ResourceVector
from repro.config import HadoopConfig, a3_cluster
from repro.simcluster import SimCluster
from repro.yarn import Application, CapacityScheduler, ContainerRequest
from repro.yarn.records import NodeState


def make_cluster(n=4, conf=None):
    return SimCluster(a3_cluster(n), conf=conf)


def dummy_am(record):
    def runner(ctx):
        record.append(("am-start", ctx.env.now, ctx.node_id))
        yield ctx.env.timeout(1.0)
        return "done"

    return runner


# -- NodeState ------------------------------------------------------------------

def test_node_state_allocate_release():
    state = NodeState("n0", ResourceVector(4096, 4))
    state.allocate(ResourceVector(1024, 1))
    assert state.available == ResourceVector(3072, 3)
    state.release(ResourceVector(1024, 1))
    assert state.available == ResourceVector(4096, 4)


def test_node_state_overallocation_rejected():
    state = NodeState("n0", ResourceVector(1024, 1))
    with pytest.raises(ValueError):
        state.allocate(ResourceVector(2048, 1))


def test_effective_vcores_multiplier():
    conf = HadoopConfig(containers_per_core=2)
    cluster = make_cluster(conf=conf)
    # A3 has 4 physical cores -> 8 advertised vcores.
    assert cluster.rm.nodes["dn0"].capability.vcores == 8


# -- AM lifecycle ------------------------------------------------------------------

def test_am_allocated_on_node_heartbeat_and_launched():
    cluster = make_cluster()
    record = []
    app = Application("app_t1", "t", ResourceVector(1536, 1), dummy_am(record))
    cluster.rm.submit_application(app)
    cluster.env.run(until=app.finished)
    # AM start = NM heartbeat wait + container launch (2.5s default).
    assert record and record[0][0] == "am-start"
    start = record[0][1]
    assert start >= cluster.conf.container_launch_s
    assert start <= cluster.conf.nm_heartbeat_s + cluster.conf.container_launch_s + 0.5
    assert app.finished.value == "done"


def test_am_resources_released_after_finish():
    cluster = make_cluster()
    record = []
    app = Application("app_t2", "t", ResourceVector(1536, 1), dummy_am(record))
    cluster.rm.submit_application(app)
    cluster.env.run(until=app.finished)
    cluster.env.run(until=cluster.env.now + 0.1)
    assert cluster.rm.total_used() == ResourceVector(0, 0)


def test_same_instant_am_launch_order_follows_seq():
    """Regression: the AM allocation queue used to serve same-instant
    submissions in list-append order, which is the kernel's tie-break
    order — so permuting same-timestamp event dispatch swapped AM launch
    order. A pinned ``seq`` (the trace index or serving dispatch ticket)
    must decide instead of submission order."""
    cluster = make_cluster()
    launched = []

    def am(ctx):
        launched.append(ctx.app.app_id)
        yield ctx.env.timeout(1.0)
        return "done"

    second = Application("app_fifo2", "t", ResourceVector(1536, 1), am, seq=2)
    first = Application("app_fifo1", "t", ResourceVector(1536, 1), am, seq=1)
    # Submitted in the *opposite* order of their tickets, same instant.
    cluster.rm.submit_application(second)
    cluster.rm.submit_application(first)
    cluster.env.run(until=first.finished)
    cluster.env.run(until=second.finished)
    assert launched == ["app_fifo1", "app_fifo2"]


def test_submit_stamps_queue_time_and_keeps_pinned_seq():
    """submit_application must not overwrite a caller-pinned seq and
    must stamp the queue entry time used for AM allocation ordering."""
    cluster = make_cluster()
    record = []
    pinned = Application("app_rq", "t", ResourceVector(1536, 1),
                         dummy_am(record), seq=0)
    unpinned = Application("app_rq2", "t", ResourceVector(1536, 1),
                           dummy_am(record))
    cluster.rm.submit_application(pinned)
    cluster.rm.submit_application(unpinned)
    assert pinned.seq == 0
    assert unpinned.seq is not None
    assert pinned.queue_time == cluster.env.now
    assert unpinned.queue_time == cluster.env.now


def test_duplicate_app_id_rejected():
    cluster = make_cluster()
    record = []
    app = Application("app_dup", "t", ResourceVector(1536, 1), dummy_am(record))
    cluster.rm.submit_application(app)
    with pytest.raises(ValueError):
        cluster.rm.submit_application(app)


def test_kill_application_interrupts_am():
    cluster = make_cluster()

    def slow_am(ctx):
        yield ctx.env.timeout(1000.0)
        return "never"

    app = Application("app_k", "t", ResourceVector(1536, 1), slow_am)
    cluster.rm.submit_application(app)

    def killer(env):
        yield env.timeout(5.0)
        cluster.rm.kill_application(app)

    cluster.env.process(killer(cluster.env))
    cluster.env.run(until=20.0)
    assert app.killed
    assert app.finished.triggered and not app.finished.ok
    # resources freed
    assert cluster.rm.total_used() == ResourceVector(0, 0)


def test_kill_finished_application_is_noop():
    cluster = make_cluster()
    record = []
    app = Application("app_kf", "t", ResourceVector(1536, 1), dummy_am(record))
    cluster.rm.submit_application(app)
    cluster.env.run(until=app.finished)
    cluster.rm.kill_application(app)
    assert not app.killed


# -- stock CapacityScheduler behaviour ------------------------------------------------

def test_stock_allocation_waits_for_node_heartbeat():
    """Asks registered between heartbeats are not granted until an NM reports."""
    cluster = make_cluster()
    rm = cluster.rm
    rm.apps["x"] = Application("x", "x", ResourceVector(1, 1), lambda ctx: iter(()))
    rm._ready["x"] = []
    ask = ContainerRequest(ResourceVector(1024, 1))
    grants = rm.allocate("x", [ask])
    assert grants == []  # nothing in the same call
    cluster.env.run(until=1.5)  # let every NM heartbeat once
    grants = rm.allocate("x", [])
    assert len(grants) == 1


def test_stock_scheduler_packs_single_node():
    """Greedy: all requests land on the first heartbeating node that fits."""
    cluster = make_cluster()
    rm = cluster.rm
    rm.apps["x"] = Application("x", "x", ResourceVector(1, 1), lambda ctx: iter(()))
    rm._ready["x"] = []
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(4)]
    rm.allocate("x", asks)
    cluster.env.run(until=1.5)
    grants = rm.allocate("x", [])
    nodes = {c.node_id for c in grants}
    assert len(grants) == 4
    assert len(nodes) == 1  # packed, not spread


def test_stock_scheduler_overflows_to_next_heartbeat_node():
    """More asks than one node fits spill to later-heartbeating nodes."""
    cluster = make_cluster()
    rm = cluster.rm
    rm.apps["x"] = Application("x", "x", ResourceVector(1, 1), lambda ctx: iter(()))
    rm._ready["x"] = []
    # Memory-only packing (DefaultResourceCalculator): A3 = 7168 MB admits 7
    # containers of 1024 MB; the 8th overflows to the next heartbeating node
    # even though 8 > 4 vcores would have overflowed much earlier.
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(8)]
    rm.allocate("x", asks)
    cluster.env.run(until=1.5)
    grants = rm.allocate("x", [])
    assert len(grants) == 8
    assert len({c.node_id for c in grants}) == 2
    packed = max(sum(1 for c in grants if c.node_id == n)
                 for n in {c.node_id for c in grants})
    assert packed == 7  # CPU oversubscribed 7 tasks on 4 cores


def test_scheduler_remove_app_clears_queue():
    scheduler = CapacityScheduler()
    cluster = SimCluster(a3_cluster(2), scheduler=scheduler)
    rm = cluster.rm
    rm.apps["x"] = Application("x", "x", ResourceVector(1, 1), lambda ctx: iter(()))
    rm._ready["x"] = []
    rm.allocate("x", [ContainerRequest(ResourceVector(1024, 1))])
    assert len(scheduler.queue) == 1
    scheduler.remove_app("x")
    assert scheduler.queue == []


def test_nm_heartbeats_are_phase_offset():
    cluster = make_cluster()
    offsets = {nm.heartbeat_offset for nm in cluster.node_managers}
    assert len(offsets) > 1  # not all in phase


def test_container_finished_releases_resources():
    cluster = make_cluster()
    rm = cluster.rm
    rm.apps["x"] = Application("x", "x", ResourceVector(1, 1), lambda ctx: iter(()))
    rm._ready["x"] = []
    rm.allocate("x", [ContainerRequest(ResourceVector(1024, 1))])
    cluster.env.run(until=1.5)
    (grant,) = rm.allocate("x", [])
    used_before = rm.total_used()
    rm.container_finished(grant)
    assert rm.total_used() == used_before - ResourceVector(1024, 1)
