"""Tests for the multi-tenant CapacityScheduler queues."""

from dataclasses import replace

import pytest

from repro.cluster import ResourceVector
from repro.config import a3_cluster
from repro.simcluster import SimCluster
from repro.yarn import (
    Application,
    ContainerRequest,
    MultiTenantCapacityScheduler,
    QueueConfig,
)


def two_queue_cluster(nodes=4, prod=0.75, adhoc=0.25, prod_max=1.0, adhoc_max=1.0):
    scheduler = MultiTenantCapacityScheduler([
        QueueConfig("prod", prod, max_fraction=prod_max),
        QueueConfig("adhoc", adhoc, max_fraction=adhoc_max),
    ])
    cluster = SimCluster(a3_cluster(nodes), scheduler=scheduler)
    return cluster, scheduler


def register(cluster, app_id, queue):
    cluster.rm.register_application(Application(
        app_id, app_id, ResourceVector(1, 1), lambda ctx: iter(()),
        queue=queue))
    return app_id


def pump(cluster, seconds=2.0):
    cluster.env.run(until=cluster.env.now + seconds)


# -- configuration validation ------------------------------------------------------

def test_queue_config_validation():
    with pytest.raises(ValueError):
        QueueConfig("q", 0.0)
    with pytest.raises(ValueError):
        QueueConfig("q", 0.5, max_fraction=0.4)
    with pytest.raises(ValueError):
        MultiTenantCapacityScheduler([])
    with pytest.raises(ValueError):
        MultiTenantCapacityScheduler([QueueConfig("a", 0.7), QueueConfig("b", 0.6)])
    with pytest.raises(ValueError):
        MultiTenantCapacityScheduler([QueueConfig("a", 0.5)], default_queue="zzz")


def test_unknown_queue_refused_at_registration():
    cluster, _scheduler = two_queue_cluster()
    with pytest.raises(ValueError, match="unknown queue"):
        register(cluster, "x", "nope")
    assert cluster.rm.apps == {}


# -- capacity guarantees ----------------------------------------------------------------

def test_under_served_queue_gets_priority():
    """adhoc (25%) asks later but is served before prod exceeds its share."""
    cluster, scheduler = two_queue_cluster()
    prod = register(cluster, "prod1", "prod")
    adhoc = register(cluster, "adhoc1", "adhoc")
    # Saturate with prod asks, then one adhoc ask.
    cluster.rm.allocate(prod, [ContainerRequest(ResourceVector(1024, 1))
                               for _ in range(40)])
    cluster.rm.allocate(adhoc, [ContainerRequest(ResourceVector(1024, 1))])
    pump(cluster)
    adhoc_grants = cluster.rm.allocate(adhoc, [])
    assert len(adhoc_grants) == 1  # not starved by the big tenant


def test_elastic_ceiling_enforced():
    """adhoc capped at max_fraction even when the cluster is idle."""
    cluster, scheduler = two_queue_cluster(adhoc=0.25, adhoc_max=0.25)
    adhoc = register(cluster, "adhoc1", "adhoc")
    cluster.rm.allocate(adhoc, [ContainerRequest(ResourceVector(1024, 1))
                                for _ in range(20)])
    pump(cluster)
    grants = cluster.rm.allocate(adhoc, [])
    cluster_mb = cluster.rm.total_capability().memory_mb
    assert len(grants) * 1024 <= 0.25 * cluster_mb + 1024


def test_elastic_borrowing_when_other_queue_idle():
    """With max_fraction=1.0, a lone tenant may use the whole cluster."""
    cluster, scheduler = two_queue_cluster(adhoc=0.25, adhoc_max=1.0)
    adhoc = register(cluster, "adhoc1", "adhoc")
    cluster.rm.allocate(adhoc, [ContainerRequest(ResourceVector(1024, 1))
                                for _ in range(20)])
    pump(cluster)
    grants = cluster.rm.allocate(adhoc, [])
    cluster_mb = cluster.rm.total_capability().memory_mb
    assert len(grants) * 1024 > 0.25 * cluster_mb  # borrowed beyond guarantee


def test_release_returns_capacity_to_queue():
    cluster, scheduler = two_queue_cluster(adhoc=0.25, adhoc_max=0.25)
    adhoc = register(cluster, "adhoc1", "adhoc")
    cluster.rm.allocate(adhoc, [ContainerRequest(ResourceVector(1024, 1))
                                for _ in range(7)])
    pump(cluster)
    grants = cluster.rm.allocate(adhoc, [])
    used_before = scheduler.queues["adhoc"].used_memory_mb
    cluster.rm.container_finished(grants[0])
    assert scheduler.queues["adhoc"].used_memory_mb == used_before - 1024
    # Foreign (AM pool) releases never touch queue accounting.
    from repro.yarn.records import Container

    foreign = Container(999999, "dn0", ResourceVector(1536, 1), "ampool")
    scheduler.on_container_released(foreign)
    assert scheduler.queues["adhoc"].used_memory_mb == used_before - 1024


def test_fifo_within_queue():
    cluster, scheduler = two_queue_cluster()
    a = register(cluster, "a", "prod")
    b = register(cluster, "b", "prod")
    cluster.rm.allocate(a, [ContainerRequest(ResourceVector(1024, 1), tag="first")])
    cluster.rm.allocate(b, [ContainerRequest(ResourceVector(1024, 1), tag="second")])
    pump(cluster)
    got_a = cluster.rm.allocate(a, [])
    got_b = cluster.rm.allocate(b, [])
    assert len(got_a) == 1 and len(got_b) == 1


def test_end_to_end_jobs_in_separate_queues():
    """Two whole MapReduce jobs in different queues both complete."""
    from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
    from repro.workloads import WORDCOUNT_PROFILE

    scheduler = MultiTenantCapacityScheduler([
        QueueConfig("prod", 0.6), QueueConfig("adhoc", 0.4),
    ])
    cluster = SimCluster(a3_cluster(4), scheduler=scheduler)
    client = JobClient(cluster)

    p1 = client.submit(SimJobSpec(
        "job-a", tuple(cluster.load_input_files("/a", 4, 10.0)),
        WORDCOUNT_PROFILE), MODE_DISTRIBUTED)
    p2 = client.submit(SimJobSpec(
        "job-b", tuple(cluster.load_input_files("/b", 4, 10.0)),
        WORDCOUNT_PROFILE), MODE_DISTRIBUTED)
    cluster.env.run(until=cluster.env.all_of([p1, p2]))
    r1, r2 = p1.value, p2.value
    assert r1.finish_time > 0 and r2.finish_time > 0
    # Queue accounting drains back to zero.
    assert scheduler.queues["prod"].used_memory_mb == 0
    assert scheduler.queues["adhoc"].used_memory_mb == 0


@pytest.mark.parametrize("strategy", ["stock-auto", "mrapid-dplus"])
def test_replay_routes_every_job_to_its_tenant_queue(strategy, monkeypatch):
    """Every submit path charges a replayed job to the queue ``queue_of``
    names: sorts to ``batch``, the rest to ``adhoc``."""
    from repro.trace import SCHEDULER_CAPACITY, default_short_job_mix, run_load

    from repro.yarn import ResourceManager

    routed = []
    register_application = ResourceManager.register_application

    def counting(rm, app):
        routed.append(app.queue)
        return register_application(rm, app)

    monkeypatch.setattr(ResourceManager, "register_application", counting)
    report = run_load(a3_cluster(4), default_short_job_mix(), 10, 120,
                      scheduler=SCHEDULER_CAPACITY, strategy=strategy, seed=3,
                      baselines={})
    assert report.jobs_completed == report.jobs_submitted == 23
    assert (routed.count("adhoc"), routed.count("batch"), len(routed)) \
        == (19, 4, 23)


def test_am_restart_keeps_the_tenant_queue():
    """A restarted AM's task containers are still charged to the job's
    queue: the ``batch`` job's AM node dies at 7 s and every grant, before
    and after the restart, goes to ``batch``."""
    from repro.core.submit import run_job
    from repro.experiments.figures import wordcount_input
    from repro.trace import SCHEDULER_CAPACITY, build_trace_cluster

    cluster = build_trace_cluster(a3_cluster(4), scheduler=SCHEDULER_CAPACITY)
    scheduler = cluster.scheduler
    beat = scheduler.on_node_heartbeat
    charged = []

    def charging_beat(node):
        grants = beat(node)
        charged.extend((cluster.env.now, scheduler._granted[c.container_id])
                       for _app_id, c in grants)
        return grants

    scheduler.on_node_heartbeat = charging_beat
    cluster.env.timeout(7.0).callbacks.append(
        lambda _ev: cluster.fail_node("dn3"))
    spec = replace(wordcount_input(8, 10.0)(cluster), queue="batch")
    result = run_job(cluster, spec, "distributed")
    assert result.finish_time > 0
    assert any(t > 7.0 for t, _queue in charged)  # the restart got grants
    assert {queue for _t, queue in charged} == {"batch"}


@pytest.mark.parametrize("mode", ["distributed", "dplus"])
def test_refused_queue_leaves_no_application(mode):
    """A job naming a queue the scheduler lacks is refused before the RM
    records it: no application stays behind and no AM is allocated."""
    from repro.core.submit import submit
    from repro.experiments.figures import wordcount_input
    from repro.observe.tracer import install_tracer
    from repro.trace import (SCHEDULER_CAPACITY, STRATEGY_DPLUS, STRATEGY_STOCK,
                             build_trace_cluster)

    strategy = STRATEGY_STOCK if mode == "distributed" else STRATEGY_DPLUS
    cluster = build_trace_cluster(a3_cluster(4), scheduler=SCHEDULER_CAPACITY,
                                  strategy=strategy)
    tracer = install_tracer(cluster)
    spec = replace(wordcount_input(4, 10.0)(cluster), queue="nope")
    proc = submit(cluster, spec, mode)
    try:
        cluster.env.run(until=proc)
    except ValueError:
        refused = True  # the stock client raises
    else:
        refused = proc.value.failed  # MRapid's handle reports the failure
    assert refused
    cluster.env.run(until=200)
    assert cluster.rm.apps == {}
    assert [i for i in tracer.instants if i.name == "am_allocated"] == []
