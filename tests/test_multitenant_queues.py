"""Tests for the multi-tenant CapacityScheduler queues."""

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


def register(cluster, scheduler, app_id, queue):
    cluster.rm.apps[app_id] = Application(app_id, app_id, ResourceVector(1, 1),
                                          lambda ctx: iter(()))
    cluster.rm._ready[app_id] = []
    scheduler.assign_app(app_id, queue)
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


def test_assign_unknown_queue_rejected():
    _cluster, scheduler = two_queue_cluster()
    with pytest.raises(ValueError):
        scheduler.assign_app("x", "nope")


# -- capacity guarantees ----------------------------------------------------------------

def test_under_served_queue_gets_priority():
    """adhoc (25%) asks later but is served before prod exceeds its share."""
    cluster, scheduler = two_queue_cluster()
    prod = register(cluster, scheduler, "prod1", "prod")
    adhoc = register(cluster, scheduler, "adhoc1", "adhoc")
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
    adhoc = register(cluster, scheduler, "adhoc1", "adhoc")
    cluster.rm.allocate(adhoc, [ContainerRequest(ResourceVector(1024, 1))
                                for _ in range(20)])
    pump(cluster)
    grants = cluster.rm.allocate(adhoc, [])
    cluster_mb = cluster.rm.total_capability().memory_mb
    assert len(grants) * 1024 <= 0.25 * cluster_mb + 1024


def test_elastic_borrowing_when_other_queue_idle():
    """With max_fraction=1.0, a lone tenant may use the whole cluster."""
    cluster, scheduler = two_queue_cluster(adhoc=0.25, adhoc_max=1.0)
    adhoc = register(cluster, scheduler, "adhoc1", "adhoc")
    cluster.rm.allocate(adhoc, [ContainerRequest(ResourceVector(1024, 1))
                                for _ in range(20)])
    pump(cluster)
    grants = cluster.rm.allocate(adhoc, [])
    cluster_mb = cluster.rm.total_capability().memory_mb
    assert len(grants) * 1024 > 0.25 * cluster_mb  # borrowed beyond guarantee


def test_release_returns_capacity_to_queue():
    cluster, scheduler = two_queue_cluster(adhoc=0.25, adhoc_max=0.25)
    adhoc = register(cluster, scheduler, "adhoc1", "adhoc")
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
    a = register(cluster, scheduler, "a", "prod")
    b = register(cluster, scheduler, "b", "prod")
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

    routed = []
    assign_app = MultiTenantCapacityScheduler.assign_app

    def counting(scheduler, app_id, queue):
        routed.append(queue)
        assign_app(scheduler, app_id, queue)

    monkeypatch.setattr(MultiTenantCapacityScheduler, "assign_app", counting)
    report = run_load(a3_cluster(4), default_short_job_mix(), 10, 120,
                      scheduler=SCHEDULER_CAPACITY, strategy=strategy, seed=3,
                      baselines={})
    assert report.jobs_completed == report.jobs_submitted == 23
    assert (routed.count("adhoc"), routed.count("batch")) == (19, 4)
