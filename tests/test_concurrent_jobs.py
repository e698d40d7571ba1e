"""Concurrent jobs sharing one cluster: contention, fairness, correctness."""

from repro.cluster import ResourceVector
from repro.config import MRapidConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster
from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
from repro.workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE


def spec(cluster, name, n=4, mb=10.0, profile=WORDCOUNT_PROFILE):
    paths = cluster.load_input_files(f"/{name}", n, mb)
    return SimJobSpec(name, tuple(paths), profile, signature=name)


def test_two_dplus_jobs_share_cluster():
    cluster = build_mrapid_cluster(a3_cluster(4))
    fw = cluster.mrapid_framework
    h1 = fw.submit(spec(cluster, "job-a", 6), "mrapid-dplus")
    h2 = fw.submit(spec(cluster, "job-b", 6), "mrapid-dplus")
    cluster.env.run(until=cluster.env.all_of([h1.proc, h2.proc]))
    r1, r2 = h1.proc.value, h2.proc.value
    assert not r1.failed and not r2.failed
    assert all(m.finish_time > 0 for m in r1.maps + r2.maps)
    # Contention is real: at least one of them ran slower than a solo run.
    solo = build_mrapid_cluster(a3_cluster(4))
    solo_result = solo.mrapid_framework.run(spec(solo, "job-a", 6), "mrapid-dplus")
    assert max(r1.elapsed, r2.elapsed) > solo_result.elapsed - 1e-6


def test_mixed_modes_concurrently():
    cluster = build_mrapid_cluster(a3_cluster(4))
    fw = cluster.mrapid_framework
    handles = [
        fw.submit(spec(cluster, "wc-d", 4), "mrapid-dplus"),
        fw.submit(spec(cluster, "wc-u", 4), "mrapid-uplus"),
        fw.submit(spec(cluster, "ts-u", 4, profile=TERASORT_PROFILE),
                  "mrapid-uplus"),
    ]
    cluster.env.run(until=cluster.env.all_of([h.proc for h in handles]))
    for handle in handles:
        result = handle.proc.value
        assert not result.failed and not result.killed
        assert all(m.finish_time > 0 for m in result.maps)
    # AM pool drained and refilled.
    assert len(fw.parked) == len(fw.slaves)


def test_concurrent_stock_jobs_fifo_progress():
    cluster = build_stock_cluster(a3_cluster(4))
    client = JobClient(cluster)
    p1 = client.submit(spec(cluster, "first", 8), MODE_DISTRIBUTED)
    p2 = client.submit(spec(cluster, "second", 8), MODE_DISTRIBUTED)
    cluster.env.run(until=cluster.env.all_of([p1, p2]))
    assert p1.value.finish_time > 0 and p2.value.finish_time > 0
    cluster.env.run(until=cluster.env.now + 2.0)
    assert cluster.rm.total_used() == ResourceVector(0, 0)


def test_dplus_grants_isolated_per_app():
    """Containers granted in app A's heartbeat never leak to app B."""
    from repro.core.dplus import DPlusScheduler
    from repro.simcluster import SimCluster
    from repro.yarn import Application, ContainerRequest

    cluster = SimCluster(a3_cluster(4), scheduler=DPlusScheduler())
    for app_id in ("a", "b"):
        cluster.rm.apps[app_id] = Application(app_id, app_id,
                                              ResourceVector(1, 1),
                                              lambda ctx: iter(()))
        cluster.rm._ready[app_id] = []
    grants_a = cluster.rm.allocate(
        "a", [ContainerRequest(ResourceVector(1024, 1)) for _ in range(3)])
    grants_b = cluster.rm.allocate(
        "b", [ContainerRequest(ResourceVector(1024, 1)) for _ in range(3)])
    assert all(g.app_id == "a" for g in grants_a)
    assert all(g.app_id == "b" for g in grants_b)
    assert len(grants_a) == len(grants_b) == 3


def test_ten_job_storm_completes_and_drains():
    mrapid = MRapidConfig(am_pool_size=3)
    cluster = build_mrapid_cluster(a3_cluster(4), mrapid=mrapid)
    fw = cluster.mrapid_framework
    handles = [fw.submit(spec(cluster, f"storm-{i}", 2, 8.0), "mrapid-uplus")
               for i in range(10)]
    cluster.env.run(until=cluster.env.all_of([h.proc for h in handles]))
    results = [h.proc.value for h in handles]
    assert all(not r.failed for r in results)
    # With 3 pooled AMs, at most 3 jobs ran at once: start times spread out.
    starts = sorted(r.am_start_time for r in results)
    assert starts[3] > starts[0]
    pool_reserved = sum((s.container.resource for s in fw.slaves),
                       ResourceVector(0, 0))
    cluster.env.run(until=cluster.env.now + 2.0)
    assert cluster.rm.total_used() == pool_reserved


def test_concurrent_speculative_jobs():
    from repro.core import SpeculativeExecutor

    cluster = build_mrapid_cluster(a3_cluster(4),
                                   mrapid=MRapidConfig(am_pool_size=5))
    executor = SpeculativeExecutor(cluster.mrapid_framework)
    p1 = executor.submit(spec(cluster, "q1", 4))
    p2 = executor.submit(spec(cluster, "q2", 4))
    cluster.env.run(until=cluster.env.all_of([p1, p2]))
    for proc in (p1, p2):
        outcome = proc.value
        assert outcome.winner.finish_time > 0
        assert not outcome.winner.killed
