"""One job-ordering contract: ``SchedulerBase.priority_key`` ranks the jobs
waiting at the MRapid proxy for a warm AM, as it ranks the RM's AM queue.

Each scenario runs a one-AM pool that a first job holds, so every later
submission waits at the proxy; the checks are on which waiter the freed AM
goes to. The tie cases run under ``permuted_ties``: the answer must not
depend on the kernel's same-instant dispatch order.
"""

import pytest

from repro.analysis.sanitize import permuted_ties
from repro.config import MRapidConfig, a3_cluster
from repro.core import MODE_DPLUS, MODE_UPLUS, build_mrapid_cluster
from repro.core.ampool import SubmissionFramework
from repro.core.speculation import SpeculativeExecutor
from repro.mapreduce import SimJobSpec
from repro.metrics import SignatureStats
from repro.simcluster import SimCluster
from repro.trace import STRATEGY_DPLUS, TraceJob, default_short_job_mix, replay_load
from repro.workloads.base import WORDCOUNT_PROFILE
from repro.yarn import HFSPScheduler

ONE_AM = MRapidConfig(am_pool_size=1)
TIE_SEEDS = range(1, 11)


def spy_am_starts(framework):
    """Record ``(job name, mode)`` each time a warm AM starts a job."""
    started = []
    make_am = framework._make_am

    def spy(spec, mode, result):
        started.append((spec.name, mode))
        return make_am(spec, mode, result)

    framework._make_am = spy
    return started


def job(cluster, name, prefix):
    return SimJobSpec(name, tuple(cluster.load_input_files(prefix, 2, 8.0)),
                      WORDCOUNT_PROFILE)


def run_until_freed(cluster, blocker):
    """Run past the instant the blocker returns its AM, and its RPC."""
    cluster.env.run(until=blocker.proc)
    cluster.env.run(until=cluster.env.now + 1.0)


def test_freed_am_goes_to_the_dplus_half_under_any_tie_order():
    """A speculative job's D+ and U+ submissions both wait on an empty
    pool; their client-submit timeouts tie. Whatever order the kernel
    dispatches them in, the freed AM goes to D+ (the half the executor
    submits first)."""
    for seed in TIE_SEEDS:
        with permuted_ties(seed):
            cluster = build_mrapid_cluster(a3_cluster(4), mrapid=ONE_AM)
            fw = cluster.mrapid_framework
            started = spy_am_starts(fw)
            blocker = fw.submit(job(cluster, "blocker", "/b"), MODE_UPLUS)
            cluster.env.run(until=1.0)
            assert fw.parked == []
            SpeculativeExecutor(fw).submit(job(cluster, "wc", "/wc"))
            run_until_freed(cluster, blocker)
        assert started[:2] == [("blocker", MODE_UPLUS), ("wc", MODE_DPLUS)], seed


def test_same_instant_replay_arrivals_are_served_in_trace_order():
    """Two replay jobs arrive at one instant while the only AM is busy:
    the lower trace index gets it, whatever the tie order."""
    scan = default_short_job_mix()[0]
    trace = [TraceJob(0.0, scan, 0), TraceJob(1.0, scan, 1),
             TraceJob(1.0, scan, 2)]
    for seed in TIE_SEEDS:
        with permuted_ties(seed):
            cluster = build_mrapid_cluster(a3_cluster(4), mrapid=ONE_AM)
            report = replay_load(cluster, trace, STRATEGY_DPLUS,
                                 keep_jobs=True)
        finished = sorted(report.per_job,
                          key=lambda row: row["arrival_s"] + row["sojourn_s"])
        assert [row["index"] for row in finished] == [0, 1, 2], seed


def test_hfsp_gives_the_next_warm_am_to_the_known_short_job():
    """On HFSP, with both signatures trained, a known long job queued at
    the proxy ahead of a known short one loses the next warm AM to it."""
    sched = HFSPScheduler(memory_only=True)
    cluster = SimCluster(a3_cluster(4), scheduler=sched)
    fw = SubmissionFramework(cluster, ONE_AM)
    for name, size_s in (("long", 120.0), ("short", 4.0)):
        stats = sched.sizes[name] = SignatureStats()
        for _ in range(sched.training_samples):
            stats.observe(size_s)
    started = spy_am_starts(fw)
    blocker = fw.submit(job(cluster, "blocker", "/b"), MODE_UPLUS)
    cluster.env.run(until=1.0)
    fw.submit(job(cluster, "long", "/l"), MODE_UPLUS)
    cluster.env.run(until=2.0)
    fw.submit(job(cluster, "short", "/s"), MODE_UPLUS)
    run_until_freed(cluster, blocker)
    assert [name for name, _ in started] == ["blocker", "short"]


def test_pooled_jobs_train_hfsp_from_the_moment_their_am_took_them():
    """A pooled job reaches ``on_app_finished``: HFSP learns its service
    time, measured from the warm AM's grant, not from submission."""
    sched = HFSPScheduler(memory_only=True)
    cluster = SimCluster(a3_cluster(4), scheduler=sched)
    fw = SubmissionFramework(cluster, ONE_AM)
    blocker = fw.submit(job(cluster, "blocker", "/b"), MODE_UPLUS)
    waiter = fw.submit(job(cluster, "waiter", "/w"), MODE_UPLUS)
    cluster.env.run(until=waiter.proc)
    for handle in (blocker, waiter):
        assert sched.sizes[handle.spec.name].count == 1
    granted_at = blocker.result.finish_time
    assert granted_at > waiter.result.submit_time
    assert sched.sizes["waiter"].mean_s == pytest.approx(
        waiter.result.finish_time - granted_at)
