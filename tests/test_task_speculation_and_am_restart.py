"""Tests for in-job straggler speculation and AM restart.

In-job speculation (mapreduce.map.speculative) duplicates slow task
attempts; it is orthogonal to MRapid's *mode* speculation and interacts
with the deterministic data-skew model. AM restart re-runs a job whose
ApplicationMaster died with its node.
"""

import pytest

from repro.config import HadoopConfig, a3_cluster
from repro.core import build_stock_cluster
from repro.faults import FaultPlan, inject
from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
from repro.mapreduce.appmaster import OutputBus
from repro.mapreduce.spec import MapOutput
from repro.observe import install_tracer
from repro.simulation import Environment
from repro.workloads import WORDCOUNT_PROFILE


def wc_spec(cluster, n=8, mb=10.0, profile=WORDCOUNT_PROFILE, prefix="/wc"):
    paths = cluster.load_input_files(prefix, n, mb)
    return SimJobSpec("wordcount", tuple(paths), profile)


def am_restarts(tracer):
    return [i for i in tracer.instants if i.name == "am_restarted"]


# -- OutputBus dedup ---------------------------------------------------------------

def test_output_bus_dedups_duplicate_attempts():
    env = Environment()
    bus = OutputBus(env)
    bus.put(MapOutput("m003", "dn0", 3.0))
    bus.put(MapOutput("m003.a1", "dn1", 3.0))  # duplicate attempt, same task
    bus.put(MapOutput("m004", "dn2", 3.0))
    assert len(bus.store.items) == 2


def test_output_bus_rebuild_resets_dedup():
    env = Environment()
    bus = OutputBus(env)
    bus.put(MapOutput("m000", "dn0", 1.0))
    bus.rebuild([MapOutput("m000", "dn0", 1.0)])
    assert len(bus.store.items) == 1
    bus.put(MapOutput("m001", "dn1", 1.0))
    assert len(bus.store.items) == 2


# -- straggler speculation -----------------------------------------------------------

def straggler_profile(skew=0.0):
    """A profile whose per-task skew we control explicitly."""
    return WORDCOUNT_PROFILE.with_(compute_skew=skew)


def run_with_slow_node(speculative: bool, slowdown: float = 4.0):
    """One node's CPU is crippled; does speculation rescue its tasks?"""
    conf = HadoopConfig(speculative_tasks=speculative, speculative_slowness=1.3)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    # Cripple dn0 — the first node to heartbeat, so the greedy stock
    # scheduler packs most maps onto it (a noisy-neighbour VM).
    slow = cluster.topology.node("dn0")
    slow.cpu.set_slowdown(slowdown)
    spec = wc_spec(cluster, n=8, profile=straggler_profile(0.0))
    return JobClient(cluster).run(spec, MODE_DISTRIBUTED)


def test_speculation_rescues_straggler():
    without = run_with_slow_node(speculative=False)
    with_spec = run_with_slow_node(speculative=True)
    assert with_spec.elapsed < without.elapsed
    assert all(m.finish_time > 0 for m in with_spec.maps)


def test_speculation_produces_duplicate_attempts():
    result = run_with_slow_node(speculative=True)
    # A winning duplicate shows up with an attempt suffix, or the original
    # won anyway; either way the job finished with 8 winners.
    assert len(result.maps) == 8
    assert all(m.finish_time > 0 for m in result.maps)


def test_speculation_off_by_default_no_duplicates():
    cluster = build_stock_cluster(a3_cluster(4))
    result = JobClient(cluster).run(wc_spec(cluster, 8), MODE_DISTRIBUTED)
    assert all("." not in m.task_id for m in result.maps)


def test_speculation_does_not_break_reduce_input_accounting():
    result = run_with_slow_node(speculative=True)
    # Dedup: the reducer saw exactly the 8 winners' bytes (3 MB each).
    assert result.reduces[0].input_mb == pytest.approx(8 * 3.0, rel=0.01)


def test_speculation_no_duplicates_when_tasks_uniform():
    conf = HadoopConfig(speculative_tasks=True, speculative_slowness=1.5)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    spec = wc_spec(cluster, n=4, profile=straggler_profile(0.0))
    result = JobClient(cluster).run(spec, MODE_DISTRIBUTED)
    # Healthy uniform tasks never cross the 1.5x threshold.
    assert all("." not in m.task_id for m in result.maps)


# -- AM restart ----------------------------------------------------------------------

KILL_JOB_AM = FaultPlan().crash(6.0, node="@job-am", hdfs=False)


def test_am_restart_after_am_node_death():
    cluster = build_stock_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    spec = wc_spec(cluster, 4)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)

    injector = inject(cluster, KILL_JOB_AM)
    cluster.env.run(until=handle)
    assert injector.timeline == [(6.0, "crash_nm", "dn3")]
    result = handle.value
    assert all(m.finish_time > 0 for m in result.maps)
    assert am_restarts(tracer)
    # The restarted run necessarily finished after the failure.
    assert result.finish_time > 6.0


def test_am_restart_limited_by_max_attempts():
    conf = HadoopConfig(am_max_attempts=1)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    tracer = install_tracer(cluster)
    spec = wc_spec(cluster, 4)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)

    injector = inject(cluster, KILL_JOB_AM)
    with pytest.raises(Exception):
        cluster.env.run(until=handle)
    assert injector.timeline == [(6.0, "crash_nm", "dn3")]
    assert not am_restarts(tracer)


def test_am_restart_releases_everything():
    from repro.cluster import ResourceVector

    cluster = build_stock_cluster(a3_cluster(4))
    spec = wc_spec(cluster, 4)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)

    inject(cluster, KILL_JOB_AM)
    cluster.env.run(until=handle)
    cluster.env.run(until=cluster.env.now + 2.0)
    assert cluster.rm.total_used() == ResourceVector(0, 0)
