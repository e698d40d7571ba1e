"""The chaos subsystem: declarative fault plans and the recovery they exercise.

Covers the fault-injection machinery itself (plans are immutable data,
selectors resolve against live state, identical seeds give byte-identical
fault timelines) and the cluster's answers to each fault class:

* whole-machine death mid-shuffle  -> reducer fetch failures re-execute the
  lost map outputs (stock and MRapid D+)
* AM-machine death                 -> AM restart with work-preserving
  recovery (completed maps are replayed from history, not re-run)
* crashed machine rejoining        -> schedulable again, empty
* repeated container failures      -> the AM blacklists the bad node
* gray disk                        -> in-job speculation routes around it
* AM-pool node death               -> the proxy respawns warm AMs elsewhere
"""

import pytest

from repro.config import HadoopConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster, run_job
from repro.faults import (
    FaultPlan,
    NodeCrash,
    inject,
)
from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
from repro.observe import install_tracer
from repro.workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE


def ts_spec(cluster, n=8, mb=32.0):
    paths = cluster.load_input_files("/ts", n, mb)
    return SimJobSpec("terasort", tuple(paths), TERASORT_PROFILE)


def wc_spec(cluster, n=8, mb=10.0):
    paths = cluster.load_input_files("/wc", n, mb)
    return SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)


def instants(tracer, name):
    return [i for i in tracer.instants if i.name == name]


# -- FaultPlan is immutable data ----------------------------------------------------

def test_plan_builders_return_new_plans():
    base = FaultPlan()
    crashed = base.crash(5.0, "dn1")
    assert len(base) == 0 and len(crashed) == 1
    assert isinstance(crashed.events[0], NodeCrash)


def test_plan_merge_and_seed():
    a = FaultPlan(seed=3).crash(1.0)
    b = FaultPlan(seed=9).slow_disk(2.0, factor=4.0)
    merged = a + b
    assert len(merged) == 2
    assert merged.seed == 3          # left seed wins
    assert merged.with_seed(42).seed == 42
    assert merged.with_seed(42).events == merged.events


def test_flaky_rate_validated():
    with pytest.raises(ValueError):
        FaultPlan().flaky_containers(0.0, rate=1.5)


def test_plan_events_fire_in_time_order():
    cluster = build_stock_cluster(a3_cluster(4))
    plan = (FaultPlan()
            .slow_disk(4.0, factor=2.0, node="dn1", duration=1.0)
            .crash(2.0, node="dn3", hdfs=False))
    injector = inject(cluster, plan)
    cluster.env.run(until=10.0)
    assert [kind for _, kind, _ in injector.timeline] == [
        "crash_nm", "slow_disk", "disk_restored"]
    assert [t for t, _, _ in injector.timeline] == [2.0, 4.0, 5.0]


# -- determinism --------------------------------------------------------------------

def _chaotic_run(seed):
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")
    plan = (FaultPlan(seed=seed)
            .flaky_containers(1.0, rate=0.3, duration=20.0)
            .crash(7.0, node="@random-non-am", hdfs=False))
    injector = inject(cluster, plan)
    cluster.env.run(until=handle.proc)
    return injector.timeline, handle.proc.value


def test_same_seed_same_fault_timeline_and_outcome():
    """The satellite guarantee: byte-identical timelines, run after run."""
    timeline_a, result_a = _chaotic_run(seed=23)
    timeline_b, result_b = _chaotic_run(seed=23)
    assert timeline_a == timeline_b
    assert result_a.elapsed == result_b.elapsed
    assert [m.task_id for m in result_a.maps] == [m.task_id for m in result_b.maps]


def test_seed_feeds_every_random_draw():
    cluster = build_stock_cluster(a3_cluster(4))
    injector = inject(cluster, FaultPlan(seed=1).crash(1.0, "@random")
                      .crash(2.0, "@random", hdfs=False))
    cluster.env.run(until=3.0)
    victims = [v for _, _, v in injector.timeline]
    import random
    rng = random.Random(1)
    expected_first = rng.choice(sorted(cluster.rm.node_managers))
    assert victims[0] == expected_first


# -- selectors ----------------------------------------------------------------------

def test_explicit_dead_victim_is_skipped():
    cluster = build_stock_cluster(a3_cluster(4))
    injector = inject(cluster, FaultPlan()
                      .crash(1.0, "dn2", hdfs=False)
                      .crash(2.0, "dn2", hdfs=False))
    cluster.env.run(until=3.0)
    kinds = [kind for _, kind, _ in injector.timeline]
    assert kinds == ["crash_nm", "crash_skipped"]


def test_job_am_selector_finds_stock_am_node():
    cluster = build_stock_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    handle = JobClient(cluster).submit(wc_spec(cluster, 4), MODE_DISTRIBUTED)
    injector = inject(cluster, FaultPlan().crash(6.0, "@job-am", hdfs=False))
    cluster.env.run(until=handle)
    am_node = instants(tracer, "am_allocated")[0].args["node"]
    assert injector.timeline[0] == (6.0, "crash_nm", am_node)
    assert injector.timeline == [(6.0, "crash_nm", "dn3")]


def test_non_am_selectors_spare_am_nodes():
    cluster = build_mrapid_cluster(a3_cluster(4))
    handle = cluster.mrapid_framework.submit(wc_spec(cluster), "mrapid-dplus")
    injector = inject(cluster, FaultPlan().crash(7.0, "@busiest-non-am",
                                                 hdfs=False))
    cluster.env.run(until=handle.proc)
    (_, _, victim), = injector.timeline
    assert victim not in {s.node_id for s in cluster.mrapid_framework.slaves}
    assert not handle.proc.value.failed


# -- acceptance: fetch-failure re-execution -----------------------------------------

def test_shuffle_fetch_failure_reexecutes_lost_maps_stock():
    """Kill a non-AM machine after its maps finished but mid-shuffle: the
    reducer's fetch failures must re-execute those maps elsewhere and the
    job must still produce every output."""
    cluster = build_stock_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    spec = ts_spec(cluster)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    # Stock packs maps on dn0; by t=32 they are all done and shuffling.
    inject(cluster, FaultPlan().crash(32.0, "dn0"))
    cluster.env.run(until=handle)
    result = handle.value

    assert not result.failed and not result.killed
    refetched = instants(tracer, "fetch_failure")
    assert refetched, "expected fetch-failure driven re-execution"
    assert all(m.finish_time > 0 for m in result.maps)
    # Every re-executed map landed on a survivor.
    for m in result.maps:
        if m.start_time > 32.0:
            assert m.node_id != "dn0"


def test_shuffle_fetch_failure_reexecutes_lost_maps_dplus():
    cluster = build_mrapid_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    spec = ts_spec(cluster)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")
    # D+ spreads maps; by t=15 dn1's maps are done and the reduce is fetching.
    inject(cluster, FaultPlan().crash(15.0, "dn1"))
    cluster.env.run(until=handle.proc)
    result = handle.proc.value

    assert not result.failed and not result.killed
    assert instants(tracer, "fetch_failure")
    assert all(m.finish_time > 0 for m in result.maps)
    for m in result.maps:
        if m.start_time > 15.0:
            assert m.node_id != "dn1"


# -- acceptance: work-preserving AM recovery ----------------------------------------

def _am_crash_run(recovery: bool):
    conf = HadoopConfig(am_work_preserving_recovery=recovery)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    tracer = install_tracer(cluster)
    spec = ts_spec(cluster)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    injector = inject(cluster, FaultPlan().crash(20.0, "@job-am", hdfs=False))
    cluster.env.run(until=handle)
    assert injector.timeline == [(20.0, "crash_nm", "dn3")]
    return tracer, handle.value


def test_am_restart_recovers_completed_maps():
    tracer, result = _am_crash_run(recovery=True)
    assert not result.failed and not result.killed
    assert instants(tracer, "am_restarted")
    recovered = instants(tracer, "map_recovered")
    assert recovered, "second AM attempt should replay completed maps"
    # Recovered maps kept their original (pre-crash) records.
    recovered_tasks = {m.args["task"] for m in recovered}
    for m in result.maps:
        if m.task_id in recovered_tasks:
            assert m.finish_time < 20.0


def test_am_recovery_beats_rerunning_everything():
    _, with_recovery = _am_crash_run(recovery=True)
    tracer_off, without = _am_crash_run(recovery=False)
    assert not instants(tracer_off, "map_recovered")
    assert with_recovery.elapsed < without.elapsed


# -- node restart / rejoin ----------------------------------------------------------

def test_crashed_node_rejoins_and_is_schedulable():
    from repro.cluster import ResourceVector

    cluster = build_mrapid_cluster(a3_cluster(4))
    cluster.load_input_files("/data", 4, 10.0)
    inject(cluster, FaultPlan().crash(2.0, "dn3").restart(10.0))
    cluster.env.run(until=12.0)

    state = cluster.rm.nodes["dn3"]
    assert state.alive
    assert state.can_fit(ResourceVector(1024, 1))
    assert not cluster.rm.node_managers["dn3"].failed
    assert not cluster.datanode_daemons["dn3"].failed
    # The rejoined DataNode came back empty; its old replicas were written off.
    assert cluster.namenode.blocks_on_node("dn3") == []


def test_rejoined_node_runs_new_tasks():
    cluster = build_stock_cluster(a3_cluster(4))
    inject(cluster, FaultPlan().crash(1.0, "dn2", hdfs=False).restart(3.0))
    cluster.env.run(until=5.0)
    result = run_job(cluster, wc_spec(cluster), "distributed")
    assert not result.failed
    assert all(m.finish_time > 0 for m in result.maps)


def test_restart_without_crash_is_a_noop():
    cluster = build_stock_cluster(a3_cluster(4))
    injector = inject(cluster, FaultPlan().restart(1.0, "dn0"))
    cluster.env.run(until=2.0)
    assert injector.timeline == [(1.0, "restart_skipped", "dn0")]


# -- flaky containers and blacklisting ----------------------------------------------

def test_flaky_node_gets_blacklisted():
    """A node that kills every container it launches is blacklisted after
    ``max_failures_per_node`` failures and the job completes elsewhere."""
    cluster = build_stock_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    spec = wc_spec(cluster)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    # Flakiness starts at t=3, after the AM container (dn3) is up; dn0 is
    # where the greedy stock scheduler packs most maps.
    inject(cluster, FaultPlan().flaky_containers(3.0, rate=1.0, node="dn0"))
    cluster.env.run(until=handle)
    result = handle.value

    assert not result.failed
    (mark,) = instants(tracer, "node_blacklisted")
    assert mark.args["node"] == "dn0"
    # Nothing scheduled there once blacklisted; all winners ran elsewhere.
    assert all(m.node_id != "dn0" for m in result.maps)


def test_blacklisting_can_be_disabled():
    conf = HadoopConfig(node_blacklist_enabled=False)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    tracer = install_tracer(cluster)
    handle = JobClient(cluster).submit(wc_spec(cluster), MODE_DISTRIBUTED)
    inject(cluster, FaultPlan().flaky_containers(3.0, rate=1.0, node="dn0"))
    cluster.env.run(until=handle)
    assert not instants(tracer, "node_blacklisted")
    assert not handle.value.failed


def test_flaky_am_container_restarts_even_during_launch():
    """dn3 hosts the AM; a sabotage landing inside the AM container's JVM
    launch delay must still go through the AM-restart path, not hang."""
    cluster = build_stock_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    handle = JobClient(cluster).submit(wc_spec(cluster, 4), MODE_DISTRIBUTED)
    inject(cluster, FaultPlan().flaky_containers(0.0, rate=1.0, node="dn3",
                                                 duration=1.5))
    cluster.env.run(until=handle)
    assert instants(tracer, "am_restarted")
    assert not handle.value.failed


def test_flakiness_window_expires():
    cluster = build_stock_cluster(a3_cluster(4))
    injector = inject(cluster, FaultPlan()
                      .flaky_containers(1.0, rate=0.5, node="dn1",
                                        duration=4.0))
    cluster.env.run(until=6.0)
    kinds = [kind for _, kind, _ in injector.timeline]
    assert kinds == ["flaky_on", "flaky_off"]
    assert cluster.rm.node_managers["dn1"]._flaky is None


# -- gray failures ------------------------------------------------------------------

def _gray_disk_run(speculative: bool):
    conf = HadoopConfig(speculative_tasks=speculative,
                        speculative_slowness=1.3)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    spec = ts_spec(cluster)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    # Gray, not dead: dn0 (where stock packs) serves disk at 1/6 speed.
    inject(cluster, FaultPlan().slow_disk(3.0, factor=6.0, node="dn0"))
    cluster.env.run(until=handle)
    return handle.value


def test_speculation_rescues_gray_disk():
    """A gray disk never fails a health check, so only speculative
    re-execution can route around it."""
    slow = _gray_disk_run(speculative=False)
    rescued = _gray_disk_run(speculative=True)
    assert not rescued.failed
    assert rescued.elapsed < slow.elapsed
    duplicates = [m for m in rescued.maps if "." in m.task_id]
    assert duplicates, "expected speculative attempts to win on healthy nodes"
    assert all(m.node_id != "dn0" for m in duplicates)


def test_network_degradation_slows_then_heals():
    def run(plan):
        cluster = build_mrapid_cluster(a3_cluster(4))
        spec = ts_spec(cluster, n=4, mb=16.0)
        handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")
        inject(cluster, plan)
        cluster.env.run(until=handle.proc)
        return handle.proc.value

    clean = run(FaultPlan())
    degraded = run(FaultPlan().degrade_network(2.0, factor=8.0,
                                               node="dn0", duration=60.0))
    assert not degraded.failed
    assert degraded.elapsed > clean.elapsed


def test_partition_heals_and_job_completes():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")
    injector = inject(cluster, FaultPlan().partition(6.0, ("dn3",),
                                                     duration=5.0))
    cluster.env.run(until=handle.proc)
    result = handle.proc.value
    assert not result.failed and not result.killed
    kinds = [kind for _, kind, _ in injector.timeline]
    assert kinds == ["partition", "partition_healed"]


# -- failure-aware mode decision ----------------------------------------------------

def test_failure_model_expected_recovery_cost():
    from repro.core import FailureModel

    healthy = FailureModel()
    assert healthy.expected_recovery_s(100.0, 1.0) == 0.0

    flaky = FailureModel(node_fail_rate_per_hour=1.0, cluster_nodes=4)
    full = flaky.expected_recovery_s(100.0, 1.0)
    shared = flaky.expected_recovery_s(100.0, 0.25)
    assert 0 < shared < full < 100.0
    # More failure-prone -> larger expected rework.
    worse = FailureModel(node_fail_rate_per_hour=10.0, cluster_nodes=4)
    assert worse.expected_recovery_s(100.0, 1.0) > full


def test_failure_model_tips_near_ties_toward_dplus():
    """U+'s blast radius is the whole job; on a flaky-enough cluster the
    decision maker charges it for that and flips a near-tie to D+."""
    from repro.core import DecisionMaker, FailureModel
    from repro.core.estimator import EstimatorInputs

    # A near-tie that leans U+: both estimates land within half a second.
    inputs = EstimatorInputs(t_l=2.5, t_m=0.85, s_i=10.0, s_o=1.0,
                             d_i=80.0, d_o=80.0, b_i=100.0,
                             n_m=8, n_c=8, n_u_m=2)
    neutral = DecisionMaker().evaluate(inputs)
    assert neutral.mode == "uplus"
    assert abs(neutral.t_u - neutral.t_d) < 0.5

    flaky = DecisionMaker(failure_model=FailureModel(
        node_fail_rate_per_hour=200.0, cluster_nodes=4)).evaluate(inputs)
    assert flaky.t_u - flaky.t_d > neutral.t_u - neutral.t_d
    assert flaky.mode == "dplus"


# -- AM pool healing ----------------------------------------------------------------

def test_ampool_respawns_slaves_after_node_loss():
    cluster = build_mrapid_cluster(a3_cluster(4))
    tracer = install_tracer(cluster)
    fw = cluster.mrapid_framework
    cluster.env.run(until=2.0)
    pool_size = len(fw.slaves)
    victim = fw.slaves[-1].node_id
    inject(cluster, FaultPlan().crash(2.5, victim, hdfs=False))
    cluster.env.run(until=6.0)

    assert instants(tracer, "ampool_slaves_lost")
    assert instants(tracer, "ampool_respawned")
    assert len(fw.slaves) == pool_size
    assert all(not cluster.rm.node_managers[s.node_id].failed
               for s in fw.slaves)
    assert victim not in {s.node_id for s in fw.slaves}
