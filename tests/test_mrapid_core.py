"""Tests for the MRapid core: D+ scheduler, U+ AM, AM pool, estimator,
decision maker, speculation."""

import pytest

from repro.cluster import ResourceVector
from repro.config import MRapidConfig, a3_cluster
from repro.core import (
    MODE_UPLUS,
    DecisionMaker,
    DPlusScheduler,
    EstimatorInputs,
    build_mrapid_cluster,
    build_stock_cluster,
    crossover_maps,
    estimate_dplus,
    estimate_full_job,
    estimate_uplus,
    pick_mode,
    run_short_job,
    run_speculative,
    run_stock_job,
)
from repro.core.uplus import IntermediateCache
from repro.mapreduce import SimJobSpec
from repro.simcluster import SimCluster
from repro.workloads.base import WORDCOUNT_PROFILE
from repro.yarn import Application, ContainerRequest


def wc_spec(cluster, n=4, mb=10.0, prefix="/wc"):
    paths = cluster.load_input_files(prefix, n, mb)
    return SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)


# -- D+ scheduler -----------------------------------------------------------------

def register_dummy_app(cluster, app_id="x"):
    cluster.rm.apps[app_id] = Application(app_id, app_id, ResourceVector(1, 1),
                                          lambda ctx: iter(()))
    cluster.rm._ready[app_id] = []
    return app_id


def test_dplus_grants_in_same_call():
    cluster = SimCluster(a3_cluster(4), scheduler=DPlusScheduler())
    app_id = register_dummy_app(cluster)
    grants = cluster.rm.allocate(app_id, [ContainerRequest(ResourceVector(1024, 1))])
    assert len(grants) == 1  # no heartbeat wait


def test_dplus_spreads_across_nodes():
    cluster = SimCluster(a3_cluster(4), scheduler=DPlusScheduler())
    app_id = register_dummy_app(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(4)]
    grants = cluster.rm.allocate(app_id, asks)
    assert len(grants) == 4
    assert len({c.node_id for c in grants}) == 4  # one per node


def test_dplus_greedy_ablation_packs():
    scheduler = DPlusScheduler(balanced_spread=False)
    cluster = SimCluster(a3_cluster(4), scheduler=scheduler)
    app_id = register_dummy_app(cluster)
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(4)]
    grants = cluster.rm.allocate(app_id, asks)
    assert len({c.node_id for c in grants}) == 1


def test_dplus_prefers_node_local():
    cluster = SimCluster(a3_cluster(4), scheduler=DPlusScheduler())
    app_id = register_dummy_app(cluster)
    ask = ContainerRequest(ResourceVector(1024, 1), preferred_nodes=("dn2",), tag=7)
    (grant,) = cluster.rm.allocate(app_id, [ask])
    assert grant.node_id == "dn2"
    assert grant.tag == 7


def test_dplus_falls_back_to_rack_then_any():
    cluster = SimCluster(a3_cluster(4), scheduler=DPlusScheduler())
    app_id = register_dummy_app(cluster)
    # Fill dn2 completely so NODE_LOCAL cannot be served.
    state = cluster.rm.nodes["dn2"]
    state.allocate(state.available)
    ask = ContainerRequest(ResourceVector(1024, 1), preferred_nodes=("dn2",))
    (grant,) = cluster.rm.allocate(app_id, [ask])
    # dn0 shares rack0 with dn2 (i % 2 racks) -> rack-local preferred.
    assert cluster.topology.rack_of(grant.node_id) == cluster.topology.rack_of("dn2")


def test_dplus_locality_ablation_ignores_preferences():
    scheduler = DPlusScheduler(locality_aware=False)
    cluster = SimCluster(a3_cluster(4), scheduler=scheduler)
    app_id = register_dummy_app(cluster)
    ask = ContainerRequest(ResourceVector(1024, 1), preferred_nodes=("dn3",))
    (grant,) = cluster.rm.allocate(app_id, [ask])
    # With locality off, the grant goes to the idlest node by sort order,
    # which is dn0 on an empty cluster (tie broken by node id).
    assert grant.node_id == "dn0"


def test_dplus_same_heartbeat_ablation_defers_to_node_heartbeat():
    scheduler = DPlusScheduler(respond_same_heartbeat=False)
    cluster = SimCluster(a3_cluster(4), scheduler=scheduler)
    app_id = register_dummy_app(cluster)
    grants = cluster.rm.allocate(app_id, [ContainerRequest(ResourceVector(1024, 1))])
    assert grants == []
    cluster.env.run(until=1.5)
    grants = cluster.rm.allocate(app_id, [])
    assert len(grants) == 1


def test_dplus_retries_when_cluster_full():
    cluster = SimCluster(a3_cluster(1), scheduler=DPlusScheduler())
    app_id = register_dummy_app(cluster)
    # 1 node: 4 vcores. Ask for 6.
    asks = [ContainerRequest(ResourceVector(1024, 1)) for _ in range(6)]
    grants = cluster.rm.allocate(app_id, asks)
    assert len(grants) == 4
    for g in grants[:2]:
        cluster.rm.container_finished(g)
    cluster.env.run(until=1.5)  # next NM heartbeat retries the queue
    more = cluster.rm.allocate(app_id, [])
    assert len(more) == 2


# -- estimator (Equations 1-3) -------------------------------------------------------

def base_inputs(**kw):
    defaults = dict(t_l=2.5, t_m=3.5, s_i=10.0, s_o=3.0, d_i=80.0, d_o=100.0,
                    b_i=110.0, n_m=4, n_c=12, n_u_m=4)
    defaults.update(kw)
    return EstimatorInputs(**defaults)


def test_equation2_uplus_waves():
    inputs = base_inputs(n_m=8, n_u_m=4, t_m=2.0)
    assert estimate_uplus(inputs) == pytest.approx(2.0 * 2)


def test_equation2_clamps_to_one_wave():
    inputs = base_inputs(n_m=2, n_u_m=8, t_m=2.0)
    assert estimate_uplus(inputs) == pytest.approx(2.0)


def test_equation3_structure():
    inputs = base_inputs(n_m=12, n_c=4)
    expected = (2.5 + 3.5 + 3.0 / 80.0) * 3 + (3.0 * 4) / 110.0
    assert estimate_dplus(inputs) == pytest.approx(expected)


def test_equation1_includes_am_and_shuffle():
    inputs = base_inputs(n_m=4, n_c=4)
    t = estimate_full_job(inputs)
    per_wave = 2.5 + 10.0 / 100.0 + 3.5 + 3.0 / 80.0
    assert t == pytest.approx(2.5 + per_wave + (3.0 * 4) / 110.0)


def test_equation1_merge_term():
    inputs = base_inputs(n_m=4, n_c=4)
    with_merge = estimate_full_job(inputs, spills_twice=True)
    without = estimate_full_job(inputs)
    assert with_merge - without == pytest.approx(3.0 / 100.0 + 3.0 / 80.0)


def test_pick_mode_prefers_uplus_for_small_jobs():
    assert pick_mode(base_inputs(n_m=2)) == "uplus"


def test_pick_mode_prefers_dplus_for_many_maps():
    # 64 maps, 16 containers, U+ does 16 waves of t_m but D+ only 4.
    inputs = base_inputs(n_m=64, n_c=16, n_u_m=4, t_m=3.5)
    assert pick_mode(inputs) == "dplus"


def test_crossover_monotonic():
    inputs = base_inputs(n_c=16, n_u_m=4)
    cross = crossover_maps(inputs)
    assert cross is not None
    before = EstimatorInputs(**{**inputs.__dict__, "n_m": cross - 1}) if cross > 1 else None
    if before:
        assert estimate_uplus(before) <= estimate_dplus(before)


def test_estimator_validation():
    with pytest.raises(ValueError):
        base_inputs(d_i=0)
    with pytest.raises(ValueError):
        base_inputs(n_m=0)
    with pytest.raises(ValueError):
        base_inputs(t_m=-1)


# -- decision maker & history -----------------------------------------------------------

def test_history_round_trip():
    dm = DecisionMaker()
    dm.winners["wc"] = "uplus"
    assert dm.pre_decision("wc") == "uplus"
    dm.winners["wc"] = "dplus"                 # the latest winner counts
    assert dm.pre_decision("wc") == "dplus"
    assert dm.winners == {"wc": "dplus"}


def test_history_unknown_signature():
    assert DecisionMaker().pre_decision("nope") is None


def test_decision_maker_evaluate_and_commit():
    dm = DecisionMaker()
    decision = dm.evaluate(base_inputs(n_m=2))
    assert decision.mode == "uplus"
    assert decision.loser == "dplus"
    dm.winners["sig"] = decision.mode
    assert dm.pre_decision("sig") == "uplus"


def test_decision_confidence_margin():
    dm = DecisionMaker(confidence_margin=0.9)
    decision = dm.evaluate(base_inputs())
    assert not dm.is_confident(decision)
    dm2 = DecisionMaker(confidence_margin=0.0)
    assert dm2.is_confident(decision)


# -- IntermediateCache ----------------------------------------------------------------

def test_cache_reserves_until_limit():
    cache = IntermediateCache(limit_mb=10.0, estimated_total_mb=8.0)
    assert cache.try_reserve(6.0)
    assert not cache.try_reserve(6.0)
    assert cache.try_reserve(4.0)


def test_cache_predecision_disables_when_job_too_big():
    cache = IntermediateCache(limit_mb=10.0, estimated_total_mb=50.0)
    assert not cache.try_reserve(1.0)


def test_cache_disabled_flag():
    cache = IntermediateCache(limit_mb=10.0, enabled=False, estimated_total_mb=1.0)
    assert not cache.try_reserve(1.0)


# -- AM pool ------------------------------------------------------------------------------

def test_pool_prewarms_configured_slaves():
    cluster = build_mrapid_cluster(a3_cluster(4))
    fw = cluster.mrapid_framework
    assert len(fw.slaves) == 3  # paper default
    cluster.env.run(until=5.0)
    assert len(fw.parked) == 3  # all warm


def test_pool_spreads_slaves_across_nodes():
    cluster = build_mrapid_cluster(a3_cluster(4))
    nodes = {s.node_id for s in cluster.mrapid_framework.slaves}
    assert len(nodes) == 3


def test_pooled_job_skips_am_launch():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster)
    result = run_short_job(cluster, spec, "uplus")
    # AM overhead = client submit (0.8) + proxy rpc; no 2.5s container launch
    # and no NM-heartbeat allocation wait.
    assert result.am_overhead < cluster.conf.client_submit_s + 0.5


def test_unpooled_mrapid_pays_am_launch():
    mrapid = MRapidConfig(use_am_pool=False)
    cluster = build_mrapid_cluster(a3_cluster(4), mrapid=mrapid)
    spec = wc_spec(cluster)
    result = run_short_job(cluster, spec, "uplus")
    assert result.am_overhead >= cluster.conf.container_launch_s


def test_pool_exhaustion_queues_jobs():
    mrapid = MRapidConfig(am_pool_size=1)
    cluster = build_mrapid_cluster(a3_cluster(4), mrapid=mrapid)
    fw = cluster.mrapid_framework
    s1 = wc_spec(cluster, prefix="/a")
    s2 = wc_spec(cluster, prefix="/b")
    h1 = fw.submit(s1, MODE_UPLUS)
    h2 = fw.submit(s2, MODE_UPLUS)
    cluster.env.run(until=h2.proc)
    r1, r2 = h1.proc.value, h2.proc.value
    # The second job could only start after the first returned its AM.
    assert r2.am_start_time >= r1.finish_time - 1e-6
    assert not r1.killed and not r2.killed


def test_invalid_mode_rejected():
    cluster = build_mrapid_cluster(a3_cluster(4))
    with pytest.raises(ValueError):
        cluster.mrapid_framework.submit(wc_spec(cluster), "bogus")


def test_run_short_job_requires_mrapid_cluster():
    cluster = build_stock_cluster(a3_cluster(4))
    with pytest.raises(ValueError):
        run_short_job(cluster, wc_spec(cluster), "uplus")


# -- U+ behaviour ---------------------------------------------------------------------------

def test_uplus_runs_maps_in_parallel():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_short_job(cluster, wc_spec(cluster), "uplus")
    maps = result.maps
    # 4 maps on a 4-core AM node: all overlap.
    overlap = sum(
        1 for a in maps for b in maps
        if a is not b and a.start_time < b.finish_time and b.start_time < a.finish_time
    )
    assert overlap > 0
    assert result.num_waves == 1
    assert len(result.nodes_used()) == 1


def test_uplus_serial_ablation():
    mrapid = MRapidConfig(parallel_maps=False)
    cluster = build_mrapid_cluster(a3_cluster(4), mrapid=mrapid)
    result = run_short_job(cluster, wc_spec(cluster), "uplus")
    maps = sorted(result.maps, key=lambda m: m.start_time)
    for earlier, later in zip(maps, maps[1:]):
        assert later.start_time >= earlier.finish_time - 1e-9


def test_uplus_caches_small_intermediate():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_short_job(cluster, wc_spec(cluster, 4, 10.0), "uplus")
    assert all(m.in_memory_output for m in result.maps)
    assert all(m.phases.spill == 0.0 for m in result.maps)


def test_uplus_spills_large_intermediate():
    # 16 x 10 MB raw output = 16*10*1.7 = 272 MB > 256 MB cache limit.
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_short_job(cluster, wc_spec(cluster, 16, 10.0), "uplus")
    assert all(not m.in_memory_output for m in result.maps)
    assert all(m.phases.spill > 0.0 for m in result.maps)


def test_uplus_memory_cache_ablation_spills():
    mrapid = MRapidConfig(memory_cache=False)
    cluster = build_mrapid_cluster(a3_cluster(4), mrapid=mrapid)
    result = run_short_job(cluster, wc_spec(cluster), "uplus")
    assert all(not m.in_memory_output for m in result.maps)


def test_uplus_faster_than_stock_uber():
    stock = build_stock_cluster(a3_cluster(4))
    uber = run_stock_job(stock, wc_spec(stock), "uber")
    mrapid = build_mrapid_cluster(a3_cluster(4))
    uplus = run_short_job(mrapid, wc_spec(mrapid), "uplus")
    assert uplus.elapsed < uber.elapsed


# -- D+ end-to-end ----------------------------------------------------------------------------

def test_dplus_faster_than_stock_distributed():
    stock = build_stock_cluster(a3_cluster(4))
    base = run_stock_job(stock, wc_spec(stock, 8), "distributed")
    mrapid = build_mrapid_cluster(a3_cluster(4))
    dplus = run_short_job(mrapid, wc_spec(mrapid, 8), "dplus")
    assert dplus.elapsed < base.elapsed


def test_dplus_uses_more_nodes_than_stock():
    stock = build_stock_cluster(a3_cluster(4))
    base = run_stock_job(stock, wc_spec(stock, 4), "distributed")
    mrapid = build_mrapid_cluster(a3_cluster(4))
    dplus = run_short_job(mrapid, wc_spec(mrapid, 4), "dplus")
    base_map_nodes = {m.node_id for m in base.maps}
    dplus_map_nodes = {m.node_id for m in dplus.maps}
    assert len(dplus_map_nodes) >= len(base_map_nodes)
    assert len(dplus_map_nodes) == 4


# -- speculation ----------------------------------------------------------------------------------

def test_speculation_small_job_picks_uplus_and_kills_dplus():
    cluster = build_mrapid_cluster(a3_cluster(4))
    outcome = run_speculative(cluster, wc_spec(cluster))
    assert outcome.winner_mode == "uplus"
    assert outcome.killed_mode == "dplus"
    assert not outcome.winner.killed
    assert outcome.winner.finish_time > 0


def test_speculation_records_history_for_second_run():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster)
    first = run_speculative(cluster, spec)
    second = run_speculative(cluster, SimJobSpec("wordcount", spec.input_paths,
                                                 WORDCOUNT_PROFILE))
    assert second.from_history
    assert second.winner_mode == first.winner_mode
    # No dual-launch overhead: second run at least as fast.
    assert second.elapsed <= first.elapsed + 1.0


def test_speculation_releases_all_resources():
    cluster = build_mrapid_cluster(a3_cluster(4))
    run_speculative(cluster, wc_spec(cluster))
    cluster.env.run(until=cluster.env.now + 3.0)
    pool_reserved = sum((s.container.resource for s in cluster.mrapid_framework.slaves),
                       ResourceVector(0, 0))
    assert cluster.rm.total_used() == pool_reserved


def test_speculation_decision_uses_estimator():
    cluster = build_mrapid_cluster(a3_cluster(4))
    outcome = run_speculative(cluster, wc_spec(cluster))
    assert outcome.decision is not None
    assert outcome.decision.t_u <= outcome.decision.t_d


def test_containers_for_deadline_monotone():
    from repro.core import containers_for_deadline

    inputs = base_inputs(n_m=32, n_c=1, t_m=4.0)
    tight = containers_for_deadline(inputs, deadline_s=30.0)
    loose = containers_for_deadline(inputs, deadline_s=120.0)
    assert tight is not None and loose is not None
    assert tight >= loose
    # The found count actually meets the deadline; one fewer does not.
    from repro.core import EstimatorInputs, estimate_dplus

    meets = EstimatorInputs(**{**inputs.__dict__, "n_c": tight})
    assert estimate_dplus(meets) <= 30.0
    if tight > 1:
        misses = EstimatorInputs(**{**inputs.__dict__, "n_c": tight - 1})
        assert estimate_dplus(misses) > 30.0


def test_containers_for_deadline_impossible():
    from repro.core import containers_for_deadline

    inputs = base_inputs(n_m=4, t_m=50.0)
    # A single wave already exceeds 10 s, no n_c can help.
    assert containers_for_deadline(inputs, deadline_s=10.0, max_containers=64) is None


def test_containers_for_deadline_validation():
    import pytest
    from repro.core import containers_for_deadline

    with pytest.raises(ValueError):
        containers_for_deadline(base_inputs(), deadline_s=0)


def test_reduce_locality_extension_places_reduce_on_map_node():
    mrapid = MRapidConfig(reduce_locality_aware=True)
    cluster = build_mrapid_cluster(a3_cluster(4), mrapid=mrapid)
    result = run_short_job(cluster, wc_spec(cluster, 4), "dplus")
    reduce_node = result.reduces[0].node_id
    map_nodes = {m.node_id for m in result.maps}
    assert reduce_node in map_nodes  # LARTS preference honored by D+


def test_reduce_locality_shrinks_shuffle_time():
    base_cluster = build_mrapid_cluster(a3_cluster(4))
    base = run_short_job(base_cluster, wc_spec(base_cluster, 8), "dplus")
    larts_cluster = build_mrapid_cluster(
        a3_cluster(4), mrapid=MRapidConfig(reduce_locality_aware=True))
    larts = run_short_job(larts_cluster, wc_spec(larts_cluster, 8), "dplus")
    # One of the eight fetches becomes node-local; shuffle can only shrink.
    assert larts.reduces[0].phases.shuffle <= base.reduces[0].phases.shuffle + 0.5


def test_tune_maps_per_vcore_returns_best():
    from repro.core import tune_maps_per_vcore
    from repro.experiments.figures import wordcount_input

    report = tune_maps_per_vcore(a3_cluster(4), wordcount_input(8, 10.0),
                                 candidates=(1, 2))
    assert len(report.candidates) == 2
    assert report.best.elapsed_s == min(c.elapsed_s for c in report.candidates)
    assert "best" in report.table()
    import pytest as _pytest
    with _pytest.raises(ValueError):
        tune_maps_per_vcore(a3_cluster(4), wordcount_input(2, 10.0),
                            candidates=(0,))


def test_tune_am_pool_size_uses_caller_metric():
    from repro.core import tune_am_pool_size

    calls = []

    def metric(config):
        calls.append(config.am_pool_size)
        return abs(config.am_pool_size - 3) + 1.0  # pretend 3 is ideal

    report = tune_am_pool_size(a3_cluster(4), metric, candidates=(1, 3, 5))
    assert calls == [1, 3, 5]
    assert report.best.config.am_pool_size == 3
