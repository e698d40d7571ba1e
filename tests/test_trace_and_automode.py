"""Tests for the workload-trace replay and Hadoop's uber auto-decision."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HadoopConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster
from repro.mapreduce import MODE_AUTO, JobClient, SimJobSpec, uber_eligible
from repro.metrics import exact_percentile
from repro.trace import (
    STRATEGY_DPLUS,
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    STRATEGY_UPLUS,
    JobTemplate,
    default_short_job_mix,
    poisson_trace,
    replay_load,
)
from repro.workloads import WORDCOUNT_PROFILE


# -- uber eligibility ------------------------------------------------------------

def test_uber_eligible_small_job():
    cluster = build_stock_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/s", 2, 10.0)  # 20 MB < 64 MB block
    spec = SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)
    assert uber_eligible(cluster, spec)


def test_uber_ineligible_large_input():
    cluster = build_stock_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/s", 4, 20.0)  # 80 MB > one block
    spec = SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)
    assert not uber_eligible(cluster, spec)


def test_uber_ineligible_too_many_maps():
    conf = HadoopConfig(uber_max_maps=3)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    paths = cluster.load_input_files("/s", 4, 5.0)   # 20 MB but 4 maps > 3
    spec = SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)
    assert not uber_eligible(cluster, spec)


def test_auto_mode_picks_uber_for_tiny_job():
    cluster = build_stock_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/s", 1, 10.0)
    spec = SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)
    result = JobClient(cluster).run(spec, MODE_AUTO)
    assert result.mode == "hadoop-uber"
    assert len(result.nodes_used()) == 1


def test_auto_mode_picks_distributed_for_bigger_job():
    cluster = build_stock_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/s", 8, 10.0)
    spec = SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)
    result = JobClient(cluster).run(spec, MODE_AUTO)
    assert result.mode == "hadoop-distributed"


# -- trace generation -------------------------------------------------------------

def test_poisson_trace_deterministic():
    mix = default_short_job_mix()
    a = poisson_trace(mix, 3.0, 120.0, seed=4)
    b = poisson_trace(mix, 3.0, 120.0, seed=4)
    assert [(j.arrival_s, j.template.name) for j in a] == \
           [(j.arrival_s, j.template.name) for j in b]
    c = poisson_trace(mix, 3.0, 120.0, seed=5)
    assert a != c


def test_poisson_trace_rate_roughly_respected():
    mix = default_short_job_mix()
    trace = poisson_trace(mix, rate_per_minute=6.0, duration_s=3600.0, seed=1)
    # 6/min for an hour ~ 360 arrivals; allow generous Poisson slack.
    assert 280 <= len(trace) <= 440


def test_poisson_trace_arrivals_sorted_and_bounded():
    trace = poisson_trace(default_short_job_mix(), 5.0, 200.0, seed=9)
    arrivals = [j.arrival_s for j in trace]
    assert arrivals == sorted(arrivals)
    assert all(0 <= a < 200.0 for a in arrivals)


def test_poisson_trace_validation():
    with pytest.raises(ValueError):
        poisson_trace([], 1.0, 10.0)
    with pytest.raises(ValueError):
        poisson_trace(default_short_job_mix(), 0, 10.0)


@given(st.integers(0, 10_000), st.floats(1.0, 20.0))
@settings(max_examples=20, deadline=None)
def test_property_trace_weights_only_pick_mix_members(seed, rate):
    mix = default_short_job_mix()
    names = {t.name for t in mix}
    trace = poisson_trace(mix, rate, 120.0, seed=seed)
    assert all(j.template.name in names for j in trace)


# -- trace replay --------------------------------------------------------------------

def small_trace():
    mix = [JobTemplate("scan", WORDCOUNT_PROFILE, 2, 10.0)]
    return poisson_trace(mix, rate_per_minute=2.0, duration_s=120.0, seed=3)


def sojourns(report):
    """Per-job response times (finish - arrival) from the kept rows."""
    return [row["sojourn_s"] for row in report.per_job]


def test_replay_stock_counts_all_jobs():
    trace = small_trace()
    cluster = build_stock_cluster(a3_cluster(4))
    report = replay_load(cluster, trace, STRATEGY_STOCK, keep_jobs=True)
    assert len(sojourns(report)) == len(trace)
    assert all(r > 0 for r in sojourns(report))
    assert report.killed == 0


def test_replay_mrapid_beats_stock_on_burst():
    mix = default_short_job_mix()
    trace = poisson_trace(mix, rate_per_minute=3.0, duration_s=180.0, seed=7)

    stock = build_stock_cluster(a3_cluster(4))
    stock_report = replay_load(stock, trace, STRATEGY_STOCK)

    mrapid = build_mrapid_cluster(a3_cluster(4))
    mrapid_report = replay_load(mrapid, trace, STRATEGY_SPECULATIVE)

    assert mrapid_report.sojourn.mean < stock_report.sojourn.mean


def test_replay_speculative_learns_over_trace():
    """Repeated signatures hit history: later scans skip the dual launch."""
    mix = [JobTemplate("scan", WORDCOUNT_PROFILE, 4, 10.0)]
    trace = poisson_trace(mix, rate_per_minute=1.5, duration_s=240.0, seed=2)
    assert len(trace) >= 3
    cluster = build_mrapid_cluster(a3_cluster(4))
    report = replay_load(cluster, trace, STRATEGY_SPECULATIVE, keep_jobs=True)
    winners = cluster.mrapid_framework.decision_maker.winners
    # The first non-forfeit speculative completion records the winner.
    assert winners["scan"] in ("dplus", "uplus")
    assert len(sojourns(report)) == len(trace)


def test_replay_fixed_modes():
    trace = small_trace()
    for strategy in (STRATEGY_DPLUS, STRATEGY_UPLUS):
        cluster = build_mrapid_cluster(a3_cluster(4))
        report = replay_load(cluster, trace, strategy, keep_jobs=True)
        assert len(sojourns(report)) == len(trace)


def test_replay_strategy_requires_matching_cluster():
    cluster = build_stock_cluster(a3_cluster(4))
    with pytest.raises(ValueError):
        replay_load(cluster, small_trace(), STRATEGY_UPLUS)


def test_stats_percentile_and_summary():
    """The kept rows give exact nearest-rank percentiles, and the streaming
    mean, makespan and summary agree with them."""
    trace = small_trace()
    cluster = build_stock_cluster(a3_cluster(4))
    report = replay_load(cluster, trace, STRATEGY_STOCK, keep_jobs=True)
    values = sojourns(report)
    ordered = sorted(values)
    assert report.sojourn.mean == pytest.approx(sum(values) / len(values))
    assert exact_percentile(values, 50) == ordered[(len(values) + 1) // 2 - 1]
    assert exact_percentile(values, 100) == ordered[-1]
    assert report.makespan_s == pytest.approx(
        max(row["arrival_s"] + row["sojourn_s"] for row in report.per_job),
        abs=1e-5)
    assert f"{len(trace)}/{len(trace)} jobs" in report.summary()


def test_empty_trace_replay():
    cluster = build_stock_cluster(a3_cluster(4))
    report = replay_load(cluster, [], STRATEGY_STOCK, keep_jobs=True)
    assert report.per_job == [] and report.sojourn.mean == 0.0
