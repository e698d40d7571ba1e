"""Tests for instrumentation (RingSeries/EventLog), config, and calibration."""

import pytest

from repro.calibration import calibrate_pi, calibrate_terasort, calibrate_wordcount
from repro.config import (
    INSTANCE_TYPES,
    STOCK_DPLUS,
    ClusterSpec,
    HadoopConfig,
    MRapidConfig,
    a2_cluster,
    a3_cluster,
)
from repro.simulation import EventLog
from repro.telemetry import RingSeries


# -- RingSeries ----------------------------------------------------------------

def ring(*samples, maxlen=16):
    series = RingSeries("gauge", (), maxlen)
    for t, v in samples:
        series.times.append(t)
        series.values.append(v)
    return series


def test_timeseries_step_queries():
    ts = ring((0.0, 1.0), (5.0, 3.0), (10.0, 2.0))
    assert ts.value_at_or_before(-1.0) is None
    assert ts.value_at_or_before(0.0) == 1.0
    assert ts.value_at_or_before(7.5) == 3.0
    assert ts.value_at_or_before(100.0) == 2.0
    assert max(ts.values) == 3.0
    assert len(ts) == 3


def test_timeseries_time_weighted_mean():
    ts = ring((0.0, 0.0), (10.0, 10.0))
    # 0 for 10s then 10 for 10s = mean 5 over [0, 20].
    assert ts.time_weighted_mean(until=20.0) == pytest.approx(5.0)
    # By default the mean ends at the last sample.
    assert ts.time_weighted_mean() == pytest.approx(0.0)
    # ``until`` inside the series truncates the last step that spans it.
    assert ring((0.0, 2.0), (4.0, 6.0), (8.0, 0.0)).time_weighted_mean(
        until=6.0) == pytest.approx((2.0 * 4 + 6.0 * 2) / 6)
    assert ring((3.0, 7.0)).time_weighted_mean() == 7.0
    assert ring().time_weighted_mean() == 0.0


# -- EventLog -------------------------------------------------------------------

def test_event_log_queries():
    log = EventLog()
    log.mark(1.0, "start", job="a")
    log.mark(2.0, "tick")
    log.mark(5.0, "end", job="a")
    assert log.first("start").time == 1.0
    assert log.last("end").data == {"job": "a"}
    assert log.span("start", "end") == pytest.approx(4.0)
    assert log.span("start", "missing") is None
    assert len(log.filter("tick")) == 1


# -- config validation ---------------------------------------------------------------

def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(INSTANCE_TYPES["A1"], 0)
    with pytest.raises(ValueError):
        ClusterSpec(INSTANCE_TYPES["A1"], 2, racks=3)


def test_equal_cost_clusters_match():
    assert a2_cluster(9).hourly_cost == pytest.approx(a3_cluster(4).hourly_cost)


def test_instance_memory_mb():
    assert INSTANCE_TYPES["A3"].memory_mb == 7168
    assert INSTANCE_TYPES["A2"].capability().vcores == 2


def test_hadoop_config_container_resource_scales():
    conf = HadoopConfig(containers_per_core=2)
    assert conf.container_resource().memory_mb == 512
    assert conf.effective_vcores(4) == 8
    assert HadoopConfig().container_resource().memory_mb == 1024


def test_config_with_helpers():
    conf = HadoopConfig().with_(nm_heartbeat_s=2.0)
    assert conf.nm_heartbeat_s == 2.0
    mrapid = MRapidConfig().with_(am_pool_size=5)
    assert mrapid.am_pool_size == 5


def test_stock_dplus_anchor_has_everything_off():
    assert not STOCK_DPLUS.balanced_spread
    assert not STOCK_DPLUS.use_am_pool
    assert not STOCK_DPLUS.parallel_maps
    assert not STOCK_DPLUS.reduce_communication


def test_small_cluster_helpers_clamp_racks():
    assert a3_cluster(1).racks == 1
    assert a2_cluster(2).racks == 2


# -- calibration ------------------------------------------------------------------------

def test_calibrate_wordcount_produces_sane_profile():
    report = calibrate_wordcount(sample_mb=0.1)
    assert report.workload == "wordcount"
    assert report.profile.map_cpu_s_per_mb > 0
    # The raw (pre-combine) ratio must exceed the combined ratio.
    assert report.profile.map_raw_output_ratio >= report.profile.map_output_ratio
    # Default hardware factor normalizes to the canonical 0.35 s/MB scale.
    assert report.profile.map_cpu_s_per_mb == pytest.approx(0.35, rel=0.01)


def test_calibrate_wordcount_respects_explicit_factor():
    report = calibrate_wordcount(sample_mb=0.05, hardware_factor=2.0)
    assert report.hardware_factor == 2.0
    assert report.profile.map_cpu_s_per_mb == pytest.approx(
        report.measured_map_s_per_mb * 2.0)


def test_calibrate_terasort_identity_ratios():
    report = calibrate_terasort(num_rows=2000)
    assert report.measured_output_ratio == pytest.approx(1.0)
    assert report.profile.map_output_ratio == pytest.approx(1.0)


def test_calibrate_pi_positive_cost():
    cost = calibrate_pi(samples=50_000)
    assert cost == pytest.approx(5.0e-8, rel=0.01)  # normalized default
    explicit = calibrate_pi(samples=50_000, hardware_factor=1.0)
    assert explicit > 0
