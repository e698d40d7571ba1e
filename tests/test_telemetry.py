"""Telemetry subsystem: instruments, scraper, OpenMetrics, alert rules."""

import hashlib
import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (HadoopConfig, ServingConfig, TelemetryConfig,
                          a3_cluster)
from repro.core import build_mrapid_cluster, build_stock_cluster, run_short_job
from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
from repro.metrics import exact_percentile
from repro.observe import install_tracer
from repro.simulation import Environment
from repro.telemetry import (AlertEngine, BurnRateRule, HeartbeatStalenessRule,
                             QueueSaturationRule, RingSeries, Scraper,
                             TelemetryRegistry, UnderReplicationRule,
                             install_telemetry, parse_openmetrics,
                             render_jsonl, render_openmetrics)
from repro.telemetry.instruments import DEFAULT_BUCKETS, Histogram
from repro.trace import (build_trace_cluster, default_serving_mix,
                         poisson_trace, replay_load, run_load)
from repro.workloads import WORDCOUNT_PROFILE


# -- instruments ---------------------------------------------------------------

def test_counter_rejects_decrease():
    reg = TelemetryRegistry()
    c = reg.counter("jobs", "completed jobs")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_pull_instruments_read_at_access_time():
    reg = TelemetryRegistry()
    state = {"n": 0}
    c = reg.counter("events", "events", fn=lambda: state["n"])
    g = reg.gauge("depth", "queue depth", fn=lambda: state["n"] * 2)
    state["n"] = 7
    assert c.value == 7
    assert g.value == 14


def test_registry_rejects_duplicates_and_kind_conflicts():
    reg = TelemetryRegistry()
    reg.counter("x", "first")
    with pytest.raises(ValueError):
        reg.counter("x", "again")
    with pytest.raises(ValueError):
        reg.gauge("x", "as gauge")
    # Same name with different labels is a new series, not a duplicate.
    reg.counter("x", "labeled", labels={"rack": "r1"})


def test_histogram_bounds_must_increase():
    with pytest.raises(ValueError):
        Histogram("h", "bad", bounds=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("h", "bad", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", "empty", bounds=())


def test_histogram_cumulative_rows_end_with_inf():
    h = Histogram("h", "x", bounds=(1.0, 10.0))
    for v in (0.5, 0.7, 5.0, 99.0):
        h.observe(v)
    rows = h.cumulative()
    assert rows == [(1.0, 2), (10.0, 3), (math.inf, 4)]
    assert h.count == 4
    assert h.sum == pytest.approx(105.2)


def test_histogram_quantile_within_one_bucket_of_exact():
    """Differential bound: bucket interpolation errs by <= one bucket width."""
    import random

    rng = random.Random(42)
    values = [rng.uniform(0.001, 250.0) for _ in range(500)]
    h = Histogram("lat", "latency", bounds=DEFAULT_BUCKETS)
    for v in values:
        h.observe(v)
    for q in (10.0, 50.0, 90.0, 99.0):
        exact = exact_percentile(values, q)
        est = h.quantile(q)
        i = bisect_left(DEFAULT_BUCKETS, exact)
        lo = DEFAULT_BUCKETS[i - 1] if i > 0 else min(values)
        hi = DEFAULT_BUCKETS[i] if i < len(DEFAULT_BUCKETS) else max(values)
        assert abs(est - exact) <= (hi - lo) + 1e-9, (
            f"p{q}: estimate {est} vs exact {exact}, bucket ({lo}, {hi}]")


def test_histogram_quantile_clamped_to_observed_range():
    h = Histogram("h", "x", bounds=(10.0, 100.0))
    h.observe(40.0)
    h.observe(60.0)
    assert h.quantile(0.0) >= 40.0
    assert h.quantile(100.0) <= 60.0


# -- scraper -------------------------------------------------------------------

def _ticking_env(total_s: float, step_s: float = 0.3):
    env = Environment()

    def proc(env):
        while env.now < total_s:
            yield env.timeout(step_s)

    env.process(proc(env))
    return env


def test_scraper_samples_on_simulated_grid():
    env = _ticking_env(10.0)
    reg = TelemetryRegistry()
    reg.counter("events", "kernel events", fn=lambda: env.events_processed)
    scraper = Scraper(env, reg, interval_s=1.0, retention=64)
    scraper.install()
    env.run()
    ring = scraper.series("events")
    # Timestamps sit exactly on the multiplicative grid k * interval.
    for t in ring.times:
        assert t == pytest.approx(round(t))
    values = list(ring.values)
    assert values == sorted(values), "pull counter must be monotonic"
    assert scraper.scrapes_done == len(ring)


def test_scraper_skips_forward_across_idle_gaps():
    env = Environment()

    def proc(env):
        yield env.timeout(0.5)
        yield env.timeout(100.0)  # idle gap >> catchup budget
        yield env.timeout(0.5)

    env.process(proc(env))
    reg = TelemetryRegistry()
    reg.counter("events", "x", fn=lambda: env.events_processed)
    scraper = Scraper(env, reg, interval_s=1.0, retention=256,
                      catchup_limit=4)
    scraper.install()
    env.run()
    assert scraper.samples_skipped > 0
    ring = scraper.series("events")
    for t in ring.times:  # grid alignment survives the skip
        assert t == pytest.approx(round(t))


def test_ring_retention_is_bounded():
    env = _ticking_env(100.0, step_s=0.1)
    reg = TelemetryRegistry()
    reg.counter("events", "x", fn=lambda: env.events_processed)
    scraper = Scraper(env, reg, interval_s=0.5, retention=16)
    scraper.install()
    env.run()
    ring = scraper.series("events")
    assert len(ring) == 16
    assert scraper.scrapes_done > 16


def _scan_at_or_before(times, values, t):
    """The linear scan ``RingSeries.value_at_or_before`` used to run."""
    result = None
    for ts, v in zip(times, values):
        if ts > t:
            break
        result = v
    return result


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.integers(min_value=0, max_value=4), max_size=40),
       maxlen=st.integers(min_value=1, max_value=12),
       probes=st.lists(st.floats(min_value=-5.0, max_value=30.0,
                                 allow_nan=False), max_size=8),
       n=st.integers(min_value=1, max_value=16))
def test_ring_reads_match_the_linear_scan(gaps, maxlen, probes, n):
    """Differential: the bisecting window lookup and the last-N read equal
    a scan of the ring from its oldest sample, before and after eviction,
    for ``t`` before the first stamp, on a stamp, between and past the
    last. Stamps never decrease (a zero gap repeats one)."""
    ring = RingSeries("x", (), maxlen)
    t = 0.0
    for i, gap in enumerate(gaps):
        t += gap * 0.5
        ring.times.append(t)
        ring.values.append(float(i))
    times, values = list(ring.times), list(ring.values)
    queries = list(probes)
    if times:
        queries += times + [times[0] - 1.0, times[-1] + 1.0,
                            (times[0] + times[-1]) / 2]
    for q in queries:
        assert ring.value_at_or_before(q) == _scan_at_or_before(
            times, values, q), q
    assert ring.last_values(n) == values[-n:]


def test_instruments_registered_after_install_join_the_next_scrape():
    """``attach_serving`` registers after ``install()``: late instruments
    get rings from the next scrape on, in registration order, after the
    ones already scraped."""
    env = _ticking_env(6.0)
    reg = TelemetryRegistry()
    reg.counter("events", "x", fn=lambda: env.events_processed)
    scraper = Scraper(env, reg, interval_s=1.0, retention=64)
    scraper.install()
    env.run(until=2.5)  # scrapes at 1 and 2
    reg.gauge("late_b", "b", labels={"k": "v"}, fn=lambda: 2.0)
    reg.gauge("late_a", "a", fn=lambda: 1.0)
    assert scraper.series("late_a") is None
    env.run()
    assert [(r.name, r.labels) for r in scraper.all_series()] == [
        ("events", ()), ("late_b", (("k", "v"),)), ("late_a", ())]
    events = list(scraper.series("events").times)
    assert events[:2] == [1.0, 2.0]
    for name, labels, value in (("late_b", {"k": "v"}, 2.0),
                                ("late_a", {}, 1.0)):
        ring = scraper.series(name, labels)
        assert list(ring.times) == events[2:]
        assert set(ring.values) == {value}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=40.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=24))
def test_scraping_never_perturbs_event_order(delays):
    """The scraper piggybacks on pops: zero events added, order unchanged."""

    def run(with_scraper: bool):
        env = Environment()
        order = []
        env.tracers.append(
            lambda when, ev: order.append((type(ev).__name__, when)))
        if with_scraper:
            reg = TelemetryRegistry()
            reg.counter("events", "x", fn=lambda: env.events_processed)
            Scraper(env, reg, interval_s=0.7, retention=32).install()

        def proc(env, ds):
            for d in ds:
                yield env.timeout(d)

        for lane in range(3):
            env.process(proc(env, delays[lane::3]))
        env.run()
        return order, env.events_processed

    assert run(False) == run(True)


# -- OpenMetrics ---------------------------------------------------------------

def _sample_registry() -> TelemetryRegistry:
    reg = TelemetryRegistry()
    c = reg.counter("jobs", "Jobs completed.", labels={"rack": "r1"})
    c.inc(5)
    c2 = reg.counter("jobs", "Jobs completed.", labels={"rack": "r2"})
    c2.inc(3)
    g = reg.gauge("queue_depth", "Pending entries.")
    g.set(7)
    h = reg.histogram("wait", "Queue wait.", unit="seconds",
                      bounds=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 30.0):
        h.observe(v)
    return reg


def test_openmetrics_round_trip():
    text = render_openmetrics(_sample_registry())
    assert text.endswith("# EOF\n")
    families = parse_openmetrics(text)
    assert families["jobs"].kind == "counter"
    jobs = families["jobs"].samples
    assert ("jobs_total", {"rack": "r1"}, 5.0) in jobs
    assert ("jobs_total", {"rack": "r2"}, 3.0) in jobs
    assert families["queue_depth"].samples[0][2] == 7.0
    wait = families["wait"]
    assert wait.unit == "seconds"
    buckets = [s for s in wait.samples if s[0] == "wait_bucket"]
    # Cumulative counts: 1 under 0.1, 3 under 1.0, 3 under 10.0, 4 at +Inf.
    assert [s[2] for s in buckets] == [1.0, 3.0, 3.0, 4.0]
    assert [s[1]["le"] for s in buckets] == ["0.1", "1", "10", "+Inf"]
    count = [s for s in wait.samples if s[0] == "wait_count"][0]
    assert count[2] == 4.0


def test_openmetrics_label_escaping_round_trips():
    reg = TelemetryRegistry()
    nasty = 'back\\slash "quote"\nnewline'
    c = reg.counter("weird", "Help with a \\ backslash.",
                    labels={"k": nasty})
    c.inc()
    text = render_openmetrics(reg)
    assert "\\\\" in text and '\\"' in text and "\\n" in text
    families = parse_openmetrics(text)
    sample = families["weird"].samples[0]
    assert sample[1] == {"k": nasty}
    assert sample[2] == 1.0
    assert families["weird"].help == "Help with a \\ backslash."


def test_openmetrics_parser_is_strict():
    with pytest.raises(ValueError):
        parse_openmetrics("# TYPE x counter\nx_total 1\n")  # no EOF
    with pytest.raises(ValueError):
        parse_openmetrics("# EOF\ntrailing 1\n")  # content after EOF
    with pytest.raises(ValueError):
        parse_openmetrics("orphan 1\n# EOF\n")  # sample before TYPE


def test_jsonl_export_one_object_per_sample():
    env = _ticking_env(5.0)
    reg = TelemetryRegistry()
    reg.counter("events", "x", fn=lambda: env.events_processed)
    scraper = Scraper(env, reg, interval_s=1.0, retention=64)
    scraper.install()
    env.run()

    lines = render_jsonl(scraper).strip().splitlines()
    assert len(lines) == scraper.retained_samples()
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"metric", "labels", "t", "value"}


# -- burn-rate alerting --------------------------------------------------------

def _burn_fixture():
    """Scraper fed by hand so window deltas are exactly computable."""
    env = Environment()
    reg = TelemetryRegistry()
    met = reg.counter("serving_deadline_met", "met")
    missed = reg.counter("serving_deadline_missed", "missed")
    scraper = Scraper(env, reg, interval_s=10.0, retention=128)
    return env, met, missed, scraper


def test_burn_rate_hand_computed_windows():
    _env, met, missed, scraper = _burn_fixture()
    # slo_target 0.9 -> budget 0.1; burn = (missed/total) / 0.1
    rule = BurnRateRule(0.9, fast_window_s=30.0, slow_window_s=90.0,
                        threshold=2.0)
    scraper.sample(10.0)            # met 0, missed 0
    met.inc(8)
    missed.inc(2)
    scraper.sample(20.0)            # +8 met, +2 missed
    # Window [-10, 20] clips to run start with a zero baseline:
    # error fraction 2/10 = 0.2 -> burn 2.0.
    assert rule.burn_rate(20.0, scraper, 30.0) == pytest.approx(2.0)
    met.inc(10)
    scraper.sample(30.0)            # +10 met, +0 missed
    # Fast window [0, 30]: missed 2 of 20 -> burn 1.0.
    assert rule.burn_rate(30.0, scraper, 30.0) == pytest.approx(1.0)
    # Slow window [-60, 30] -> same totals (zero baseline): burn 1.0.
    assert rule.burn_rate(30.0, scraper, 90.0) == pytest.approx(1.0)
    met.inc(1)
    missed.inc(9)
    scraper.sample(40.0)            # +1 met, +9 missed
    # Fast [10, 40]: met 19-0=19... baseline at t<=10 is the sample at 10
    # (met 0, missed 0): delta met 19, missed 11 -> 11/30 -> burn ~3.67.
    assert rule.burn_rate(40.0, scraper, 30.0) == pytest.approx(
        (11 / 30) / 0.1)
    firing, value, _msg = rule.check(40.0, scraper)
    slow = rule.burn_rate(40.0, scraper, 90.0)
    assert firing == (slow >= 2.0)  # both windows must agree
    assert value == pytest.approx(min((11 / 30) / 0.1, slow))


def test_burn_rate_requires_both_windows():
    _env, met, missed, scraper = _burn_fixture()
    rule = BurnRateRule(0.9, fast_window_s=10.0, slow_window_s=1000.0,
                        threshold=2.0)
    met.inc(90)
    scraper.sample(10.0)
    missed.inc(10)
    scraper.sample(20.0)
    # Fast window burns hot (10/10 errors), slow window is diluted by the
    # 90 early successes (10/100 = budget rate exactly, burn 1.0).
    assert rule.burn_rate(20.0, scraper, 10.0) == pytest.approx(10.0)
    assert rule.burn_rate(20.0, scraper, 1000.0) == pytest.approx(1.0)
    firing, _value, _msg = rule.check(20.0, scraper)
    assert not firing


def test_retention_must_cover_the_slow_burn_window():
    """Regression: a ring too short for the slow burn window evicts the
    window's baseline, and the zero-baseline rule then reads the whole run
    as the window. With defaults but ``retention_samples=100`` (99 s of
    history for a 180 s window), a run that missed every deadline for its
    first 200 s and met every one after read a 5.0x slow burn rate at
    t=400 instead of 0. Such a config is now refused."""
    with pytest.raises(ValueError, match="slow burn-rate window"):
        TelemetryConfig(retention_samples=100)
    with pytest.raises(ValueError):
        TelemetryConfig(retention_samples=181)  # 179 s < 180 s
    with pytest.raises(ValueError):
        TelemetryConfig(scrape_interval_s=0.25)  # 127.5 s of history
    TelemetryConfig(retention_samples=182)  # exactly 180 s
    TelemetryConfig(retention_samples=100, alerts=False)
    TelemetryConfig(retention_samples=100, burn_slow_window_s=90.0)


def test_burn_rate_at_shortest_accepted_retention_matches_full_history():
    """At the shortest retention the config accepts, both burn windows
    equal a computation over the unevicted history at every scrape,
    including the closing off-grid sample — misses for 200 s, hits, then
    misses for the last 15 s."""
    conf = TelemetryConfig(retention_samples=182)
    env = Environment()
    reg = TelemetryRegistry()
    met = reg.counter("serving_deadline_met", "met")
    missed = reg.counter("serving_deadline_missed", "missed")
    scraper = Scraper(env, reg, interval_s=conf.scrape_interval_s,
                      retention=conf.retention_samples)
    rule = BurnRateRule(conf.slo_target, conf.burn_fast_window_s,
                        conf.burn_slow_window_s, conf.burn_threshold)
    history = []

    def exact(t, window):
        base = (0.0, 0.0)
        for ts, m, x in history:
            if ts <= t - window:
                base = (m, x)
        now = history[-1]
        d_met, d_missed = now[1] - base[0], now[2] - base[1]
        total = d_met + d_missed
        return (d_missed / total) / (1 - conf.slo_target) if total else 0.0

    stamps = [float(k) for k in range(1, 416)] + [415.5]
    for t in stamps:
        if t <= 200 or 400 < t <= 415:
            missed.inc()
        elif t <= 400:
            met.inc()
        scraper.sample(t)
        history.append((t, met.value, missed.value))
        for window in (conf.burn_fast_window_s, conf.burn_slow_window_s):
            assert rule.burn_rate(t, scraper, window) == pytest.approx(
                exact(t, window)), (t, window)
    assert len(scraper.series("serving_deadline_met")) == 182


def test_alert_engine_edge_triggers_and_resolves():
    env, met, missed, scraper = _burn_fixture()
    rule = BurnRateRule(0.9, fast_window_s=20.0, slow_window_s=20.0,
                        threshold=2.0)
    engine = AlertEngine(env, scraper, [rule])
    met.inc(10)
    scraper.sample(10.0)            # healthy
    missed.inc(10)
    scraper.sample(20.0)            # burning
    scraper.sample(30.0)            # still burning -> same alert row
    met.inc(50)
    scraper.sample(40.0)            # recovered -> resolve
    assert len(engine.alerts) == 1
    alert = engine.alerts[0]
    assert alert.rule == "slo_burn_rate"
    assert alert.at_s == 20.0
    assert alert.resolved_at_s == 40.0


def test_queue_saturation_requires_consecutive_scrapes():
    env = Environment()
    reg = TelemetryRegistry()
    depth = reg.gauge("serving_pending_jobs", "pending")
    scraper = Scraper(env, reg, interval_s=1.0, retention=32)
    rule = QueueSaturationRule(max_pending=10, fraction=0.9, samples=3)
    engine = AlertEngine(env, scraper, [rule])
    for t, v in ((1.0, 9), (2.0, 10), (3.0, 5), (4.0, 9), (5.0, 10),
                 (6.0, 10)):
        depth.set(v)
        scraper.sample(t)
    # Dips at t=3 reset the streak; only 4..6 sustains three scrapes.
    assert [a.at_s for a in engine.alerts] == [6.0]


def test_each_rule_fires_holds_and_resolves_with_exact_rows():
    """All four rules on one hand-fed scraper, each through fire, hold and
    resolve: the alert rows carry the values and messages of the firing
    scrape and the instant of the resolving one."""
    env = Environment()
    reg = TelemetryRegistry()
    met = reg.counter("serving_deadline_met", "met")
    missed = reg.counter("serving_deadline_missed", "missed")
    pending = reg.gauge("serving_pending_jobs", "pending")
    stale = reg.gauge("nodes_heartbeat_stale", "stale")
    under = reg.gauge("hdfs_under_replicated_blocks", "under")
    scraper = Scraper(env, reg, interval_s=1.0, retention=64)
    engine = AlertEngine(env, scraper, [
        BurnRateRule(0.5, fast_window_s=2.0, slow_window_s=4.0,
                     threshold=1.5),
        QueueSaturationRule(max_pending=8, fraction=0.75, samples=2),
        HeartbeatStalenessRule(),
        UnderReplicationRule(samples=2)])
    # t: (met +, missed +, pending, stale, under-replicated)
    timeline = {1.0: (4, 0, 2, 0, 0), 2.0: (0, 4, 6, 0, 3),
                3.0: (0, 8, 7, 0, 0), 4.0: (0, 0, 8, 2, 5),
                5.0: (96, 0, 2, 1, 4), 6.0: (0, 0, 2, 0, 4),
                7.0: (0, 0, 2, 0, 0), 8.0: (0, 0, 2, 0, 0)}
    for t, (d_met, d_missed, depth, silent, blocks) in timeline.items():
        met.inc(d_met)
        missed.inc(d_missed)
        pending.set(depth)
        stale.set(silent)
        under.set(blocks)
        scraper.sample(t)
    rows = [(a.rule, a.severity, a.at_s, a.value, a.message, a.resolved_at_s)
            for a in engine.alerts]
    assert rows == [
        # Fast window [1, 3]: 12 of 12 missed, burn 2.0; slow window
        # [-1, 3]: 12 of 16, burn 1.5. The value is the smaller.
        ("slo_burn_rate", "critical", 3.0, 1.5,
         "SLO error budget burning 2.0x over 2s and 1.5x over 4s "
         "(threshold 1.5x)", 5.0),
        ("queue_saturation", "warning", 3.0, 0.875,
         "admission queue at 88% of max_pending=8 for 2 scrapes", 5.0),
        ("heartbeat_staleness", "warning", 4.0, 2.0,
         "2 node(s) heartbeat-stale", 6.0),
        ("hdfs_under_replication", "warning", 5.0, 4.0,
         "4 under-replicated block(s) for 2 scrapes", 7.0)]
    assert engine.evaluations == len(timeline)


# -- integration: replay, report, export ---------------------------------------

def _serving_conf(telemetry=None, **kwargs) -> HadoopConfig:
    serving = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                            initial_guess_s=12.0, **kwargs)
    return HadoopConfig(am_resource_fraction=0.3, serving=serving,
                        telemetry=telemetry)


def test_replay_with_telemetry_keeps_event_order_and_reports():
    def run(telemetry):
        conf = _serving_conf(telemetry=telemetry)
        cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
        order = []
        cluster.env.tracers.append(
            lambda when, ev: order.append((type(ev).__name__, when)))
        trace = poisson_trace(default_serving_mix(), 15.0, 60.0, seed=13)
        report = replay_load(cluster, trace)
        return order, report, cluster

    plain_order, plain_report, _ = run(None)
    tel_order, tel_report, cluster = run(TelemetryConfig())
    assert plain_order == tel_order
    assert not plain_report.telemetry
    assert "telemetry" not in plain_report.to_dict()
    section = tel_report.telemetry
    assert section["scrapes"] > 0
    assert section["series"] > 30
    assert "alerts_fired" in section
    assert "serving_pending_jobs" in section["windows"]
    # Every counter ring is monotonic across scrapes.
    telemetry = cluster.env.telemetry
    for instrument in telemetry.registry:
        if instrument.kind != "counter":
            continue
        ring = telemetry.series(instrument.name, dict(instrument.labels))
        values = list(ring.values)
        assert values == sorted(values), instrument.name
    # The OpenMetrics export of the finished run parses cleanly.
    families = parse_openmetrics(telemetry.openmetrics())
    assert len(families) > 20


def test_scraped_series_do_not_depend_on_event_density():
    """Regression: the node probe keyed its refresh cadence and its
    heartbeat-staleness check on the time of the event that triggered a
    scrape rather than on the scrape's grid timestamp, so an event that
    changes nothing could still move a sample (cluster CPU utilization,
    stale-node count). A chain of no-op timeouts must leave every scraped
    series byte-identical — all but the kernel's own gauges, which count
    those events. The catch-up budget is lifted so that both runs sample
    every grid point: skipping across idle gaps is a separate, documented
    trade."""
    from repro.faults.plan import churn_plan

    def run(noop_every):
        conf = _serving_conf(
            telemetry=TelemetryConfig(catchup_limit=1_000_000),
            autoscale=True, min_nodes=2, max_nodes=5)
        cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
        if noop_every is not None:
            def noop(env):
                while True:
                    yield env.timeout(noop_every)

            cluster.env.process(noop(cluster.env))
        trace = poisson_trace(default_serving_mix(), 15.0, 150.0, seed=13)
        report = replay_load(cluster, trace, fault_plan=churn_plan(150.0))
        scraper = cluster.env.telemetry.scraper
        series = {(ring.name, ring.labels): (list(ring.times), list(ring.values))
                  for ring in scraper.all_series()
                  if not ring.name.startswith("kernel_")}
        return report.to_dict(), series

    plain_report, plain = run(None)
    dense_report, dense = run(0.37)
    assert dense_report == plain_report
    assert dense.keys() == plain.keys()
    for key, value in plain.items():
        assert dense[key] == value, key


def test_burn_rate_fires_before_attainment_loss_static_overload():
    """Figure S1 static arm: the alert is a leading indicator.

    Under static provisioning at an overload rate the burn-rate alert
    must fire while cumulative attainment is still >= the SLO target —
    i.e. strictly before the run's attainment is lost. Regression-gated:
    if alerting lags the failure it is useless for paging.
    """
    conf = _serving_conf(telemetry=TelemetryConfig(),
                         admission=False, degradation=False)
    cluster = build_trace_cluster(a3_cluster(4), conf=conf, seed=5)
    trace = poisson_trace(default_serving_mix(), 30.0, 300.0, seed=5)
    report = replay_load(cluster, trace)
    telemetry = cluster.env.telemetry

    att = report.slo["attainment"]["fraction"]
    assert att < 0.9, f"scenario must overload the static arm, got {att:.3f}"
    alert = telemetry.engine.first("slo_burn_rate")
    assert alert is not None, "burn-rate alert never fired under overload"
    ring = telemetry.series("serving_attainment_cumulative")
    lost_at = None
    for t, v in zip(ring.times, ring.values):
        if v < telemetry.config.slo_target:
            lost_at = t
            break
    assert lost_at is not None, "cumulative attainment never dropped"
    assert alert.at_s < lost_at, (
        f"burn-rate alert at {alert.at_s:.0f}s did not lead attainment "
        f"loss at {lost_at:.0f}s")


def test_trace_export_merges_counter_tracks():
    from repro.observe.export import to_trace_events, validate_trace_events
    from repro.observe.tracer import install_tracer

    conf = _serving_conf(telemetry=TelemetryConfig())
    cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
    tracer = install_tracer(cluster)
    trace = poisson_trace(default_serving_mix(), 15.0, 45.0, seed=13)
    replay_load(cluster, trace)
    telemetry = cluster.env.telemetry

    obj = to_trace_events(tracer, trace_name="t", telemetry=telemetry)
    assert validate_trace_events(obj) == []
    counters = [e for e in obj["traceEvents"] if e["ph"] == "C"]
    assert counters, "no counter track events emitted"
    pids = {e["pid"] for e in counters}
    assert len(pids) == 1
    names = {e["args"]["name"] for e in obj["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "telemetry" in names


def test_finish_releases_kernel_sampler_slot():
    """Regression: ``Telemetry.finish()`` used to leave ``env.sampler``
    occupied forever (the MR203 paired-resource leak — install() without
    any uninstall() path), so no sampler could ever attach to the
    environment again after a replay."""
    conf = _serving_conf(telemetry=TelemetryConfig())
    cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
    trace = poisson_trace(default_serving_mix(), 15.0, 30.0, seed=13)
    replay_load(cluster, trace)  # calls telemetry.finish()

    telemetry = cluster.env.telemetry
    assert telemetry is not None, "post-run exports must stay reachable"
    assert cluster.env.sampler is None, "finish() must release the slot"
    assert parse_openmetrics(telemetry.openmetrics())
    # The freed slot is genuinely reusable.
    scraper = Scraper(cluster.env, TelemetryRegistry(),
                      interval_s=1.0, retention=8)
    scraper.install()
    scraper.uninstall()


def test_run_until_inf_with_telemetry_takes_no_sample_at_inf():
    """The stop entry at ``inf`` crosses an unbounded scrape gap: the
    scraper samples the first ``catchup_limit`` grid points of it and then
    stops, and the closing scrape does not stamp a sample at ``inf``."""
    cluster = build_stock_cluster(a3_cluster(2))
    telemetry = install_telemetry(cluster, TelemetryConfig())
    spec = SimJobSpec("wc", tuple(cluster.load_input_files("/wc", 2, 10.0)),
                      WORDCOUNT_PROFILE)
    done = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    cluster.env.run(until=float("inf"))
    assert done.triggered
    telemetry.finish()
    kernel_events = telemetry.series("kernel_events")
    assert all(math.isfinite(t) for t in kernel_events.times)
    assert len(kernel_events) == telemetry.scraper.scrapes_done
    assert cluster.env.sampler is None


def test_dplus_grants_feed_the_grant_delay_histogram():
    """D+ grants go through ``SchedulerBase._grant`` like stock ones, so
    every grant the tracer counts is also a ``scheduler_grant_delay``
    observation."""
    cluster = build_mrapid_cluster(a3_cluster(4))
    telemetry = install_telemetry(cluster, TelemetryConfig())
    tracer = install_tracer(cluster)
    spec = SimJobSpec("wc", tuple(cluster.load_input_files("/wc", 8, 10.0)),
                      WORDCOUNT_PROFILE)
    run_short_job(cluster, spec, "dplus")
    grants = tracer.metrics.counter("scheduler:grants")
    assert grants > 0
    assert telemetry.grant_delay.count == grants


def test_run_load_records_scheduler_histograms():
    conf = _serving_conf(telemetry=TelemetryConfig())
    report = run_load(a3_cluster(3), default_serving_mix(), 15.0, 60.0,
                      conf=conf, seed=7)
    assert report.telemetry["scrapes"] > 0
    assert ", telemetry" in report.summary()


def _is_self_cost(name):
    """The simulator's own cost series: kernel events dispatched, the
    event heap's size and the heartbeat wheel's ticks. They measure
    how much work the simulator did, not the simulated cluster, so they
    move whenever the simulator skips work it can prove changes nothing."""
    return name.startswith("kernel_") or name == "rm_wheel_ticks"


def _split_jsonl(text):
    """(cluster-state lines, self-cost lines) of a JSONL export."""
    parts = ([], [])
    for line in text.splitlines(keepends=True):
        parts[_is_self_cost(json.loads(line)["metric"])].append(line)
    return tuple("".join(part) for part in parts)


def _split_openmetrics(text):
    """(cluster-state families, self-cost families) of an OpenMetrics
    export; ``# EOF`` stays with the cluster state."""
    parts = ([], [])
    self_cost = False
    for line in text.splitlines(keepends=True):
        if line.startswith("# TYPE "):
            self_cost = _is_self_cost(line.split()[2])
        elif line == "# EOF\n":
            self_cost = False
        parts[self_cost].append(line)
    return tuple("".join(part) for part in parts)


#: sha256 of the cluster-state part of (JSONL, OpenMetrics) and of
#: ``LoadReport.telemetry`` for the churn serving replay below, by ring
#: retention. The values predate the bisecting ring reads, the pre-bound
#: scrape loop, the direct kernel-queue gauges, the RM's per-rack
#: liveness counts and the AM-limit-aware heartbeat sleep; each of those
#: must leave every cluster-state series byte-identical. They last moved
#: when ``cluster_used_vcores`` was deleted (it repeated ``rm_vcores_used``
#: at probe cadence); every other series kept its bytes, and the report's
#: ``series``/``retained_samples``/``ring_bytes`` shrank by the four
#: deleted series. At 200 samples the rings evict long before the run's
#: 378 scrapes end.
_PINNED_EXPORTS = {
    512: ("c0800d1884374acdde156042a35c7c20535e77a9e207774f6a1f1d9bc580e893",
          "325b3fe52fee47961b531d585021f4ea914b7ce1e3058f9fe34b264fe68ede3f",
          "b6361bce909788816a510f57d09daebd278b6c9f4b792f24800c81952c8b8848"),
    200: ("95133beda540f70a8485fe8bbe7716764cc47e0564da47b95abc216d16cea5d5",
          "325b3fe52fee47961b531d585021f4ea914b7ce1e3058f9fe34b264fe68ede3f",
          "77290b26b6dca81e794a65f09ec436dfe05fb260d7dfe4b06353faf17198be72"),
}

#: sha256 of the self-cost part of (JSONL, OpenMetrics), pinned apart so
#: a simulator speed-up re-pins only these. They last moved when the three
#: calendar-queue gauges (occupied buckets, max bucket depth, cancelled
#: outstanding) were deleted and ``kernel_queue_pending``'s help text came
#: to name the event heap; ``kernel_events``, ``kernel_queue_pending`` and
#: ``rm_wheel_ticks`` kept every sample.
_PINNED_SELF_COST = {
    512: ("d58ef0a43b56368605203f587e26887e3c32acdd4e89f2703bc87703eb714dee",
          "9c3c2983495880b58f1cf81ceabdfff3ec118ed12a30e396e7a1b9d805f557a7"),
    200: ("4e0b506c844eecf7472cedd146363fc0ffdbe86d30b3f0662e4c661582cfbf96",
          "9c3c2983495880b58f1cf81ceabdfff3ec118ed12a30e396e7a1b9d805f557a7"),
}


@pytest.mark.parametrize("retention", sorted(_PINNED_EXPORTS))
def test_churn_serving_exports_are_pinned(retention):
    """A churn + autoscaling replay at overload that fires all three of
    the burn-rate, queue-saturation and under-replication rules."""
    from repro.faults.plan import churn_plan

    conf = _serving_conf(
        telemetry=TelemetryConfig(retention_samples=retention),
        autoscale=True, min_nodes=2, max_nodes=4)
    cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
    trace = poisson_trace(default_serving_mix(), 45.0, 300.0, seed=13)
    report = replay_load(cluster, trace, fault_plan=churn_plan(300.0))
    telemetry = cluster.env.telemetry
    assert report.telemetry["alerts_by_rule"] == {
        "hdfs_under_replication": 3, "queue_saturation": 2,
        "slo_burn_rate": 1}

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    jsonl_state, jsonl_cost = _split_jsonl(render_jsonl(telemetry.scraper))
    om_state, om_cost = _split_openmetrics(
        render_openmetrics(telemetry.registry))
    assert jsonl_cost and om_cost
    assert (digest(jsonl_state), digest(om_state),
            digest(json.dumps(report.telemetry, sort_keys=True))
            ) == _PINNED_EXPORTS[retention]
    assert (digest(jsonl_cost), digest(om_cost)
            ) == _PINNED_SELF_COST[retention]
