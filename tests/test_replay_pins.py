"""Digest pins for the replay loop and the CLI commands built on it.

``replay_load`` picks each job's submission path from the strategy, the
serving runtime's overload ladder and, for ``mrapid-auto``, the tuner.
The digests below pin the full ``LoadReport.to_dict()`` (per-job rows
kept) of one small replay per path, so a refactor of the loop must leave
every decision, sojourn and counter byte-identical. The CLI pins cover
``repro metrics`` in all three formats and ``repro trace --json``.
"""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest

from repro.cli import main
from repro.cluster import DiskDevice
from repro.config import HadoopConfig, ServingConfig, TunerConfig, a3_cluster
from repro.faults.plan import named_plan
from repro.serving.runtime import ServingRuntime
from repro.trace import (
    SCHEDULER_CAPACITY,
    SCHEDULER_HFSP,
    STRATEGY_AUTO,
    STRATEGY_DPLUS,
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    STRATEGY_UPLUS,
    TRACE_STRATEGIES,
    build_trace_cluster,
    default_serving_mix,
    default_short_job_mix,
    poisson_trace,
    replay_load,
    run_load,
    template_baselines,
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report):
    return _digest(json.dumps(report.to_dict(), sort_keys=True))


def _conf(strategy, **kwargs):
    """The auto strategy learns in memory, so its pins cover the tuner's
    explore/exploit split and the observe-back of every outcome."""
    tuner = TunerConfig(history_db=":memory:") if strategy == STRATEGY_AUTO else None
    return HadoopConfig(tuner=tuner, **kwargs)


@pytest.fixture(scope="module")
def baselines():
    return template_baselines(a3_cluster(4), default_short_job_mix())


@pytest.fixture
def degraded_dispatches(monkeypatch):
    """Counts the dispatches the overload ladder degraded."""
    hits = []
    degraded_mode_for = ServingRuntime.degraded_mode_for

    def counting(runtime, slo):
        degraded = degraded_mode_for(runtime, slo)
        hits.append(degraded)
        return degraded

    monkeypatch.setattr(ServingRuntime, "degraded_mode_for", counting)
    return hits


#: One fixed-strategy replay per submission path on an idle-start A3x4.
_PINNED_STRATEGIES = {
    STRATEGY_STOCK: "35d8edb2ac53703069e9db2c35e06a908da296defd5f3cc1a77ffcf19b2172e0",
    STRATEGY_DPLUS: "5a0db1da7d8d2a4ba48b47a3a56ecefeb0f749ec3c971131e67e9108317d2250",
    STRATEGY_UPLUS: "52cae5f18d9a0aae8a63356a29006df1148321e4e14e9d5cdb23acf26637946e",
    STRATEGY_SPECULATIVE:
        "5e88ab397b5239e48fc0967648643fc08c62fa26a8094bf416da70dd089d8ae5",
    STRATEGY_AUTO: "e275bc5d14f31f74c85a3555bdf6ef400e0c7088307fef0f26f8f7e4b865e6c4",
}


def test_every_strategy_is_pinned():
    assert sorted(_PINNED_STRATEGIES) == sorted(TRACE_STRATEGIES)


@pytest.mark.parametrize("strategy", sorted(_PINNED_STRATEGIES))
def test_strategy_replay_is_pinned(strategy, baselines):
    mix = default_short_job_mix()
    trace = poisson_trace(mix, 4.0, 180.0, seed=5)
    report = run_load(a3_cluster(4), mix, 4.0, 180.0, strategy=strategy,
                      conf=_conf(strategy), keep_jobs=True,
                      baselines=baselines, trace=trace)
    assert report.jobs_completed == report.jobs_submitted == len(trace)
    assert _report_digest(report) == _PINNED_STRATEGIES[strategy]


#: Replays under a node crash on the multi-tenant capacity scheduler: the
#: tenant-queue routing, and jobs the crash kills (the tuner observes the
#: killed run as a failure sample).
_PINNED_CRASH = {
    STRATEGY_DPLUS: "bc9c0436ef00ff4eb7d07e1aa8f5df4cad3c171a13cad68430f8c9b31beedaea",
    STRATEGY_AUTO: "2d288aa5e76a76c0ec5b1a7c6fb868cc5653d418897e5cabce7abd65cfe22a21",
}


@pytest.mark.parametrize("strategy", sorted(_PINNED_CRASH))
def test_crash_replay_is_pinned(strategy):
    mix = default_short_job_mix()
    trace = poisson_trace(mix, 6.0, 300.0, seed=2)
    report = run_load(a3_cluster(3), mix, 6.0, 300.0, strategy=strategy,
                      scheduler=SCHEDULER_CAPACITY, conf=_conf(strategy),
                      keep_jobs=True, baselines={}, trace=trace,
                      fault_plan=named_plan("crash", 300.0))
    assert report.killed >= 1
    assert _report_digest(report) == _PINNED_CRASH[strategy]


#: Replays under the gray plan: a disk slowdown, and later its restore,
#: land while the victim disk has ops in flight, so every in-flight op's
#: rate (and the device's wake-up timer) moves mid-transfer.
_PINNED_GRAY = {
    STRATEGY_STOCK: "d8c29dea751db27289ff9bf2e72ba54bc7cb6909da8da8bd817dad3cf57ac984",
    STRATEGY_SPECULATIVE:
        "cdc87df46fb7f368efbcdedfde7fea5813aeb3495c586b0d3205ae8bad6328f5",
}


@pytest.mark.parametrize("strategy", sorted(_PINNED_GRAY))
def test_gray_replay_is_pinned(strategy, baselines, monkeypatch):
    in_flight = []
    set_slowdown = DiskDevice.set_slowdown

    def counting(disk, factor):
        in_flight.append(disk.active_ops)
        set_slowdown(disk, factor)

    monkeypatch.setattr(DiskDevice, "set_slowdown", counting)
    mix = default_short_job_mix()
    trace = poisson_trace(mix, 12.0, 240.0, seed=5)
    report = run_load(a3_cluster(3), mix, 12.0, 240.0, strategy=strategy,
                      conf=_conf(strategy), keep_jobs=True,
                      baselines=baselines, trace=trace,
                      fault_plan=named_plan("gray", 240.0))
    assert len(in_flight) == 2 and any(in_flight)
    assert report.jobs_completed == report.jobs_submitted == len(trace)
    assert _report_digest(report) == _PINNED_GRAY[strategy]


def _overload_conf(strategy, max_pending, deadline_s=75.0):
    serving = ServingConfig(latency_deadline_s=deadline_s, slots_per_node=1,
                            initial_guess_s=12.0, max_pending=max_pending)
    return _conf(strategy, am_resource_fraction=0.3, serving=serving)


def _overload_replay(strategy, conf, baselines):
    mix = default_serving_mix()
    trace = poisson_trace(mix, 20.0, 120.0, seed=3)
    return run_load(a3_cluster(3), mix, 20.0, 120.0, strategy=strategy,
                    conf=conf, keep_jobs=True, baselines=baselines, trace=trace)


#: Serving replays at overload whose pending queue reaches the degradation
#: ladder: latency jobs forced to uber/U+, speculation and the tuner
#: suspended for the dispatch.
_PINNED_DEGRADED = {
    STRATEGY_STOCK: "bf4b65b1db4340f18ff51eacac1752fb5bb452d35f703ee5d98b030ddeb0b6f3",
    STRATEGY_SPECULATIVE:
        "db2436799d3cfd42251e2e7d6ab7c1bd9847aeaa04b37192924bc116de21a46f",
    STRATEGY_AUTO: "47d17222bc6636456ab80501d8cf467e5edcf844ae32c268e733938f95a5ba03",
}


@pytest.mark.parametrize("strategy", sorted(_PINNED_DEGRADED))
def test_degraded_serving_replay_is_pinned(strategy, baselines,
                                           degraded_dispatches):
    report = _overload_replay(strategy, _overload_conf(strategy, 6), baselines)
    assert any(degraded_dispatches) and not all(degraded_dispatches)
    assert _report_digest(report) == _PINNED_DEGRADED[strategy]


#: A serving replay whose pending queue is so short that latency arrivals
#: evict pending batch jobs.
_PINNED_SHED = "86e16ad1fbf6dd7f95a1d95bf8aa18fd631d1882075e6ac47eed1469efe15cfb"


def test_latency_arrivals_shed_pending_batch_jobs(baselines):
    conf = _overload_conf(STRATEGY_STOCK, 5, deadline_s=120.0)
    report = _overload_replay(STRATEGY_STOCK, conf, baselines)
    slo = report.slo
    assert slo["shed"] > 0
    outcomes = Counter(row["outcome"] for row in report.per_job)
    assert outcomes["shed"] == slo["shed"]
    assert sum(outcomes.values()) == report.jobs_submitted
    assert (report.sojourn.count + report.killed + report.failed
            + slo["rejected"] + slo["shed"]) == report.jobs_submitted
    assert _report_digest(report) == _PINNED_SHED


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


#: Every replay flag ``trace`` and ``metrics`` share, set off its default.
_SHARED_FLAGS = ["--rate", "12", "--minutes", "3", "--seed", "5",
                 "--cluster", "a2", "--am-fraction", "0.4", "--slo",
                 "--deadline", "60", "--autoscale", "6", "9",
                 "--fault-plan", "churn", "--fault-seed", "9"]

#: ``repro metrics`` on its defaults and with every shared flag set, one
#: digest per export format. They last moved when four telemetry series
#: (``cluster_used_vcores`` and three calendar-queue gauges) were deleted:
#: the exports lost those series, the summary's series count fell by 4.
_PINNED_METRICS = {
    ("defaults", "summary"):
        "14472558f6bf583b4a45d47f0599deadfc7c7ac995b97374c8932b09a4fa6673",
    ("defaults", "jsonl"):
        "ca15caa1d31f1180ca0f9f0ac4c262541610a8160bddc9a61117e9f817b77613",
    ("defaults", "openmetrics"):
        "687dd84fe3fb77ae15eab6a55a066bd97e9cb32212a453e097dac70495fe1a78",
    ("serving", "summary"):
        "1675ea44d7a022601314f5ee654c42a9341838c34c07f6845794a102d7c77843",
    ("serving", "jsonl"):
        "40c1e8100262773d204ef6090de54fb5e18d295e612bb995684e40d1c2716e50",
    ("serving", "openmetrics"):
        "dafe6efc584bed97736eee125eacb48baed1fc121de3f6d39c2f602e0314b7df",
}


@pytest.mark.parametrize("flags,fmt", sorted(_PINNED_METRICS))
def test_metrics_cli_output_is_pinned(flags, fmt):
    argv = ["metrics", "--format", fmt]
    argv += (["--minutes", "3"] if flags == "defaults" else
             _SHARED_FLAGS + ["--scheduler", "capacity", "--mode", "auto"])
    assert _digest(_cli(argv)) == _PINNED_METRICS[flags, fmt]


#: ``repro trace --json``: the stock-vs-speculative comparison, and an
#: auto replay on HFSP with telemetry and every shared flag set. The
#: serving digest last moved when four telemetry series were deleted
#: (the report's series count, retained samples and ring bytes).
_PINNED_TRACE_JSON = {
    "defaults": "0ec82c2efe63ab219aa2e46851e829676225b6bc4f9fa874f53e27a8086802cc",
    "serving": "d4ee853316321b592cb7ae987ca227b62b6af53ad2c49ae6bf691fe954cd9137",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_TRACE_JSON))
def test_trace_json_output_is_pinned(flags):
    argv = ["trace", "--json"]
    if flags == "defaults":
        argv += ["--minutes", "3"]
    else:
        argv += _SHARED_FLAGS + ["--scheduler", "hfsp", "--mode", "auto",
                                 "--telemetry"]
    assert _digest(_cli(argv)) == _PINNED_TRACE_JSON[flags]


@pytest.fixture
def learners(monkeypatch):
    """Captures the serving runtime and the auto picker each replay builds."""
    from repro.tuner.picker import AutoModePicker

    built = {}
    for cls, key in ((ServingRuntime, "runtime"), (AutoModePicker, "picker")):
        def capture(self, *args, _init=cls.__init__, _key=key, **kwargs):
            _init(self, *args, **kwargs)
            built[_key] = self
        monkeypatch.setattr(cls, "__init__", capture)
    return built


def _learned_state(scheduler, runtime, picker):
    """``repr`` of every learned count and estimate the replay left behind."""
    store = picker.store
    return {
        "hfsp": {name: repr((stats.count, stats.mean_s))
                 for name, stats in sorted(scheduler.sizes.items())},
        "admission": {name: repr((stats.count, stats.ewma))
                      for name, stats in sorted(runtime.controller.sizes.items())},
        "picker": {f"{sig}/{mode}": repr((stats.count, stats.ewma))
                   for sig in store.signatures()
                   for mode in picker.config.candidates
                   for stats in [store.stats(sig, mode)]},
    }


#: The second of two auto replays sharing one JSON history store, on HFSP
#: with serving on: the store warm-starts HFSP's size training and the
#: admission size oracle before the replay begins.
_PINNED_WARM = "d6bb75e574d61dc9cfd43426025dd43e4ee3a26e4686a1c9d6dd3b0296fa0c80"

_PINNED_WARM_LEARNED = {
    "hfsp": {
        "agg": "(17, 10.027405239999997)",
        "scan": "(13, 22.076329247692307)",
        "sort": "(8, 14.52808625925)",
    },
    "admission": {
        "agg": "(34, 8.171559946320098)",
        "scan": "(26, 13.130774275647692)",
        "sort": "(16, 9.665789552113106)",
    },
    "picker": {
        "agg/stock": "(1, 12.032653628)",
        "agg/dplus": "(2, 18.071)",
        "agg/uplus": "(30, 8.171558848052248)",
        "agg/uber": "(1, 11.5012492)",
        "scan/stock": "(3, 34.120214810280004)",
        "scan/dplus": "(1, 20.495)",
        "scan/uplus": "(20, 13.129995868861037)",
        "scan/uber": "(2, 35.115973698)",
        "sort/stock": "(2, 17.909698127)",
        "sort/dplus": "(1, 23.525)",
        "sort/uplus": "(12, 9.645270697569666)",
        "sort/uber": "(1, 17.129725409)",
    },
}


def test_warm_started_replay_is_pinned(tmp_path, learners):
    conf = HadoopConfig(
        tuner=TunerConfig(history_db=str(tmp_path / "history.json")),
        serving=ServingConfig())
    trace = poisson_trace(default_serving_mix(), 10.0, 240.0, seed=19)
    for _ in range(2):
        cluster = build_trace_cluster(a3_cluster(3), scheduler=SCHEDULER_HFSP,
                                      strategy=STRATEGY_AUTO, conf=conf,
                                      seed=7)
        report = replay_load(cluster, trace, STRATEGY_AUTO, keep_jobs=True)
    assert report.tuner["sources"] == {"learned": len(trace)}
    assert _report_digest(report) == _PINNED_WARM
    assert _learned_state(cluster.rm.scheduler, learners["runtime"],
                          learners["picker"]) == _PINNED_WARM_LEARNED
