"""The identity registry: named scenarios whose output bytes must not move.

Each scenario is a function returning an :class:`Outcome`: its
*observable* bytes — reports, exports, CLI output, what the simulated
cluster did — and, kept apart, its *self-cost* bytes — what the
simulator spent doing it: the series :func:`repro.telemetry.is_self_cost`
names, and kernel counts. :func:`run_scenario` appends the kernel's event
order (class name and time of every event dispatched by every
environment the scenario builds) to the self-cost, so a simulator
speed-up moves only self-cost digests.

Three consumers loop over :data:`SCENARIOS`:

* tier-1 compares both digests of every scenario with the committed
  ``tests/snapshots/digests.json``;
* ``python -m repro.analysis --sanitize`` runs the registry twice in each
  of two child processes with different ``PYTHONHASHSEED`` values;
* ``python -m repro.analysis --sanitize-races`` requires each scenario's
  observables to survive permuted same-instant ties.

A scenario that no longer exercises the path it exists for raises
instead of returning bytes. :func:`digests` prints in the digest file's
shape, so a re-pin is one diff of that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import tempfile
from array import array
from functools import partial
from typing import Any, Callable, Generator, Iterable, NamedTuple, Sequence

from repro.cli import main as cli_main
from repro.config import (HadoopConfig, ServingConfig, TelemetryConfig,
                          TunerConfig, a3_cluster)
from repro.faults.plan import churn_plan, named_plan
from repro.simulation.core import Environment
from repro.telemetry import is_self_cost
from repro.trace import (SCHEDULER_CAPACITY, SCHEDULER_FIFO, SCHEDULER_HFSP,
                         STRATEGY_AUTO, STRATEGY_DPLUS, STRATEGY_SPECULATIVE,
                         STRATEGY_STOCK, TRACE_STRATEGIES, JobTemplate,
                         LoadReport, build_trace_cluster,
                         default_serving_mix, default_short_job_mix,
                         poisson_trace, replay_load, run_load,
                         template_baselines)
from repro.tuner import RunHistoryStore

class Outcome(NamedTuple):
    observable: bytes
    self_cost: bytes


class _EventLog:
    """Class and time of every event the watched environments dispatch,
    in order, kept as two arrays so that every tier-1 replay can afford
    it (a formatted line per event cost 3 µs)."""

    def __init__(self) -> None:
        self._codes: dict[type, int] = {}
        self._kinds = array("H")
        self._times = array("d")

    def watch(self, env: Environment) -> None:
        codes, kinds, times = self._codes, self._kinds, self._times

        def record(when: float, event: object) -> None:
            times.append(when)
            kinds.append(codes.setdefault(type(event), len(codes)))

        env.tracers.append(record)

    def digest(self) -> bytes:
        sha = hashlib.sha256(" ".join(c.__name__ for c in self._codes).encode())
        sha.update(self._kinds.tobytes())
        sha.update(self._times.tobytes())
        return sha.hexdigest().encode()


def run_scenario(name: str) -> Outcome:
    """Run registry scenario ``name``; its self-cost ends with the sha256
    of the kernel's event order."""
    events = _EventLog()
    init = Environment.__init__

    def recording_init(env: Environment, *args: Any, **kwargs: Any) -> None:
        init(env, *args, **kwargs)
        events.watch(env)

    Environment.__init__ = recording_init  # type: ignore[method-assign,assignment]
    try:
        outcome = SCENARIOS[name]()
    finally:
        Environment.__init__ = init  # type: ignore[method-assign,assignment]
    return Outcome(outcome.observable, outcome.self_cost + events.digest())


def digests(names: Iterable[str] = ()) -> dict[str, dict[str, str]]:
    """``{name: {"observable": sha256, "self_cost": sha256}}`` for
    ``names`` (default: the whole registry), the digest file's shape."""
    out: dict[str, dict[str, str]] = {}
    for name in names or sorted(SCENARIOS):
        outcome = run_scenario(name)
        out[name] = {"observable": hashlib.sha256(outcome.observable).hexdigest(),
                     "self_cost": hashlib.sha256(outcome.self_cost).hexdigest()}
    return out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"scenario no longer exercises its path: {what}")


def _json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _observed(report: LoadReport) -> Outcome:
    return Outcome(_json(report.to_dict()), b"")


def _split_jsonl(text: str) -> Outcome:
    parts: tuple[list[str], list[str]] = ([], [])
    for line in text.splitlines(keepends=True):
        parts[is_self_cost(json.loads(line)["metric"])].append(line)
    return Outcome(*("".join(part).encode() for part in parts))


def _split_openmetrics(text: str) -> Outcome:
    """Cluster-state families, then self-cost families; ``# EOF`` stays
    with the cluster state."""
    parts: tuple[list[str], list[str]] = ([], [])
    self_cost = False
    for line in text.splitlines(keepends=True):
        if line.startswith("# TYPE "):
            self_cost = is_self_cost(line.split()[2])
        elif line == "# EOF\n":
            self_cost = False
        parts[self_cost].append(line)
    return Outcome(*("".join(part).encode() for part in parts))


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _require(cli_main(argv) == 0, f"repro {' '.join(argv)} exits 0")
    return out.getvalue()


# -- replays, one per submission path ---------------------------------------

def _conf(strategy: str, **kwargs: Any) -> HadoopConfig:
    """The auto strategy learns in memory, so its replays cover the tuner's
    explore/exploit split and the observe-back of every outcome."""
    tuner = TunerConfig(history_db=":memory:") if strategy == STRATEGY_AUTO else None
    return HadoopConfig(tuner=tuner, **kwargs)


def _baselines() -> dict[str, float]:
    return template_baselines(a3_cluster(4), default_short_job_mix())


def _strategy(strategy: str) -> Outcome:
    """One fixed-strategy replay on an idle-start A3x4."""
    mix = default_short_job_mix()
    trace = poisson_trace(mix, 4.0, 180.0, seed=5)
    report = run_load(a3_cluster(4), mix, 4.0, 180.0, strategy=strategy,
                      conf=_conf(strategy), keep_jobs=True,
                      baselines=_baselines(), trace=trace)
    _require(report.jobs_completed == report.jobs_submitted == len(trace),
             "every job completes")
    return _observed(report)


def _crash(strategy: str) -> Outcome:
    """A node crash on the multi-tenant capacity scheduler: tenant-queue
    routing, and jobs the crash kills (the tuner observes a killed run as
    a failure sample)."""
    mix = default_short_job_mix()
    trace = poisson_trace(mix, 6.0, 300.0, seed=2)
    report = run_load(a3_cluster(3), mix, 6.0, 300.0, strategy=strategy,
                      scheduler=SCHEDULER_CAPACITY, conf=_conf(strategy),
                      keep_jobs=True, baselines={}, trace=trace,
                      fault_plan=named_plan("crash", 300.0))
    _require(report.killed >= 1, "the crash kills a job")
    return _observed(report)


def _gray(strategy: str) -> Outcome:
    """The gray plan: a disk slowdown, and later its restore, land while
    the victim disk has ops in flight."""
    mix = default_short_job_mix()
    trace = poisson_trace(mix, 12.0, 240.0, seed=5)
    report = run_load(a3_cluster(3), mix, 12.0, 240.0, strategy=strategy,
                      conf=_conf(strategy), keep_jobs=True,
                      baselines=_baselines(), trace=trace,
                      fault_plan=named_plan("gray", 240.0))
    _require(report.jobs_completed == report.jobs_submitted == len(trace),
             "every job completes")
    return _observed(report)


def _overload_replay(strategy: str, max_pending: int,
                     deadline_s: float = 75.0) -> LoadReport:
    serving = ServingConfig(latency_deadline_s=deadline_s, slots_per_node=1,
                            initial_guess_s=12.0, max_pending=max_pending)
    conf = _conf(strategy, am_resource_fraction=0.3, serving=serving)
    mix = default_serving_mix()
    trace = poisson_trace(mix, 20.0, 120.0, seed=3)
    return run_load(a3_cluster(3), mix, 20.0, 120.0, strategy=strategy,
                    conf=conf, keep_jobs=True, baselines=_baselines(),
                    trace=trace)


def _degraded(strategy: str) -> Outcome:
    """A serving replay at overload whose pending queue reaches the
    degradation ladder."""
    return _observed(_overload_replay(strategy, 6))


def _shed() -> Outcome:
    """A pending queue so short that latency arrivals evict batch jobs."""
    report = _overload_replay(STRATEGY_STOCK, 5, deadline_s=120.0)
    slo = report.slo
    outcomes = [row["outcome"] for row in report.per_job]
    _require(slo["shed"] > 0 and outcomes.count("shed") == slo["shed"],
             "latency arrivals shed pending batch jobs")
    _require(len(outcomes) == report.jobs_submitted
             == (report.sojourn.count + report.killed + report.failed
                 + slo["rejected"] + slo["shed"]),
             "every job has one outcome")
    return _observed(report)


def _attainment_floor() -> Outcome:
    """An autoscaled replay whose windowed attainment crosses the
    autoscaler's floor: moving the floor to 0.8 or 0.95 changes it."""
    serving = ServingConfig(latency_deadline_s=40.0, slots_per_node=2,
                            initial_guess_s=12.0, autoscale=True,
                            min_nodes=2, max_nodes=6)
    conf = HadoopConfig(am_resource_fraction=0.3, serving=serving)
    mix = default_serving_mix()
    trace = poisson_trace(mix, 25.0, 300.0, seed=3)
    report = run_load(a3_cluster(2), mix, 25.0, 300.0, conf=conf,
                      keep_jobs=True, trace=trace)
    _require(report.slo["autoscaler"]["scale_up_events"] > 0,
             "the autoscaler scales up")
    return _observed(report)


# -- learning through one history store --------------------------------------

def _shared_store_replays(mix: Sequence[JobTemplate], rate: float,
                          duration_s: float, scheduler: str = SCHEDULER_FIFO,
                          serving: ServingConfig | None = None,
                          keep_jobs: bool = False
                          ) -> tuple[list[LoadReport], Any, dict[str, Any]]:
    """Two auto replays of one trace on fresh A3x3 clusters sharing one
    SQLite history store in a fresh directory; returns both reports, the
    second cluster's RM scheduler and the store's canonical view."""
    trace = poisson_trace(mix, rate, duration_s, seed=19)
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        conf = HadoopConfig(
            tuner=TunerConfig(history_db=os.path.join(tmp, "history.db")),
            serving=serving)
        for _ in range(2):
            cluster = build_trace_cluster(a3_cluster(3), scheduler=scheduler,
                                          strategy=STRATEGY_AUTO, conf=conf,
                                          seed=7)
            reports.append(replay_load(cluster, trace, STRATEGY_AUTO,
                                       keep_jobs=keep_jobs))
        with RunHistoryStore(conf.tuner.history_db) as store:
            view = store.to_dict()
    _require(reports[1].jobs_submitted == len(trace) > 0, "jobs arrive")
    return reports, cluster.rm.scheduler, view


def _tuner_store() -> Outcome:
    """The first replay explores, the second exploits what it recorded."""
    reports, _, store = _shared_store_replays(default_short_job_mix(),
                                              10.0, 240.0)
    return Outcome(b"\n".join([*(_json(r.to_dict()) for r in reports),
                               _json(store)]), b"")


def _ring() -> Outcome:
    """At 40 jobs/min some (signature, mode) cells fill to the ring bound
    the store opens with; the view records that bound and every kept run."""
    _, _, store = _shared_store_replays(default_short_job_mix(), 40.0, 300.0)
    fullest = max(len(runs) for modes in store["runs"].values()
                  for runs in modes.values())
    _require(fullest == store["ring_size"], "a cell fills the ring")
    return Outcome(_json(store), b"")


def _warm() -> Outcome:
    """On HFSP with serving on, the second replay warm-starts HFSP's size
    training and the admission size oracle from the store."""
    reports, scheduler, store = _shared_store_replays(
        default_serving_mix(), 10.0, 240.0, scheduler=SCHEDULER_HFSP,
        serving=ServingConfig(), keep_jobs=True)
    _require(reports[1].tuner["sources"] == {"learned": reports[1].jobs_submitted},
             "the second replay decides only from what it learned")
    sizes = {name: repr((stats.count, stats.mean_s))
             for name, stats in sorted(scheduler.sizes.items())}
    return Outcome(b"\n".join([*(_json(r.to_dict()) for r in reports),
                               _json(sizes), _json(store)]), b"")


# -- CLI output ---------------------------------------------------------------

#: Every replay flag ``trace`` and ``metrics`` share, set off its default.
_SHARED_FLAGS = ["--rate", "12", "--minutes", "3", "--seed", "5",
                 "--cluster", "a2", "--am-fraction", "0.4", "--slo",
                 "--deadline", "60", "--autoscale", "6", "9",
                 "--fault-plan", "churn", "--fault-seed", "9"]

_METRICS_FLAGS = {
    "defaults": ["--minutes", "3"],
    "serving": _SHARED_FLAGS + ["--scheduler", "capacity", "--mode", "auto"],
    # A churn replay with serving on: label, family and float order in
    # the export are registration-driven, never hash-driven.
    "churn": ["--slo", "--minutes", "5", "--rate", "20",
              "--fault-plan", "churn"],
}


def _metrics(flags: str, fmt: str) -> Outcome:
    """``repro metrics`` in one export format."""
    text = _cli(["metrics", "--format", fmt] + _METRICS_FLAGS[flags])
    if fmt == "jsonl":
        return _split_jsonl(text)
    if fmt == "openmetrics":
        return _split_openmetrics(text)
    return Outcome(text.encode(), b"")


_RATE_120 = ["--rate", "120", "--minutes", "10", "--scheduler", "hfsp",
             "--mode", "speculative"]

_TRACE_JSON_FLAGS = {
    # The stock-vs-speculative comparison on its defaults.
    "defaults": ["--minutes", "3"],
    # An auto replay on HFSP with telemetry and every shared flag set.
    "serving": _SHARED_FLAGS + ["--scheduler", "hfsp", "--mode", "auto",
                                "--telemetry"],
    # About 1,200 arrivals on one long-lived cluster: the replay driver,
    # HFSP and the streaming percentiles; then under the gray plan, whose
    # disk slowdown and NIC degradation land mid-transfer.
    "rate120": _RATE_120,
    "rate120-gray": _RATE_120 + ["--fault-plan", "gray"],
}


def _trace_json(flags: str) -> Outcome:
    """``repro trace --json``."""
    return Outcome(_cli(["trace", "--json"] + _TRACE_JSON_FLAGS[flags])
                   .encode(), b"")


def _profile() -> Outcome:
    """``repro profile --workload wordcount --mode stock``: the breakdown
    file (critical-path attribution plus the tracer's counter and
    histogram snapshot), then the Perfetto trace, which repeats the
    snapshot. The kernel's dispatch count in the snapshot is self-cost, and
    a kernel series: the run stops mid-instant, so same-instant dispatch
    order moves it."""
    with tempfile.TemporaryDirectory() as tmp:
        breakdown = os.path.join(tmp, "profile.breakdown.json")
        perfetto = os.path.join(tmp, "profile.perfetto.json")
        _cli(["profile", "--workload", "wordcount", "--mode", "stock",
              "--output", perfetto, "--breakdown", breakdown])
        with open(breakdown) as b, open(perfetto) as p:
            view, trace = json.load(b), json.load(p)
    dispatched = [snapshot["counters"].pop("kernel:events_dispatched")
                  for snapshot in (view["metrics"], trace["otherData"]["metrics"])]
    return Outcome((json.dumps(view, indent=2) + json.dumps(trace, indent=1))
                   .encode(), _json({"kernel_events_dispatched": dispatched}))


def _trace_analysis_example() -> Outcome:
    """``examples/trace_analysis.py``'s printed report: utilization read
    from telemetry rings, a history-server post-mortem and a pool sweep.
    The example lives in the source checkout, not in the package."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    example = os.path.join(root, "examples", "trace_analysis.py")
    if not os.path.exists(example):
        raise FileNotFoundError(
            f"scenario example/trace-analysis runs {example}, which only a "
            f"source checkout has")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(example, run_name="__main__")
    return Outcome(out.getvalue().encode(), b"")


# -- serving, churn and scale -------------------------------------------------

def _churn_telemetry(retention: int) -> Outcome:
    """A churn + autoscaling replay at overload that fires all three of
    the burn-rate, queue-saturation and under-replication rules: both
    exports, then the report's telemetry section."""
    serving = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                            initial_guess_s=12.0, autoscale=True,
                            min_nodes=2, max_nodes=4)
    conf = HadoopConfig(am_resource_fraction=0.3, serving=serving,
                        telemetry=TelemetryConfig(retention_samples=retention))
    cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
    trace = poisson_trace(default_serving_mix(), 45.0, 300.0, seed=13)
    report = replay_load(cluster, trace, fault_plan=churn_plan(300.0))
    _require(report.telemetry["alerts_by_rule"] == {
        "hdfs_under_replication": 3, "queue_saturation": 2,
        "slo_burn_rate": 1}, "all three alert rules fire")
    telemetry: Any = cluster.env.telemetry
    jsonl = _split_jsonl(telemetry.jsonl())
    openmetrics = _split_openmetrics(telemetry.openmetrics())
    _require(bool(jsonl.self_cost and openmetrics.self_cost),
             "the exports carry self-cost series")
    return Outcome(jsonl.observable + openmetrics.observable
                   + _json(report.telemetry),
                   jsonl.self_cost + openmetrics.self_cost)


def _churn_telemetry_report() -> Outcome:
    """About 1,000 SLO-classed arrivals through admission and the 4..10
    node autoscaler under churn: the report's alert rows and windows."""
    serving = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                            initial_guess_s=12.0, autoscale=True,
                            min_nodes=4, max_nodes=10)
    conf = HadoopConfig(am_resource_fraction=0.3, serving=serving,
                        telemetry=TelemetryConfig())
    report = run_load(a3_cluster(4), default_serving_mix(), 50.0, 1200.0,
                      conf=conf, seed=5, fault_plan=churn_plan(1200.0))
    _require(bool(report.telemetry["alerts"]), "an alert fires under churn")
    return Outcome(_json(report.telemetry), b"")


def _serving_churn() -> Outcome:
    """About 30 arrivals crossing every serving path that owns a timer or
    a queue — rejection backoff, shed batch jobs, degraded dispatch, node
    crash and rejoin, provisioning, idle drains — with telemetry on. The
    same replay with telemetry off must dispatch the same events in the
    same order: the scraper adds none."""
    orders: list[_EventLog] = []
    for scraping in (None, TelemetryConfig()):
        serving = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                                initial_guess_s=12.0, autoscale=True,
                                min_nodes=3, max_nodes=6)
        conf = HadoopConfig(am_resource_fraction=0.3, serving=serving,
                            telemetry=scraping)
        cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)
        orders.append(_EventLog())
        orders[-1].watch(cluster.env)
        trace = poisson_trace(default_serving_mix(), 20.0, 90.0, seed=13)
        report = replay_load(cluster, trace, fault_plan=churn_plan(90.0))
    _require(orders[0].digest() == orders[1].digest(),
             "telemetry leaves the event order alone")
    telemetry: Any = cluster.env.telemetry
    export = _split_openmetrics(telemetry.openmetrics())
    return Outcome(_json(report.to_dict()) + export.observable,
                   export.self_cost)


def _wordcount_node_failure() -> Outcome:
    """A distributed wordcount on A3x4 with the shared fabric active; a
    non-gateway node dies mid-flight, so flow teardown order and
    re-replication target choice are on the path."""
    from repro.core.submit import build_stock_cluster, run_job
    from repro.experiments.figures import wordcount_input

    cluster = build_stock_cluster(a3_cluster(4), seed=7)
    spec = wordcount_input(4, 10.0)(cluster)
    timer = cluster.env.timeout(2.0)
    timer.callbacks.append(lambda _ev: cluster.fail_node("dn3"))
    result = run_job(cluster, spec, "distributed")
    return Outcome(_json({
        "elapsed": round(result.elapsed, 9),
        "am_overhead": round(result.am_overhead, 9),
        "tasks": sorted(
            (t.task_id, t.node_id, round(t.start_time, 9),
             round(t.finish_time, 9))
            for t in (*result.maps, *result.reduces)),
        "waves": result.num_waves,
    }), b"")


def _am_restart_queue() -> Outcome:
    """A ``batch`` wordcount on the capacity scheduler whose AM node dies
    at 7 s: the tenant queue each task grant is charged to, before and
    after the RM restarts the AM."""
    from dataclasses import replace

    from repro.core.submit import run_job
    from repro.experiments.figures import wordcount_input

    cluster = build_trace_cluster(a3_cluster(4), scheduler=SCHEDULER_CAPACITY)
    scheduler: Any = cluster.scheduler
    beat = scheduler.on_node_heartbeat
    charged: list[tuple[float, str, str]] = []

    def charging_beat(node: Any) -> Any:
        grants = beat(node)
        charged.extend((round(cluster.env.now, 9), c.node_id,
                        scheduler._granted[c.container_id]) for _, c in grants)
        return grants

    scheduler.on_node_heartbeat = charging_beat
    cluster.env.timeout(7.0).callbacks.append(lambda _: cluster.fail_node("dn3"))
    spec = replace(wordcount_input(8, 10.0)(cluster), queue="batch")
    result = run_job(cluster, spec, "distributed")
    _require(charged[-1][0] > 7.0, "the restarted AM gets task containers")
    return Outcome(_json({"finish": round(result.finish_time, 9),
                          "charged": charged}), b"")


def _am_run(mode: str, at: float = 0.0, node: str = "", **conf: Any) -> Any:
    """On a fresh A3x4, a TeraSort (8 x 32 MB) whose ``node`` dies at ``at``, or
    a skew-free wordcount (8 x 10 MB) with dn0 4x slower: task records, finish."""
    from repro.core.submit import build_cluster, run_job
    from repro.faults import FaultPlan, inject
    from repro.mapreduce import SimJobSpec
    from repro.workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE

    cluster = build_cluster(a3_cluster(4), mode, conf=HadoopConfig(**conf))
    if node:
        paths = cluster.load_input_files("/ts", 8, 32.0)
        spec = SimJobSpec("terasort", tuple(paths), TERASORT_PROFILE)
        inject(cluster, FaultPlan().crash(at, node, hdfs=node != "@job-am"))
    else:
        cluster.topology.node("dn0").cpu.set_slowdown(4.0)
        spec = SimJobSpec("wordcount",
                          tuple(cluster.load_input_files("/wc", 8, 10.0)),
                          WORDCOUNT_PROFILE.with_(compute_skew=0.0))
    result = run_job(cluster, spec, mode)
    _require(not (result.failed or result.killed), "the job completes")
    return {"finish": round(result.finish_time, 9),
            "tasks": [(t.task_id, t.node_id, round(t.start_time, 9),
                       round(t.finish_time, 9), round(t.output_mb, 9))
                      for t in (*result.maps, *result.reduces)]}


def _reran(run: Any, at: float, node: str) -> bool:
    """Some attempt starts after ``at`` off ``node``: lost work re-ran."""
    return any(start > at and where != node
               for _, where, start, _, _ in run["tasks"])


#: The distributed AM's fault branches: name -> (the runs of
#: :func:`_am_run` pinned, whether they reach the branch).
_AM_FAULTS: dict[str, tuple[Callable[[], Any], Callable[[Any], bool]]] = {
    # A finished map's output dies with its node mid-shuffle: the
    # reducer's fetch failures make the AM re-execute it.
    "am-fetch-failure/stock": (partial(_am_run, "distributed", 32.0, "dn0"),
                               partial(_reran, at=32.0, node="dn0")),
    "am-fetch-failure/dplus": (partial(_am_run, "dplus", 15.0, "dn1"),
                               partial(_reran, at=15.0, node="dn1")),
    # dn1 lost at 5.5 s (a grant on it is given back and re-asked), 12 s
    # (a map finished there before the AM heard) and 19 s (the reduce's
    # retry is preloaded with the surviving outputs).
    "am-node-loss": (
        lambda: {str(t): _am_run("distributed", t, "dn1") for t in (5.5, 12.0, 19.0)},
        lambda runs: all(_reran(run, float(t), "dn1") for t, run in runs.items())),
    # The AM node dies at 20 s: its second attempt keeps finished maps.
    "am-recovery": (partial(_am_run, "distributed", 20.0, "@job-am",
                            am_work_preserving_recovery=True),
                    lambda run: any(end < 20.0 for *_, end, _ in run["tasks"])),
    # In-job speculation: duplicates of slowed dn0's stragglers win.
    "am-speculation": (partial(_am_run, "distributed", speculative_tasks=True,
                               speculative_slowness=1.3),
                       lambda run: any("." in task for task, *_ in run["tasks"])),
}


def _am_faults(name: str) -> Outcome:
    run, reaches = _AM_FAULTS[name]
    runs = run()
    _require(reaches(runs), f"{name} reaches its fault branch")
    return Outcome(_json(runs), b"")


def _lifecycle(mode: str, pooled: bool = True) -> Outcome:
    """A traced 4 x 10 MB wordcount on A3x4 through one submit path: the
    client's upload and wait, the proxy's steps (or the RM's AM
    allocation without the pool) and the AM's opening. Spans are sorted,
    so same-instant emission order does not count."""
    from repro.config import MRapidConfig
    from repro.core.submit import build_cluster, run_job
    from repro.experiments.figures import wordcount_input
    from repro.observe.tracer import install_tracer

    cluster = build_cluster(a3_cluster(4), mode,
                            mrapid=MRapidConfig(use_am_pool=pooled))
    tracer = install_tracer(cluster)
    result = run_job(cluster, wordcount_input(4, 10.0)(cluster), mode)
    spans = sorted((s.name, s.node, s.lane, round(s.start, 9), round(s.end, 9))
                   for s in tracer.closed_spans())
    _require({"client-submit", "am-init", "wordcount"}
             <= {span[0] for span in spans}, "the job's client and AM spans")
    _require(("am-alloc-wait" in {span[0] for span in spans})
             == (not pooled or mode in ("distributed", "uber")),
             "the RM allocates the AM exactly when no pool serves the job")
    return Outcome(_json({
        "mode": result.mode,
        "times": [round(t, 9) for t in (result.submit_time,
                                        result.am_start_time,
                                        result.finish_time)],
        "spans": spans,
    }), b"")


def _scale_1k() -> Outcome:
    """A thousand phase-staggered nodes beating under a 0.25 s quantum
    share tick events: the wheel's beat heap, the armed-instant set, the
    incremental RM totals, and suspend/resume (one node crashes and
    rejoins mid-run)."""
    from repro.cluster import ResourceVector
    from repro.simcluster import SimCluster
    from repro.yarn import Application

    cluster = SimCluster(a3_cluster(1000),
                         conf=HadoopConfig(nm_heartbeat_quantum_s=0.25))
    env, rm = cluster.env, cluster.rm
    finished: list[tuple[str, float]] = []

    def uber(ctx: Any) -> Generator[Any, Any, None]:
        yield ctx.env.timeout(2.0)
        finished.append((ctx.app.app_id, round(ctx.env.now, 9)))

    def submitter() -> Generator[Any, Any, None]:
        for _ in range(10):
            rm.submit_application(Application(
                rm.next_app_id(), "scale-uber", ResourceVector(1024, 1), uber))
            yield env.timeout(0.4)

    def churn() -> Generator[Any, Any, None]:
        yield env.timeout(1.3)
        cluster.fail_node("dn37")
        yield env.timeout(2.0)
        cluster.restart_node("dn37")

    env.process(submitter())
    env.process(churn())
    env.run(until=10.0)
    used = rm.total_used()
    return Outcome(
        _json({"finished": sorted(finished),
               "heartbeats": rm.heartbeat_wheel.heartbeats_delivered,
               "used": [used.memory_mb, used.vcores]}),
        _json({"ticks": rm.heartbeat_wheel.ticks,
               "events": env.events_processed}))


def _wheel_wake(quantum: float, period: float) -> tuple[Any, int]:
    """A 200-node wheel's working beats and reads, and its tick count.

    One scripted process, so no two of its steps share an instant: work
    wakes the wheel at off-grid instants, on beat instants, and on the
    instant it fell asleep (every seventh working beat enqueues work on
    its own instant); long awake spells outlast a period; nodes are
    suspended, resumed and unregistered while awake and while asleep; a
    node registers late, with an anchor more than a period ahead when the
    quantum allows it; and the run jumps to t = 1e6 s, where
    ``anchor + k*period`` rounds. Every step reads every node."""
    from repro.simulation.events import Event
    from repro.yarn.heartbeat import HeartbeatWheel

    env = Environment()
    pending = [0]
    working: list[tuple[float, str]] = []
    reads: list[Any] = []
    wakes: list[tuple[float, bool]] = []
    nodes: list[str] = []
    gone: set[str] = set()

    def read(label: str) -> None:
        now, live = env.now, [n for n in nodes if n not in gone]
        reads.append((label, now, wheel.asleep, wheel.heartbeats_delivered,
                      wheel.beats_before(now),
                      [wheel.last_beat(n) for n in live],
                      wheel.silent_nodes(now, 1.5 * period),
                      [wheel.next_fire(n) for n in live]))

    def work(units: int) -> None:
        wakes.append((env.now, wheel.asleep))
        pending[0] += units
        wheel.wake()
        read("wake")

    def deliver(node_id: str) -> None:
        pending[0] -= 1
        working.append((env.now, node_id))
        if len(working) % 5 == 0:
            read("beat")
        if len(working) % 7 == 0:
            spawn: Any = env.timeout(0.0)
            spawn.callbacks.append(lambda _ev: work(1))

    wheel = HeartbeatWheel(env, period, deliver, quantum=quantum,
                           busy=lambda: pending[0] > 0)

    def register(node_id: str, offset: float) -> None:
        nodes.append(node_id)
        wheel.register(node_id, offset)

    for i in range(200):
        # Every fourth node repeats an earlier node's phase: cohorts at
        # quantum 0 too.
        register(f"n{i}", ((i if i % 4 else i // 4) * 0.317) % period)

    def at(t: float) -> Event:
        """An event on exactly ``t``, which ``now + (t - now)`` may miss."""
        event = Event(env)
        event._value = None
        env.schedule_at(event, t)
        return event

    def on_beat(node_id: str, ahead: int = 0) -> Event:
        """The instant of the node's beat ``ahead`` beats after its next."""
        fire = wheel.next_fire(node_id)
        if fire is None:
            raise AssertionError(f"scenario node {node_id} is suspended")
        return at(fire + ahead * period)

    def script() -> Generator[Any, Any, None]:
        yield env.timeout(0.05)
        work(3)
        for step, units in enumerate((1, 2, 1, 4, 1, 2)):
            yield env.timeout(1.37 + 0.61 * step)
            read("asleep")
            work(units)
        # Reads and a wake exactly on beat instants.
        yield on_beat("n5", 2)
        read("on-beat")
        yield on_beat("n8", 1)
        work(2)
        # Membership changes while asleep.
        yield env.timeout(2.1)
        for node_id in ("n3", "n17", "n50", "n51"):
            wheel.suspend(node_id)
        read("suspended")
        yield env.timeout(1.3)
        wheel.resume("n17")
        wheel.unregister("n120")
        gone.add("n120")
        yield env.timeout(0.9)
        work(1)
        # A long awake spell with membership changes inside it.
        yield env.timeout(3.3)
        work(600)
        for delay in (0.2, 0.35, 0.5, 0.8, 1.1, 1.6):
            yield env.timeout(delay * period)
            read("awake")
            if delay == 0.35:
                wheel.suspend("n60")
                wheel.suspend("n61")
                wheel.resume("n3")
            elif delay == 0.5:
                wheel.unregister("n99")
                gone.add("n99")
                register("n200", 0.74 * period)
            elif delay == 1.1:
                wheel.resume("n60")
        yield env.timeout(3.0 * period)
        read("drained")
        # A late registration while asleep: reads and a wake before its
        # anchor, then after it.
        yield env.timeout(5.05)
        register("n201", 0.999 * period)
        _require(wheel.anchor_of("n201") > env.now, "the anchor lies ahead")
        read("before-anchor")
        yield env.timeout(0.1)
        work(2)
        yield env.timeout(0.2)
        read("before-anchor")
        yield at(wheel.anchor_of("n201") + 1.5 * period)
        read("after-anchor")
        work(1)
        # The jump: the grid rounds at t = 1e6 s.
        yield env.timeout(1e6 - env.now + 0.123)
        read("jump")
        work(3)
        yield on_beat("n11", 1)
        read("on-beat")
        wheel.suspend("n12")
        yield on_beat("n13", 2)
        work(1)
        wheel.resume("n12")
        yield env.timeout(1.7)
        work(250)
        yield env.timeout(0.6 * period)
        wheel.suspend("n14")
        read("awake")
        yield env.timeout(1.2 * period)
        wheel.resume("n14")
        yield env.timeout(4.0 * period)
        read("drained")
        yield on_beat("n15", 3)
        read("on-beat")

    env.process(script())
    env.run()
    _require(sum(asleep for _, asleep in wakes) >= 15, "work wakes the wheel")
    _require(any(asleep and now in {t for t, _ in working}
                 for now, asleep in wakes),
             "a wake on the instant the wheel fell asleep")
    _require(wheel.asleep and pending[0] == 0, "the wheel drains and sleeps")
    return (working, reads), wheel.ticks


def _wheel_wake_cohorts() -> Outcome:
    """The heartbeat wheel's sleep and wake at quantum 0 and at 0.25."""
    runs = [_wheel_wake(0.0, 1.0), _wheel_wake(0.25, 0.75)]
    return Outcome(_json([beats for beats, _ in runs]),
                   _json({"ticks": [ticks for _, ticks in runs]}))


#: Every identity scenario, by name. The part before ``/`` groups one
#: scenario run several ways.
SCENARIOS: dict[str, Callable[[], Outcome]] = {
    **{f"strategy/{s}": partial(_strategy, s) for s in TRACE_STRATEGIES},
    **{f"crash/{s}": partial(_crash, s)
       for s in (STRATEGY_DPLUS, STRATEGY_AUTO)},
    **{f"gray/{s}": partial(_gray, s)
       for s in (STRATEGY_STOCK, STRATEGY_SPECULATIVE)},
    **{f"degraded/{s}": partial(_degraded, s)
       for s in (STRATEGY_STOCK, STRATEGY_SPECULATIVE, STRATEGY_AUTO)},
    "shed": _shed,
    "attainment-floor": _attainment_floor,
    "ring": _ring,
    "tuner-store": _tuner_store,
    "warm": _warm,
    **{f"metrics/{flags}-{fmt}": partial(_metrics, flags, fmt)
       for flags, formats in (("defaults", ("summary", "jsonl", "openmetrics")),
                              ("serving", ("summary", "jsonl", "openmetrics")),
                              ("churn", ("openmetrics",)))
       for fmt in formats},
    **{f"trace-json/{flags}": partial(_trace_json, flags)
       for flags in _TRACE_JSON_FLAGS},
    "profile": _profile,
    "example/trace-analysis": _trace_analysis_example,
    **{f"telemetry-exports/{r}": partial(_churn_telemetry, r)
       for r in (512, 200)},
    "churn-telemetry-report": _churn_telemetry_report,
    "serving-churn": _serving_churn,
    "wordcount-node-failure": _wordcount_node_failure,
    "am-restart-queue": _am_restart_queue,
    **{name: partial(_am_faults, name) for name in _AM_FAULTS},
    **{f"lifecycle/{mode}": partial(_lifecycle, mode)
       for mode in ("distributed", "uber", "dplus", "uplus")},
    **{f"lifecycle/{mode}-unpooled": partial(_lifecycle, mode, pooled=False)
       for mode in ("dplus", "uplus")},
    "scale-1k": _scale_1k,
    "wheel-wake/cohorts": _wheel_wake_cohorts,
}
