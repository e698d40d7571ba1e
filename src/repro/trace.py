"""Workload traces: bursts of short jobs arriving on a shared cluster.

The paper motivates MRapid with ad-hoc query traffic (Hive/Pig stages,
§I) — many small jobs arriving continuously, not one job on an idle
cluster. This module generates deterministic Poisson arrival traces over a
job mix and replays them against one shared simulated cluster, measuring
per-job response times (sojourn = finish - arrival) under each submission
strategy. Used by the burst, load-sweep and serving experiments.

One driver, :func:`replay_load`, replays every trace: open-loop arrivals
(arrival times never depend on completions), streaming P² percentiles
instead of per-job histories (``keep_jobs=True`` adds one row per job for
exact percentiles), and aggressive cleanup (HDFS input files deleted,
finished applications forgotten by the RM, the event log bounded) so one
long-lived cluster can absorb thousands of jobs at bounded memory. Parse a
trace file with :func:`parse_trace_file` or synthesize one with
:func:`poisson_trace`, then drive it through :func:`run_load` which also
picks the RM scheduler (stock FIFO-ish CapacityScheduler, the multi-tenant
capacity scheduler, or HFSP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

import numpy as np

from .config import SLO_BATCH, SLO_CLASSES, SLO_LATENCY
from .core.ampool import MODE_DPLUS, MODE_UPLUS
from .core.speculation import SpeculativeExecutor
from .mapreduce.client import MODE_AUTO, MODE_UBER, JobClient
from .mapreduce.spec import SimJobSpec
from .metrics import StreamingSummary
from .serving.runtime import RETRY_MAX, SIGNAL_SHED, ServingRuntime
from .serving.slo import OUTCOME_SHED, SLOJob
from .workloads.base import WorkloadProfile
from .yarn.resourcemanager import JobKilled

if TYPE_CHECKING:  # pragma: no cover
    from .config import ClusterSpec, HadoopConfig
    from .faults.plan import FaultPlan
    from .simcluster import SimCluster


@dataclass(frozen=True)
class JobTemplate:
    """One entry of a job mix.

    ``slo_class``/``deadline_s`` declare the tenant SLO for the serving
    layer: ``latency`` jobs carry a relative deadline (``None`` falls back
    to ``ServingConfig.latency_deadline_s``), ``batch`` jobs have none.
    Both are inert unless ``HadoopConfig.serving`` is set.
    """

    name: str
    profile: WorkloadProfile
    num_files: int
    file_mb: float
    weight: float = 1.0
    slo_class: str = SLO_BATCH
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class TraceJob:
    """A concrete arrival in a trace.

    ``slo_override``/``deadline_override`` let a trace file pin a per-line
    SLO that differs from the template's default.
    """

    arrival_s: float
    template: JobTemplate
    index: int
    slo_override: Optional[str] = None
    deadline_override: Optional[float] = None

    @property
    def signature(self) -> str:
        return self.template.name

    @property
    def slo_class(self) -> str:
        return self.slo_override if self.slo_override is not None else self.template.slo_class

    @property
    def deadline_s(self) -> Optional[float]:
        """Relative deadline in seconds after arrival (latency class only)."""
        if self.deadline_override is not None:
            return self.deadline_override
        return self.template.deadline_s


def poisson_trace(mix: Sequence[JobTemplate], rate_per_minute: float,
                  duration_s: float, seed: int = 11) -> list[TraceJob]:
    """Deterministic Poisson arrivals over ``duration_s`` drawn from ``mix``."""
    if rate_per_minute <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    if not mix:
        raise ValueError("job mix cannot be empty")
    rng = np.random.default_rng(seed)
    weights = np.array([t.weight for t in mix], dtype=float)
    weights = weights / weights.sum()

    jobs: list[TraceJob] = []
    t = 0.0
    index = 0
    rate_per_s = rate_per_minute / 60.0
    while True:
        t += rng.exponential(1.0 / rate_per_s)
        if t >= duration_s:
            break
        template = mix[int(rng.choice(len(mix), p=weights))]
        jobs.append(TraceJob(arrival_s=round(t, 3), template=template, index=index))
        index += 1
    return jobs


STRATEGY_STOCK = "stock-auto"
STRATEGY_DPLUS = "mrapid-dplus"
STRATEGY_UPLUS = "mrapid-uplus"
STRATEGY_SPECULATIVE = "mrapid-speculative"
#: Per-job learned choice among stock/D+/U+/uber via :mod:`repro.tuner`.
STRATEGY_AUTO = "mrapid-auto"

#: The per-job submission mode each fixed strategy resolves to. Modes are
#: the tuner's candidate labels: ``stock`` and ``uber`` go through the
#: stock client, ``dplus`` and ``uplus`` through the MRapid framework, and
#: ``speculative`` through the launch-both executor.
_STRATEGY_MODES = {STRATEGY_STOCK: "stock", STRATEGY_DPLUS: "dplus",
                   STRATEGY_UPLUS: "uplus", STRATEGY_SPECULATIVE: "speculative"}
_CLIENT_MODES = {"stock": MODE_AUTO, "uber": MODE_UBER}
_FRAMEWORK_MODES = {"dplus": MODE_DPLUS, "uplus": MODE_UPLUS}


def default_short_job_mix() -> list[JobTemplate]:
    """A Hive-flavoured mix: mostly small scans, some sorts, tiny aggs."""
    from .workloads.base import TERASORT_PROFILE, WORDCOUNT_PROFILE

    return [
        JobTemplate("scan", WORDCOUNT_PROFILE, num_files=4, file_mb=10.0, weight=5),
        JobTemplate("agg", WORDCOUNT_PROFILE, num_files=1, file_mb=8.0, weight=3),
        JobTemplate("sort", TERASORT_PROFILE, num_files=4, file_mb=12.0, weight=2),
    ]


def default_serving_mix() -> list[JobTemplate]:
    """The short-job mix with SLO classes: interactive queries are
    ``latency`` tenants (deadline from ``ServingConfig``), sorts are
    ``batch`` and absorb any load shedding."""
    return [t if t.name == "sort"
            else JobTemplate(t.name, t.profile, t.num_files, t.file_mb,
                             weight=t.weight, slo_class=SLO_LATENCY)
            for t in default_short_job_mix()]


def _parse_slo_token(token: str, lineno: int) -> tuple[str, Optional[float]]:
    """``latency``, ``batch``, or ``latency:<deadline_s>``."""
    name, _, deadline = token.partition(":")
    if name not in SLO_CLASSES:
        raise ValueError(f"trace line {lineno}: expected SLO "
                         f"'latency[:deadline_s]' or 'batch', got {token!r}")
    if not deadline:
        return name, None
    if name != SLO_LATENCY:
        raise ValueError(f"trace line {lineno}: expected no deadline on a "
                         f"batch job, got {token!r}")
    value = float(deadline)
    if value <= 0:
        raise ValueError(f"trace line {lineno}: deadline must be positive")
    return name, value


def parse_trace_file(text: str, mix: Sequence[JobTemplate]) -> list[TraceJob]:
    """Parse a replay trace: ``<arrival_s> <template_name> [slo]`` per line.

    Blank lines and ``#`` comments are skipped. Arrivals must be
    non-decreasing so the file is replayable open-loop; template names must
    exist in ``mix``. The optional third token pins the job's SLO class —
    ``batch``, ``latency``, or ``latency:30`` (relative deadline seconds) —
    overriding the template default. Returns :class:`TraceJob` entries
    indexed in file order.
    """
    by_name = {t.name: t for t in mix}
    jobs: list[TraceJob] = []
    last = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"trace line {lineno}: expected "
                             f"'<arrival_s> <template> [slo]'")
        arrival = float(parts[0])
        if arrival < last:
            raise ValueError(f"trace line {lineno}: arrivals must be non-decreasing")
        template = by_name.get(parts[1])
        if template is None:
            raise ValueError(f"trace line {lineno}: unknown template {parts[1]!r} "
                             f"(known: {sorted(by_name)})")
        slo_override = deadline_override = None
        if len(parts) == 3:
            slo_override, deadline_override = _parse_slo_token(parts[2], lineno)
        jobs.append(TraceJob(arrival_s=arrival, template=template, index=len(jobs),
                             slo_override=slo_override,
                             deadline_override=deadline_override))
        last = arrival
    return jobs


# -- heavy-traffic replay ------------------------------------------------------

SCHEDULER_FIFO = "fifo"
SCHEDULER_CAPACITY = "capacity"
SCHEDULER_HFSP = "hfsp"
TRACE_SCHEDULERS = (SCHEDULER_FIFO, SCHEDULER_CAPACITY, SCHEDULER_HFSP)
TRACE_STRATEGIES = (STRATEGY_STOCK, STRATEGY_DPLUS, STRATEGY_UPLUS,
                    STRATEGY_SPECULATIVE, STRATEGY_AUTO)

def _make_trace_scheduler(name: str):
    from .yarn.hfsp import HFSPScheduler
    from .yarn.queues import MultiTenantCapacityScheduler, QueueConfig
    from .yarn.scheduler import CapacityScheduler

    if name == SCHEDULER_FIFO:
        return CapacityScheduler()
    if name == SCHEDULER_CAPACITY:
        return MultiTenantCapacityScheduler([
            QueueConfig("adhoc", fraction=0.7, max_fraction=1.0),
            QueueConfig("batch", fraction=0.3, max_fraction=1.0),
        ])
    if name == SCHEDULER_HFSP:
        return HFSPScheduler(memory_only=True)
    raise ValueError(f"unknown trace scheduler {name!r}; use one of {TRACE_SCHEDULERS}")


def default_queue_of(template_name: str) -> str:
    """Tenant-queue routing for the capacity scheduler: sorts are 'batch'."""
    return "batch" if template_name == "sort" else "adhoc"


def build_trace_cluster(spec: "ClusterSpec", scheduler: str = SCHEDULER_FIFO,
                        strategy: str = STRATEGY_STOCK,
                        conf: Optional["HadoopConfig"] = None,
                        seed: int = 7) -> "SimCluster":
    """A long-lived cluster for trace replay: any scheduler × any strategy.

    Unlike :func:`repro.core.submit.build_mrapid_cluster` (which hardwires
    the D+ scheduler), this crosses the RM scheduler axis with the
    submission-path axis: MRapid strategies get a
    :class:`~repro.core.ampool.SubmissionFramework` attached whatever
    scheduler is installed, so HFSP-under-MRapid is a valid cell of the
    load-sweep matrix.
    """
    from .config import MRapidConfig
    from .core.ampool import SubmissionFramework
    from .simcluster import SimCluster

    cluster = SimCluster(spec, conf=conf, scheduler=_make_trace_scheduler(scheduler),
                         seed=seed)
    if strategy != STRATEGY_STOCK:
        cluster.mrapid_framework = SubmissionFramework(  # type: ignore[attr-defined]
            cluster, MRapidConfig())
    return cluster


def template_baselines(spec: "ClusterSpec", mix: Sequence[JobTemplate],
                       conf: Optional["HadoopConfig"] = None,
                       seed: int = 7) -> dict[str, float]:
    """Idle-cluster service time per template (the slowdown denominator).

    Always measured on the stock scheduler/stock path so slowdowns are
    comparable across every scheduler × strategy cell of a sweep.
    """
    baselines: dict[str, float] = {}
    for template in mix:
        cluster = build_trace_cluster(spec, conf=conf, seed=seed)
        paths = cluster.load_input_files(f"/baseline/{template.name}",
                                         template.num_files, template.file_mb)
        job_spec = SimJobSpec(template.name, tuple(paths), template.profile,
                              signature=template.name)
        result = JobClient(cluster).run(job_spec, MODE_AUTO)
        baselines[template.name] = result.elapsed
    return baselines


@dataclass
class LoadReport:
    """Streaming-aggregate outcome of one heavy-traffic replay.

    Deliberately holds no per-job lists unless ``keep_jobs`` was requested:
    sojourn/slowdown/queue-depth distributions live in O(1)-memory
    :class:`~repro.metrics.StreamingSummary` accumulators so a replay of
    thousands of jobs costs the same RSS as a replay of ten.
    """

    strategy: str
    scheduler: str = ""
    rate_per_minute: float = 0.0
    duration_s: float = 0.0
    jobs_submitted: int = 0
    jobs_completed: int = 0
    killed: int = 0
    failed: int = 0
    makespan_s: float = 0.0
    sojourn: StreamingSummary = field(default_factory=StreamingSummary)
    slowdown: StreamingSummary = field(default_factory=StreamingSummary)
    queue_depth: StreamingSummary = field(default_factory=StreamingSummary)
    peak_in_flight: int = 0
    #: Mode decisions actually taken, e.g. {"hadoop-uber": 41, ...}.
    decisions: dict[str, int] = field(default_factory=dict)
    #: Per-job rows, only populated when ``keep_jobs=True``.
    per_job: list[dict] = field(default_factory=list)
    #: Serving-mode section (SLO attainment, admission/autoscaler counters);
    #: empty — and absent from :meth:`to_dict` — unless the replay ran with
    #: ``HadoopConfig.serving`` set.
    slo: dict = field(default_factory=dict)
    #: Telemetry section (scrape stats, fired alerts, per-window series);
    #: empty — and absent from :meth:`to_dict` — unless the replay ran with
    #: ``HadoopConfig.telemetry`` set.
    telemetry: dict = field(default_factory=dict)
    #: Tuner section (decision provenance counts, store size); empty — and
    #: absent from :meth:`to_dict` — unless the replay ran ``STRATEGY_AUTO``.
    tuner: dict = field(default_factory=dict)

    def to_dict(self, digits: int = 6) -> dict:
        """JSON-stable dict (used by the CLI and the determinism checks)."""
        out = {
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "rate_per_minute": round(self.rate_per_minute, digits),
            "duration_s": round(self.duration_s, digits),
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "killed": self.killed,
            "failed": self.failed,
            "makespan_s": round(self.makespan_s, digits),
            "peak_in_flight": self.peak_in_flight,
            "sojourn": self.sojourn.to_dict(digits),
            "slowdown": self.slowdown.to_dict(digits),
            "queue_depth": self.queue_depth.to_dict(digits),
            "decisions": {k: self.decisions[k] for k in sorted(self.decisions)},
        }
        if self.slo:
            out["slo"] = self.slo
        if self.telemetry:
            out["telemetry"] = self.telemetry
        if self.tuner:
            out["tuner"] = self.tuner
        if self.per_job:
            out["jobs"] = self.per_job
        return out

    def summary(self) -> str:
        line = (f"{self.scheduler or 'fifo'}/{self.strategy}: "
                f"{self.jobs_completed}/{self.jobs_submitted} jobs, "
                f"sojourn mean {self.sojourn.mean:.1f}s "
                f"p95 {self.sojourn.p95:.1f}s p99 {self.sojourn.p99:.1f}s, "
                f"peak in-flight {self.peak_in_flight}")
        if self.slo:
            att = self.slo.get("attainment", {})
            line += (f", SLO attainment {att.get('fraction', 1.0):.1%}"
                     f" ({att.get('hits', 0)}/{att.get('total', 0)})"
                     f", rejected {self.slo.get('rejected', 0)}"
                     f" shed {self.slo.get('shed', 0)}")
        if self.telemetry:
            line += (f", telemetry {self.telemetry.get('scrapes', 0)} scrapes"
                     f"/{self.telemetry.get('alerts_fired', 0)} alerts")
        if self.tuner:
            srcs = self.tuner.get("sources", {})
            line += (", tuner " + "/".join(f"{k}:{srcs[k]}" for k in sorted(srcs))
                     + (" (learning)" if self.tuner.get("learning") else ""))
        return line


def replay_load(cluster: "SimCluster", trace: Sequence[TraceJob],
                strategy: str = STRATEGY_STOCK, *,
                baselines: Optional[dict[str, float]] = None,
                keep_jobs: bool = False,
                queue_of: Optional[Callable[[str], str]] = None,
                fault_plan: Optional["FaultPlan"] = None) -> LoadReport:
    """Open-loop replay of ``trace`` on one long-lived cluster.

    Arrivals are driven by a single generator clocked purely off the trace
    (never off completions), so offered load is independent of how far the
    cluster falls behind. Per-job state is discarded as jobs finish: input
    files are deleted from HDFS, the RM forgets terminal applications, and
    the shared event log is bounded, keeping peak RSS flat in trace length.
    Metrics stream into :class:`LoadReport`; ``keep_jobs=True`` also keeps
    one row per job (with ``sojourn_s`` for every success), from which
    :func:`repro.metrics.exact_percentile` gives exact percentiles.

    Each job resolves one submission mode (``stock``, ``uber``,
    ``speculative``, ``dplus`` or ``uplus``) from the strategy, the serving
    overload ladder or, for ``mrapid-auto``, the tuner, then submits
    through the one path that mode names.

    ``baselines`` (template name -> idle service time) enables slowdown
    accounting; ``queue_of`` routes templates to tenant queues when the
    cluster runs the multi-tenant scheduler; ``fault_plan`` injects node
    churn/gray failures into the replay (jobs whose AMs die terminally are
    counted ``failed``, never crash the run).

    When ``cluster.conf.serving`` is set, the replay runs through
    :class:`~repro.serving.runtime.ServingRuntime`: arrivals pass admission
    (with retry-with-backoff on rejection), wait for a dispatch slot, may be
    shed while pending, submit in degraded modes under overload, and settle
    their deadline on completion. The report gains a ``slo`` section.
    """
    env = cluster.env
    framework = getattr(cluster, "mrapid_framework", None)
    if strategy != STRATEGY_STOCK and framework is None:
        raise ValueError("MRapid strategies need a cluster with a SubmissionFramework "
                         "(build_trace_cluster or build_mrapid_cluster)")
    client = JobClient(cluster)
    executor = SpeculativeExecutor(framework) if framework is not None else None
    picker = history = None
    if strategy == STRATEGY_AUTO:
        from .config import TunerConfig
        from .tuner import (AutoModePicker, RunHistoryStore,
                            record_from_result, template_inputs)
        tuner_conf = (cluster.conf.tuner if cluster.conf.tuner is not None
                      else TunerConfig())
        history = (RunHistoryStore(tuner_conf.history_db)
                   if tuner_conf.history_db else None)
        picker = AutoModePicker(history, tuner_conf)
    serving = cluster.conf.serving
    runtime = ServingRuntime(cluster, serving) if serving is not None else None
    telemetry = None
    if cluster.conf.telemetry is not None:
        from .telemetry import install_telemetry
        telemetry = install_telemetry(cluster, cluster.conf.telemetry)
        if runtime is not None:
            telemetry.attach_serving(runtime)
    report = LoadReport(strategy=strategy, jobs_submitted=len(trace))
    if not trace:
        return report
    if fault_plan is not None and len(fault_plan):
        from .faults.injector import inject
        inject(cluster, fault_plan)
    if history is not None and len(history):
        # Durable history warm-starts the sibling learners: HFSP's size
        # training and the serving admission size estimates skip their
        # cold start for signatures a previous replay measured.
        sizes = getattr(cluster.rm.scheduler, "sizes", None)
        if sizes is not None:
            history.warm(sizes)
        if runtime is not None:
            history.warm(runtime.controller.sizes)

    cluster.rm.retain_finished_apps = False
    tracer = env.tracer

    in_flight = 0
    completed = 0
    all_submitted = False
    done = env.event()

    def note_depth() -> None:
        report.queue_depth.add(float(in_flight))
        report.peak_in_flight = max(report.peak_in_flight, in_flight)

    def resolve_mode(job: TraceJob, slo: Optional[SLOJob], degraded: bool) -> str:
        """The job's submission mode, decided before anything is submitted."""
        if degraded:
            # Overload ladder: latency jobs straight to uber or U+ (no
            # sizing detour), batch jobs to stock or D+ (speculation and
            # the tuner suspended — no duplicate AMs under pressure).
            if strategy == STRATEGY_STOCK:
                return "uber" if slo.is_latency else "stock"
            return "uplus" if slo.is_latency else "dplus"
        if strategy == STRATEGY_AUTO:
            # Per-job learned choice: Eq. 1–3 while cold, history once the
            # store has trained this signature.
            inputs = template_inputs(cluster, job.template.num_files,
                                     job.template.file_mb, job.template.profile)
            return picker.decide(job.signature, inputs).mode
        return _STRATEGY_MODES[strategy]

    def one_job(job: TraceJob) -> Generator:
        nonlocal in_flight, completed
        slo = runtime.resolve(job) if runtime is not None else None
        paths: list[str] = []
        outputs: list[str] = []
        result = None
        decision = "killed"
        outcome: Optional[str] = None
        dispatched = False

        def record_row(label: Optional[str], sojourn: Optional[float] = None) -> None:
            if not keep_jobs:
                return
            row: dict = {"index": job.index, "name": job.template.name,
                         "arrival_s": round(job.arrival_s, 6)}
            if sojourn is not None:
                row["sojourn_s"] = round(sojourn, 6)
                row["decision"] = decision
            if runtime is not None:
                row["slo_class"] = slo.slo_class
                row["outcome"] = label
            if sojourn is not None or runtime is not None:
                report.per_job.append(row)

        try:
            if runtime is not None:
                attempt = 0
                while True:
                    admit = runtime.offer(slo)
                    if admit.admitted:
                        break
                    if attempt >= RETRY_MAX:
                        outcome = decision = runtime.record_rejection(admit)
                        record_row(outcome)
                        return
                    yield env.timeout(runtime.retry_delay_s(attempt))
                    attempt += 1
                    runtime.record_retry()
                signal = yield from runtime.wait_dispatch(slo)
                if signal == SIGNAL_SHED:
                    outcome = decision = OUTCOME_SHED
                    record_row(outcome)
                    return
                dispatched = True
            dispatched_at = env.now
            paths = cluster.load_input_files(
                f"/trace/{job.index:05d}", job.template.num_files, job.template.file_mb)
            # The job's arrival sequence, set once for every submit path: the
            # admission controller's dispatch ticket, so that jobs dispatched
            # at one instant rank in its EDF order, else the trace index;
            # never kernel tie-break order.
            ticket = runtime.dispatch_ticket(slo) if runtime is not None else None
            spec = SimJobSpec(job.template.name, tuple(paths), job.template.profile,
                              signature=job.signature,
                              seq=job.index if ticket is None else ticket)
            degraded = runtime is not None and runtime.degraded_mode_for(slo)
            learned = strategy == STRATEGY_AUTO and not degraded
            mode = resolve_mode(job, slo, degraded)
            if learned:
                decision = f"auto-{mode}"
            try:
                if mode in _CLIENT_MODES:
                    queue = queue_of(job.template.name) if queue_of is not None else None
                    result = yield client.submit(spec, _CLIENT_MODES[mode],
                                                 queue=queue)
                elif mode == "speculative":
                    spec_outcome = yield executor.submit(spec)
                    result = spec_outcome.winner
                    if spec_outcome.loser is not None:
                        outputs.append(f"/out/{spec_outcome.loser.app_id}")
                else:
                    result = yield framework.submit(spec, _FRAMEWORK_MODES[mode]).proc
                if not learned:
                    decision = result.mode
            except JobKilled:
                report.killed += 1
                outcome = "killed"
            except Exception:
                # Under a fault plan an AM can die terminally (attempts
                # exhausted); the submission future re-raises. One dead job
                # must not kill a thousand-job replay.
                report.failed += 1
                outcome = "failed"
            sojourn = env.now - job.arrival_s
            if result is not None:
                if result.killed:
                    report.killed += 1
                    outcome = "killed"
                elif result.failed:
                    report.failed += 1
                    outcome = "failed"
            success = (result is not None
                       and not result.killed and not result.failed)
            if learned:
                # Feed the outcome back into the store — killed/failed runs
                # are recorded too (so the ring reflects reality) but never
                # count toward training (the estimator uses successes only).
                if result is not None:
                    picker.observe_record(record_from_result(
                        result, job.signature, mode,
                        input_mb=job.template.num_files * job.template.file_mb,
                        finished_at=env.now))
                else:
                    picker.observe(job.signature, mode,
                                   max(0.0, env.now - dispatched_at),
                                   outcome=outcome or "failed",
                                   finished_at=env.now)
            if success:
                if runtime is not None:
                    outcome = runtime.job_finished(slo, env.now - dispatched_at)
                report.sojourn.add(sojourn)
                baseline = (baselines or {}).get(job.template.name, 0.0)
                if baseline > 0:
                    report.slowdown.add(sojourn / baseline)
                report.decisions[decision] = report.decisions.get(decision, 0) + 1
                record_row(outcome, sojourn)
            else:
                if runtime is not None:
                    if dispatched:
                        runtime.job_aborted(slo)
                    record_row(outcome)
            if tracer is not None:
                from .observe.tracer import CLUSTER
                tracer.complete(job.template.name, "trace-job", CLUSTER,
                                f"trace:{job.template.name}", job.arrival_s,
                                index=job.index, decision=decision,
                                sojourn_s=round(sojourn, 6))
        finally:
            if result is not None:
                outputs.append(f"/out/{result.app_id}")
            for path in paths + outputs:
                if cluster.namenode.exists(path):
                    cluster.namenode.delete(path)
            in_flight -= 1
            note_depth()
            completed += 1
            report.jobs_completed = completed
            if all_submitted and completed == len(trace) and not done.triggered:
                done.succeed(None)

    def arrivals() -> Generator:
        nonlocal in_flight, all_submitted
        for job in trace:
            delay = job.arrival_s - env.now
            if delay > 0:
                yield env.timeout(delay)
            in_flight += 1
            note_depth()
            env.process(one_job(job), name=f"trace-{job.index}")
        all_submitted = True
        if completed == len(trace) and not done.triggered:
            done.succeed(None)

    env.process(arrivals(), name="trace-arrivals")
    env.run(until=done)
    report.makespan_s = env.now
    if runtime is not None:
        runtime.finish(report.makespan_s)
        report.slo = runtime.summary()
    if telemetry is not None:
        telemetry.finish()
        report.telemetry = telemetry.report_section()
    if picker is not None:
        report.tuner = picker.report()
        if history is not None:
            history.close()
    return report


def run_load(spec: "ClusterSpec", mix: Sequence[JobTemplate],
             rate_per_minute: float, duration_s: float, *,
             scheduler: str = SCHEDULER_FIFO, strategy: str = STRATEGY_STOCK,
             conf: Optional["HadoopConfig"] = None, seed: int = 11,
             keep_jobs: bool = False,
             baselines: Optional[dict[str, float]] = None,
             trace: Optional[Sequence[TraceJob]] = None,
             fault_plan: Optional["FaultPlan"] = None) -> LoadReport:
    """Generate (or accept) a trace and replay it on a fresh cluster.

    The one-call entry point the CLI and the load sweep use: picks the RM
    scheduler, attaches the MRapid framework when the strategy needs it,
    measures idle-cluster baselines for slowdowns (on a pristine cluster —
    faults only apply to the replay itself), and streams the replay through
    :func:`replay_load`.
    """
    if strategy not in TRACE_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {TRACE_STRATEGIES}")
    if trace is None:
        trace = poisson_trace(mix, rate_per_minute, duration_s, seed=seed)
    if baselines is None:
        baselines = template_baselines(spec, mix, conf=conf)
    cluster = build_trace_cluster(spec, scheduler=scheduler, strategy=strategy,
                                  conf=conf)
    queue_of = default_queue_of if scheduler == SCHEDULER_CAPACITY else None
    report = replay_load(cluster, trace, strategy, baselines=baselines,
                         keep_jobs=keep_jobs, queue_of=queue_of,
                         fault_plan=fault_plan)
    report.scheduler = scheduler
    report.rate_per_minute = rate_per_minute
    report.duration_s = duration_s
    return report
