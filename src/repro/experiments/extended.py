"""Extended experiments beyond the paper's evaluation.

The paper measures isolated jobs on an idle cluster. These experiments use
the same substrates to answer the follow-up questions a practitioner asks:
behaviour under *bursty* traffic (the actual §I motivation), measured
scheduling imbalance, multi-tenant fairness, straggler mitigation, and
multi-stage query plans. Registered separately from the paper's figures so
EXPERIMENTS.md stays a faithful paper-vs-measured report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..config import HadoopConfig, TelemetryConfig, a3_cluster
from ..core import build_mrapid_cluster, build_stock_cluster, run_job
from ..core.chain import ChainStage, run_chain
from ..core.submit import submit
from ..mapreduce import SimJobSpec
from ..metrics import exact_percentile
from ..trace import (
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    default_short_job_mix,
    poisson_trace,
    replay_load,
)
from ..workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE
from .figures import wordcount_input
from .harness import FigureResult, Series

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster


def figureE1_burst_response_percentiles() -> FigureResult:
    """Response-time percentiles under a 3-jobs/min ad-hoc burst."""
    trace = poisson_trace(default_short_job_mix(), rate_per_minute=3.0,
                          duration_s=300.0, seed=13)
    runs = {"stock-auto": (build_stock_cluster, STRATEGY_STOCK),
            "MRapid-speculative": (build_mrapid_cluster, STRATEGY_SPECULATIVE)}
    series = {}
    for label, (build, strategy) in runs.items():
        report = replay_load(build(a3_cluster(4)), trace, strategy, keep_jobs=True)
        sojourns = [row["sojourn_s"] for row in report.per_job]
        series[label] = Series(label)
        for q in (50, 75, 90, 95, 100):
            series[label].add(q, exact_percentile(sojourns, q))
    return FigureResult(
        "Figure E1", "ad-hoc burst: response-time percentiles", "percentile",
        series,
        notes=(f"{len(trace)} Poisson arrivals over 5 min on the A3x4 cluster. "
               "HDFS placement is seeded per input path: since this figure "
               "moved to replay_load, whose inputs are /trace/NNNNN instead "
               "of the retired closed-loop driver's /trace/NNNN, stock p75-p100 "
               "and MRapid p90-p100 differ from earlier reports (4-digit names "
               "reproduce the old table exactly)"),
    )


def _mean_cpu_imbalance(cluster: SimCluster,
                        run: Callable[[SimCluster], object]) -> float:
    """Time-weighted mean of telemetry's ``cluster_cpu_imbalance`` ring
    over ``run(cluster)``, sampled every 0.5 simulated seconds."""
    # Imported here, not at module top: ``repro report`` imports this
    # module at start-up and only this figure needs telemetry.
    from ..telemetry import install_telemetry

    telemetry = install_telemetry(cluster, TelemetryConfig(
        scrape_interval_s=0.5, node_probe_interval_s=0.5, alerts=False))
    run(cluster)
    telemetry.finish()
    return telemetry.series("cluster_cpu_imbalance").time_weighted_mean()


def figureE2_scheduling_imbalance() -> FigureResult:
    """Measured CPU imbalance (max-min node utilization) stock vs D+."""
    series = {"Hadoop-Distributed": Series("Hadoop-Distributed"),
              "MRapid-D+": Series("MRapid-D+")}
    for n_files in (4, 8, 16):
        job = wordcount_input(n_files, 10.0)
        series["Hadoop-Distributed"].add(n_files, _mean_cpu_imbalance(
            build_stock_cluster(a3_cluster(4)),
            lambda c: run_job(c, job(c), "distributed")))
        series["MRapid-D+"].add(n_files, _mean_cpu_imbalance(
            build_mrapid_cluster(a3_cluster(4)),
            lambda c: run_job(c, job(c), "dplus")))
    return FigureResult(
        "Figure E2", "scheduling imbalance index (mean max-min node CPU)",
        "#files", series,
        notes="quantifies the paper's Figure-2 'squeezed vs idle' claim",
    )


def figureE3_multitenant_fairness() -> FigureResult:
    """A small ad-hoc tenant sharing with a big batch tenant.

    Compares the ad-hoc tenant's job time when it is guaranteed 25% via a
    queue vs fighting in a single FIFO queue with the batch job.
    """
    from ..yarn import MultiTenantCapacityScheduler, QueueConfig
    from ..simcluster import SimCluster

    def run_shared(multitenant: bool) -> float:
        if multitenant:
            scheduler = MultiTenantCapacityScheduler(
                [QueueConfig("batch", 0.75), QueueConfig("adhoc", 0.25)])
            cluster = SimCluster(a3_cluster(4), scheduler=scheduler)
        else:
            cluster = build_stock_cluster(a3_cluster(4))
            scheduler = None
        # Big enough to saturate the cluster for several waves (memory-only
        # packing admits ~26 concurrent containers on A3x4).
        batch_paths = cluster.load_input_files("/batch", 48, 10.0)
        batch = SimJobSpec("batch", tuple(batch_paths), TERASORT_PROFILE,
                           queue="batch" if multitenant else None)
        adhoc_paths = cluster.load_input_files("/adhoc", 2, 10.0)
        adhoc = SimJobSpec("adhoc", tuple(adhoc_paths), WORDCOUNT_PROFILE,
                           queue="adhoc" if multitenant else None)

        p_batch = submit(cluster, batch, "distributed")

        def late_adhoc(env):
            yield env.timeout(3.0)
            proc = submit(cluster, adhoc, "distributed")
            result = yield proc
            return result

        adhoc_proc = cluster.env.process(late_adhoc(cluster.env))
        cluster.env.run(until=cluster.env.all_of([p_batch, adhoc_proc]))
        return adhoc_proc.value.elapsed

    series = {"ad-hoc job time": Series("ad-hoc job time")}
    series["ad-hoc job time"].add("single FIFO queue", run_shared(False))
    series["ad-hoc job time"].add("25% guaranteed queue", run_shared(True))
    return FigureResult(
        "Figure E3", "multi-tenant fairness for a short ad-hoc job", "setup",
        series,
        notes="the short job arrives 3 s after a 48-map batch job",
    )


def figureE4_straggler_mitigation() -> FigureResult:
    """In-job speculation vs a progressively slower noisy-neighbour node."""
    series = {"no task speculation": Series("no task speculation"),
              "task speculation on": Series("task speculation on")}
    for slowdown in (1.0, 2.0, 4.0, 8.0):
        for speculative, name in ((False, "no task speculation"),
                                  (True, "task speculation on")):
            conf = HadoopConfig(speculative_tasks=speculative,
                                speculative_slowness=1.3)
            cluster = build_stock_cluster(a3_cluster(4), conf=conf)
            slow = cluster.topology.node("dn0")
            slow.cpu.set_slowdown(slowdown)
            profile = WORDCOUNT_PROFILE.with_(compute_skew=0.0)
            paths = cluster.load_input_files("/wc", 8, 10.0)
            spec = SimJobSpec("wordcount", tuple(paths), profile)
            result = run_job(cluster, spec, "distributed")
            series[name].add(slowdown, result.elapsed)
    return FigureResult(
        "Figure E4", "straggler mitigation (one node slowed k-fold)",
        "slowdown factor", series,
        notes="mapreduce.map.speculative duplicates attempts past 1.3x avg",
    )


def figureE5_query_plan_strategies() -> FigureResult:
    """The ETL chain end to end under each submission strategy."""

    def plan(cluster):
        events = cluster.load_input_files("/events", 4, 10.0)
        users = cluster.load_input_files("/users", 2, 8.0)
        return [
            ChainStage("clean", WORDCOUNT_PROFILE, tuple(events)),
            ChainStage("dedupe", WORDCOUNT_PROFILE, tuple(users)),
            ChainStage("join", TERASORT_PROFILE, ("@clean", "@dedupe")),
            ChainStage("report", WORDCOUNT_PROFILE, ("@join",)),
        ]

    series = {"end-to-end": Series("end-to-end")}
    stock = build_stock_cluster(a3_cluster(4))
    series["end-to-end"].add("stock-auto", run_chain(stock, plan(stock),
                                                     "stock").elapsed)
    for strategy in ("dplus", "uplus", "speculative"):
        cluster = build_mrapid_cluster(a3_cluster(4))
        series["end-to-end"].add(strategy,
                                 run_chain(cluster, plan(cluster), strategy).elapsed)
    return FigureResult(
        "Figure E5", "4-stage ETL plan end-to-end by strategy", "strategy",
        series,
        notes="independent branches overlap; stage outputs feed dependents",
    )


def figureE6_equation1_validation() -> FigureResult:
    """How well does the paper's Equation 1 predict stock-Hadoop job time?

    Feeds Eq. 1 the same constants the simulator uses (t^l, rates, measured
    t^m per file size) and compares against the simulated stock distributed
    runs of the Figure 7 sweep. The residual is the cost of everything
    Eq. 1 abstracts away (heartbeat waits, contention, stragglers) — the
    gap MRapid's *measured*-profile speculation protocol closes.
    """
    from ..core import EstimatorInputs, estimate_full_job
    from ..workloads.base import WORDCOUNT_PROFILE

    inst = a3_cluster(4).instance
    series = {"simulated": Series("simulated"), "Equation 1": Series("Equation 1")}
    for n_files in (1, 2, 4, 8, 16):
        result = run_mode_stock_distributed(n_files)
        series["simulated"].add(n_files, result.elapsed)
        inputs = EstimatorInputs(
            t_l=2.5,
            t_m=WORDCOUNT_PROFILE.map_cpu_s(10.0),
            s_i=10.0,
            s_o=WORDCOUNT_PROFILE.map_output_mb(10.0),
            d_i=inst.disk_write_mb_s,
            d_o=inst.disk_read_mb_s,
            b_i=inst.network_mb_s,
            n_m=n_files,
            n_c=26,  # memory-only packing capacity of A3x4 (minus AM)
            n_u_m=inst.cores,
        )
        reduce_s = (WORDCOUNT_PROFILE.reduce_cpu_s(
            n_files * WORDCOUNT_PROFILE.map_output_mb(10.0)) + 2.5 + 1.0)
        predicted = estimate_full_job(inputs) + reduce_s + 0.8  # + client submit
        series["Equation 1"].add(n_files, predicted)
    fig = FigureResult(
        "Figure E6", "Equation 1 vs simulated stock Hadoop (WordCount x10 MB)",
        "#files", series,
        notes=("Eq. 1 under-predicts by the heartbeat/contention/straggler "
               "costs it abstracts away; the *shape* tracks, which is all "
               "the decision maker needs"),
    )
    return fig


def run_mode_stock_distributed(n_files: int):
    from .harness import HADOOP_DIST, run_mode

    return run_mode(HADOOP_DIST, a3_cluster(4), wordcount_input(n_files, 10.0))


EXTENDED_FIGURES: dict[str, Callable[[], FigureResult]] = {
    "figureE1": figureE1_burst_response_percentiles,
    "figureE2": figureE2_scheduling_imbalance,
    "figureE3": figureE3_multitenant_fairness,
    "figureE4": figureE4_straggler_mitigation,
    "figureE5": figureE5_query_plan_strategies,
    "figureE6": figureE6_equation1_validation,
}
