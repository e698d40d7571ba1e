#!/usr/bin/env python3
"""Operating a short-job cluster: trace replay, monitoring, post-mortem.

Pulls the operational modules together the way an SRE would: replay a
morning's ad-hoc traffic on stock Hadoop and on MRapid while telemetry
samples cluster utilization, then mine the job-history server for where
the time went, and sweep pool sizes to pick a configuration.

Run:  python examples/trace_analysis.py
"""

from repro.config import MRapidConfig, TelemetryConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster
from repro.experiments.sweeps import Axis, grid_sweep
from repro.history import JobHistoryServer
from repro.metrics import exact_percentile
from repro.telemetry import install_telemetry
from repro.trace import (
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    default_short_job_mix,
    poisson_trace,
    replay_load,
)

TRACE = poisson_trace(default_short_job_mix(), rate_per_minute=3.0,
                      duration_s=300.0, seed=42)


def utilization(telemetry, until):
    """One line of utilization from telemetry's rings, averaged over time."""
    def mean(name):
        return telemetry.series(name).time_weighted_mean(until)

    peak = max(telemetry.series("cluster_cpu_utilization").values)
    return (f"cpu mean {mean('cluster_cpu_utilization'):.0%} / peak "
            f"{peak:.0%}, scheduled-mem "
            f"{mean('cluster_scheduled_memory_fraction'):.0%}, imbalance cpu "
            f"{mean('cluster_cpu_imbalance'):.2f} / disk "
            f"{mean('cluster_disk_imbalance'):.2f}")


def replay_with_monitoring(build, strategy):
    cluster = build()
    telemetry = install_telemetry(cluster, TelemetryConfig(
        scrape_interval_s=1.0, node_probe_interval_s=1.0, alerts=False))
    report = replay_load(cluster, TRACE, strategy)
    telemetry.finish()
    return cluster, report, utilization(telemetry, report.makespan_s)


def main() -> None:
    print(f"replaying {len(TRACE)} ad-hoc jobs over 5 minutes\n")

    _s_cluster, s_report, s_util = replay_with_monitoring(
        lambda: build_stock_cluster(a3_cluster(4)), STRATEGY_STOCK)
    print(f"stock : {s_report.summary()}")
    print(f"        utilization: {s_util}")

    m_cluster, m_report, m_util = replay_with_monitoring(
        lambda: build_mrapid_cluster(a3_cluster(4)), STRATEGY_SPECULATIVE)
    print(f"MRapid: {m_report.summary()}")
    print(f"        utilization: {m_util}")
    saved = s_report.sojourn.mean - m_report.sojourn.mean
    print(f"\nmean response cut by {saved:.1f}s "
          f"({100 * saved / s_report.sojourn.mean:.0f}%); MRapid drives the "
          f"cluster harder (higher peak CPU) for less wall time\n")

    # Post-mortem with the history server: where does stock lose the time?
    server = JobHistoryServer()
    stock2 = build_stock_cluster(a3_cluster(4))
    server.record_all([])  # start empty, then a couple of representative runs
    from repro.core import run_stock_job, run_short_job
    from repro.mapreduce import SimJobSpec
    from repro.workloads import WORDCOUNT_PROFILE

    paths = stock2.load_input_files("/pm", 4, 10.0)
    server.record(run_stock_job(
        stock2, SimJobSpec("postmortem", tuple(paths), WORDCOUNT_PROFILE),
        "distributed"))
    mrapid2 = build_mrapid_cluster(a3_cluster(4))
    paths = mrapid2.load_input_files("/pm", 4, 10.0)
    server.record(run_short_job(
        mrapid2, SimJobSpec("postmortem", tuple(paths), WORDCOUNT_PROFILE),
        "uplus"))
    print(server.report())
    print(f"pre-AM overhead fraction: stock "
          f"{server.overhead_fraction('hadoop-distributed'):.0%} vs MRapid "
          f"{server.overhead_fraction('mrapid-uplus'):.0%}\n")

    # Configuration sweep: how big an AM pool does this traffic need?
    def point(pool):
        cluster = build_mrapid_cluster(
            a3_cluster(4), mrapid=MRapidConfig(am_pool_size=pool))
        report = replay_load(cluster, TRACE, STRATEGY_SPECULATIVE, keep_jobs=True)
        sojourns = [row["sojourn_s"] for row in report.per_job]
        return {"mean_response": report.sojourn.mean,
                "p95": exact_percentile(sojourns, 95)}

    sweep = grid_sweep([Axis("pool", (1, 2, 3, 5))], point)
    print("AM pool sizing against this trace:")
    print(sweep.table())
    best = sweep.best("mean_response")
    print(f"-> provision {best['pool']} pooled AMs "
          f"(mean {best['mean_response']:.1f}s)")


if __name__ == "__main__":
    main()
