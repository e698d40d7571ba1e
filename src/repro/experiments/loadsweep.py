"""Figure L1: sojourn time vs offered load (the heavy-traffic sweep).

The paper's evaluation measures isolated jobs; its *motivation* (§I) is a
cluster absorbing continuous short-job traffic. This sweep closes that gap:
open-loop Poisson arrivals replayed against one long-lived cluster per
(scheduler × submission strategy) cell, at increasing arrival rates, with
AM admission control turned on (``am_resource_fraction``) so job *ordering*
matters the way it does on a real loaded cluster.

Axes crossed:

* RM scheduler — stock greedy FIFO and HFSP size-based scheduling
  (training + aging, ``repro.yarn.hfsp``). The multi-tenant capacity
  scheduler is left out: with one job stream it equals FIFO by
  construction, and Figure E3 covers multi-queue fairness;
* submission strategy — stock auto (D+/U+ off) vs MRapid speculative
  (D+/U+ on, Figure 6 protocol).

Each cell reports mean and p99 sojourn from the streaming (P²) summaries —
no per-job histories are retained however long the trace is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..config import ClusterSpec, HadoopConfig, a3_cluster
from ..trace import (
    SCHEDULER_FIFO,
    SCHEDULER_HFSP,
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    LoadReport,
    default_short_job_mix,
    run_load,
)
from .harness import FigureResult, PaperClaim, Series

#: Arrival rates swept (jobs/minute) and the trace horizon per point.
LOAD_RATES = (10.0, 25.0, 40.0)
LOAD_DURATION_S = 600.0
LOAD_SEED = 11

#: Admission control for every load point: at most this fraction of cluster
#: memory may be held by AM containers (yarn.scheduler.capacity
#: .maximum-am-resource-percent). Uberized short jobs run entirely inside
#: their AM container, so this is what turns "ordering" into a measurable
#: quantity; 1.0 would reduce every scheduler to implicit CPU contention.
LOAD_AM_FRACTION = 0.3

#: The four (scheduler, strategy) cells of Figure L1.
LOAD_COMBOS = (
    (SCHEDULER_FIFO, STRATEGY_STOCK),
    (SCHEDULER_HFSP, STRATEGY_STOCK),
    (SCHEDULER_FIFO, STRATEGY_SPECULATIVE),
    (SCHEDULER_HFSP, STRATEGY_SPECULATIVE),
)


def _combo_label(scheduler: str, strategy: str) -> str:
    onoff = "mrapid" if strategy == STRATEGY_SPECULATIVE else "stock"
    return f"{scheduler}/{onoff}"


@dataclass(frozen=True)
class LoadPointTask:
    """A picklable description of one replay cell (one rate, one combo).

    Mirrors :class:`~repro.experiments.harness.PointTask` so the parallel
    runner can fan load points over worker processes; every field is an
    immutable value and ``run()`` builds its own cluster, so points are
    independent and the sweep is byte-identical serial or parallel.
    """

    scheduler: str
    strategy: str
    rate_per_minute: float
    duration_s: float = LOAD_DURATION_S
    seed: int = LOAD_SEED
    am_fraction: float = LOAD_AM_FRACTION
    cluster: Optional[ClusterSpec] = None

    def run(self) -> LoadReport:
        spec = self.cluster if self.cluster is not None else a3_cluster(4)
        conf = HadoopConfig(am_resource_fraction=self.am_fraction)
        return run_load(spec, default_short_job_mix(), self.rate_per_minute,
                        self.duration_s, scheduler=self.scheduler,
                        strategy=self.strategy, conf=conf, seed=self.seed)


def load_sweep_reports(rates: Sequence[float] = LOAD_RATES,
                       duration_s: float = LOAD_DURATION_S,
                       jobs: Optional[int] = None) -> dict[tuple[str, str, float], LoadReport]:
    """Every (scheduler, strategy, rate) cell's :class:`LoadReport`."""
    from .parallel import run_point_tasks

    grid = [(scheduler, strategy, rate)
            for scheduler, strategy in LOAD_COMBOS for rate in rates]
    tasks = [LoadPointTask(scheduler, strategy, rate, duration_s=duration_s)
             for scheduler, strategy, rate in grid]
    reports = run_point_tasks(tasks, jobs=jobs)
    return {cell: report for cell, report in zip(grid, reports)}


def figureL1_load_sweep(jobs: Optional[int] = None) -> FigureResult:
    """Mean/p99 sojourn vs arrival rate: schedulers × MRapid on/off."""
    reports = load_sweep_reports(jobs=jobs)
    series: dict[str, Series] = {}
    for scheduler, strategy in LOAD_COMBOS:
        label = _combo_label(scheduler, strategy)
        series[f"{label} mean"] = Series(f"{label} mean")
        series[f"{label} p99"] = Series(f"{label} p99")
    for (scheduler, strategy, rate), report in reports.items():
        label = _combo_label(scheduler, strategy)
        series[f"{label} mean"].add(rate, report.sojourn.mean)
        series[f"{label} p99"].add(rate, report.sojourn.p99)

    top_rate = LOAD_RATES[-1]

    def mean_at(scheduler: str, strategy: str, rate: float) -> float:
        return series[f"{_combo_label(scheduler, strategy)} mean"].at(rate)

    def p99_at(scheduler: str, strategy: str, rate: float) -> float:
        return series[f"{_combo_label(scheduler, strategy)} p99"].at(rate)

    fifo = mean_at(SCHEDULER_FIFO, STRATEGY_STOCK, top_rate)
    hfsp = mean_at(SCHEDULER_HFSP, STRATEGY_STOCK, top_rate)
    stock = mean_at(SCHEDULER_FIFO, STRATEGY_STOCK, top_rate)
    mrapid = mean_at(SCHEDULER_FIFO, STRATEGY_SPECULATIVE, top_rate)
    claims = [
        PaperClaim(
            "HFSP (size-based + aging) beats FIFO on mean sojourn for the "
            f"short-job mix at {top_rate:.0f} jobs/min "
            "(HFSP paper: size-based ordering dominates FIFO under "
            "short-job-heavy traffic)",
            paper_value=25.0,
            measured_value=(fifo - hfsp) / fifo * 100.0 if fifo else 0.0,
            tolerance=25.0,
        ),
        PaperClaim(
            "MRapid (D+/U+ speculative) beats stock Hadoop on mean sojourn "
            f"under sustained load at {top_rate:.0f} jobs/min "
            "(paper §I: short-job optimization matters most when traffic "
            "queues up)",
            paper_value=50.0,
            measured_value=(stock - mrapid) / stock * 100.0 if stock else 0.0,
            tolerance=30.0,
        ),
    ]
    return FigureResult(
        "Figure L1",
        "heavy traffic: sojourn vs arrival rate (schedulers x MRapid on/off)",
        "jobs/min",
        series,
        claims=claims,
        notes=(f"open-loop Poisson replay, {LOAD_DURATION_S:.0f}s horizon per "
               f"point, A3x4, am_resource_fraction={LOAD_AM_FRACTION}; "
               "streaming P2 percentiles (no per-job history). hfsp/mrapid: "
               "MRapid jobs wait for a warm AM in HFSP's order and train its "
               "sizes, so short scans overtake queued sorts: at "
               f"{top_rate:.0f} jobs/min mean "
               f"{mean_at(SCHEDULER_HFSP, STRATEGY_SPECULATIVE, top_rate):.1f}"
               f" s vs fifo/mrapid {mrapid:.1f} s, p99 "
               f"{p99_at(SCHEDULER_HFSP, STRATEGY_SPECULATIVE, top_rate):.1f}"
               f" s vs {p99_at(SCHEDULER_FIFO, STRATEGY_SPECULATIVE, top_rate):.1f}"
               " s (the overtaken sorts form the tail)"),
    )


LOAD_FIGURES: dict[str, Callable[[], FigureResult]] = {
    "figureL1": figureL1_load_sweep,
}
