"""Failure-aware evaluation: runtime under injected faults (beyond paper).

The paper measures MRapid on healthy clusters. This figure family asks the
production question: *how do the modes behave when machines crash or go
gray mid-job?* Each data point builds a fresh cluster, attaches a seeded
:class:`~repro.faults.FaultPlan`, and drives one short job to completion —
resubmitting (like a real client with ``mapreduce.client.submit.retries``)
when a fault kills the job outright. Reported runtime is wall clock from
first submission to the first *successful* completion, retries included.

Scenarios:

* ``healthy``       — no faults (the paper's setting, for reference)
* ``worker-crash``  — a busy non-AM machine dies mid-job (whole machine:
  YARN containers, DataNode replicas, and in-flight transfers all go)
* ``am-crash``      — the machine hosting the job's AM dies: stock Hadoop
  restarts the AM (work-preserving recovery replays finished maps); a
  pooled MRapid AM dies with its job, which the client resubmits while the
  proxy heals the pool
* ``gray-disk``     — dn0's disk serves at 1/6 bandwidth for 30 s: the
  node stock packs onto, and the node hosting U+'s entire job
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Tuple

from ..config import a3_cluster
from ..core.submit import build_cluster, result_of, submit
from ..faults import FaultPlan, inject
from ..mapreduce.spec import JobResult, SimJobSpec
from ..workloads import WORDCOUNT_PROFILE
from .harness import (
    HADOOP_DIST,
    MRAPID_DPLUS,
    MRAPID_UPLUS,
    SERIES_MODES,
    FigureResult,
    Series,
)

MRAPID_SPECULATIVE = "MRapid-Speculative"
CHAOS_MODES = (HADOOP_DIST, MRAPID_DPLUS, MRAPID_UPLUS, MRAPID_SPECULATIVE)

#: (scenario name, plan factory). Times are chosen to land mid-job for
#: every mode (all modes are still running at t=6 on this workload).
SCENARIOS: Tuple[Tuple[str, Callable[[], FaultPlan]], ...] = (
    ("healthy", FaultPlan),
    ("worker-crash", lambda: FaultPlan().crash(6.0, node="@busiest-non-am")),
    ("am-crash", lambda: FaultPlan().crash(6.0, node="@job-am")),
    ("gray-disk", lambda: FaultPlan().slow_disk(3.0, factor=6.0, node="dn0",
                                                duration=30.0)),
)


@dataclass
class ChaosPoint:
    """One completed run under faults."""

    result: JobResult
    elapsed: float               # first submit -> first successful finish
    resubmits: int
    timeline: Tuple[Tuple[float, str, str], ...]


def _wc_spec(cluster, n_files: int = 8, mb: float = 10.0) -> SimJobSpec:
    paths = cluster.load_input_files("/chaos", n_files, mb)
    return SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)


def run_under_faults(mode: str, plan: FaultPlan, max_retries: int = 2,
                     seed: int = 7) -> ChaosPoint:
    """One chaos data point: fresh cluster, ``plan`` injected, retry on loss."""
    if mode not in CHAOS_MODES:
        raise ValueError(f"unknown chaos mode {mode!r}")
    submit_mode = ("speculative" if mode == MRAPID_SPECULATIVE
                   else SERIES_MODES[mode])
    cluster = build_cluster(a3_cluster(4), submit_mode, seed=seed)
    spec = _wc_spec(cluster)
    injector = inject(cluster, plan)
    env = cluster.env

    def client() -> Generator:
        start = env.now
        for attempt in range(max_retries + 1):
            proc = submit(cluster, spec, submit_mode)
            try:
                value = yield proc
            except Exception:
                value = None   # job failed outright (e.g. attempts exhausted)
            result = result_of(value) if value is not None else None
            if (result is not None and result.finish_time > 0
                    and not result.killed and not result.failed):
                return ChaosPoint(result=result, elapsed=env.now - start,
                                  resubmits=attempt,
                                  timeline=tuple(injector.timeline))
        raise RuntimeError(
            f"{mode}: job never completed within {max_retries} resubmits")

    driver = env.process(client(), name=f"chaos-{mode}")
    env.run(until=driver)
    return driver.value


def figureC1_runtime_under_faults() -> FigureResult:
    """Runtime under injected faults: stock vs D+ vs U+ vs speculative."""
    series = {mode: Series(mode) for mode in CHAOS_MODES}
    notes = []
    for scenario, make_plan in SCENARIOS:
        for mode in CHAOS_MODES:
            point = run_under_faults(mode, make_plan())
            series[mode].add(scenario, point.elapsed)
            if point.resubmits:
                notes.append(f"{mode}@{scenario}: {point.resubmits} resubmit(s)")
    return FigureResult(
        "Figure C1",
        "Runtime under injected faults (WordCount 8 x 10 MB, A3 x 4)",
        "scenario", series,
        notes="; ".join(notes) if notes else
        "no resubmissions needed: every fault recovered inside the job",
    )


CHAOS_FIGURES: dict = {
    "chaos": figureC1_runtime_under_faults,
}
