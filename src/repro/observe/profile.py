"""Run one job fully traced and report where its time went.

:func:`run_profiled` is the engine behind ``python -m repro profile``: build
a fresh cluster in the requested mode, :func:`install_tracer`, run one
paper-scale job, and return a :class:`ProfileReport` bundling the
:class:`JobResult`, the critical-path breakdown, and the live tracer (for
Perfetto export).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import HadoopConfig, MRapidConfig, a3_cluster
from ..core.submit import (
    build_mrapid_cluster,
    build_stock_cluster,
    run_short_job,
    run_stock_job,
)
from ..experiments.harness import (
    HADOOP_DIST,
    HADOOP_UBER,
    MRAPID_DPLUS,
    MRAPID_UPLUS,
)
from ..mapreduce.spec import JobResult
from .critical_path import OVERHEAD_CLASSES, CriticalPathReport, analyze_job
from .export import to_trace_events
from .tracer import Tracer, install_tracer

#: CLI mode spellings -> canonical series names (harness.ALL_MODES).
PROFILE_MODES = {
    "stock": HADOOP_DIST,
    "distributed": HADOOP_DIST,
    "uber": HADOOP_UBER,
    "dplus": MRAPID_DPLUS,
    "uplus": MRAPID_UPLUS,
}

_BAR_WIDTH = 30


@dataclass
class ProfileReport:
    """One traced job: result + attribution + the tracer that recorded it."""

    workload: str
    mode: str                     # canonical series name
    result: JobResult
    path: CriticalPathReport
    tracer: Tracer

    def to_perfetto(self) -> dict:
        """The run as a Perfetto-loadable trace-event object."""
        return to_trace_events(
            self.tracer, trace_name=f"{self.workload}-{self.mode}")

    def breakdown_dict(self) -> dict:
        """Machine-readable breakdown (``profile.breakdown.json``)."""
        return {
            "workload": self.workload,
            "mode": self.mode,
            "app_id": self.result.app_id,
            "elapsed": self.result.elapsed,
            "breakdown": self.path.to_dict(),
            "metrics": self.tracer.metrics_snapshot(),
        }

    def render(self, width: int = 72) -> str:
        """Human-readable breakdown table followed by the task Gantt."""
        from ..experiments.timeline import job_timeline

        fractions = self.path.fractions
        totals = self.path.totals
        lines = [
            f"profile: {self.workload} [{self.mode}] — "
            f"{self.path.elapsed:.2f}s end-to-end "
            f"(app {self.result.app_id})",
            "critical-path attribution:",
        ]
        for cls in OVERHEAD_CLASSES:
            frac = fractions[cls]
            bar = "█" * int(round(frac * _BAR_WIDTH))
            lines.append(f"  {cls:<16s} {totals[cls]:>8.2f}s  "
                         f"{frac * 100:>5.1f}%  {bar}")
        covered = sum(fractions.values())
        lines.append(f"  {'(sum)':<16s} {sum(totals.values()):>8.2f}s  "
                     f"{covered * 100:>5.1f}%")
        lines.append(
            f"framework overhead (non-compute fraction): "
            f"{self.path.non_compute_fraction * 100:.1f}%")
        lines.append("")
        lines.append(job_timeline(self.result, width=width))
        return "\n".join(lines)


def _spec_builder(workload: str, num_files: int, file_mb: float):
    # The module-level input dataclasses figures use; imported lazily so
    # repro.observe stays importable without the experiments package.
    from ..experiments.figures import pi_input, terasort_input, wordcount_input
    from ..workloads.terasort import rows_to_mb

    if workload == "wordcount":
        return wordcount_input(num_files, file_mb)
    if workload == "terasort":
        # Interpret the size knobs as total input, like Figure 10 does.
        rows = max(1, int(num_files * file_mb / rows_to_mb(1)))
        return terasort_input(rows, num_files=num_files)
    if workload == "pi":
        return pi_input(num_files * file_mb * 1e6, num_maps=num_files)
    raise ValueError(f"unknown workload {workload!r} "
                     "(expected wordcount, terasort, or pi)")


def run_profiled(workload: str = "wordcount", mode: str = "stock",
                 num_files: int = 4, file_mb: float = 10.0, nodes: int = 4,
                 seed: int = 7, conf: Optional[HadoopConfig] = None,
                 mrapid: Optional[MRapidConfig] = None) -> ProfileReport:
    """Run one paper-scale job with tracing on; return its profile.

    ``mode`` accepts the CLI spellings (``stock``/``distributed``, ``uber``,
    ``dplus``, ``uplus``) or a canonical series name. The cluster is the
    paper's 1 NN + ``nodes`` DN A3 topology, fresh per call, so profiles are
    deterministic and independent.
    """
    series = PROFILE_MODES.get(mode, mode)
    builder = _spec_builder(workload, num_files, file_mb)
    cluster_spec = a3_cluster(nodes)
    if series in (HADOOP_DIST, HADOOP_UBER):
        cluster = build_stock_cluster(cluster_spec, conf=conf, seed=seed)
        tracer = install_tracer(cluster)
        spec = builder(cluster)
        stock = "distributed" if series == HADOOP_DIST else "uber"
        result = run_stock_job(cluster, spec, stock)
    elif series in (MRAPID_DPLUS, MRAPID_UPLUS):
        cluster = build_mrapid_cluster(cluster_spec, conf=conf, mrapid=mrapid,
                                       seed=seed)
        tracer = install_tracer(cluster)
        spec = builder(cluster)
        short = "dplus" if series == MRAPID_DPLUS else "uplus"
        result = run_short_job(cluster, spec, short)
    else:
        raise ValueError(f"unknown mode {mode!r} "
                         f"(expected one of {sorted(PROFILE_MODES)})")
    path = analyze_job(tracer, app_id=result.app_id)
    return ProfileReport(workload, series, result, path, tracer)
