"""Experiment harness: sweeps, series, paper-claim bookkeeping, rendering.

Every figure in the paper's evaluation is a :class:`FigureResult` produced
by a function in :mod:`repro.experiments.figures`. Each data point runs on a
*fresh* simulated cluster (as each of the paper's trials did), so points are
fully independent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..config import ClusterSpec, HadoopConfig, MRapidConfig
from ..core.submit import build_cluster, run_job
from ..mapreduce.spec import JobResult, SimJobSpec
from ..simcluster import SimCluster

# Canonical series names used across every figure.
HADOOP_DIST = "Hadoop-Distributed"
HADOOP_UBER = "Hadoop-Uber"
MRAPID_DPLUS = "MRapid-D+"
MRAPID_UPLUS = "MRapid-U+"
ALL_MODES = (HADOOP_DIST, HADOOP_UBER, MRAPID_DPLUS, MRAPID_UPLUS)
#: Series name -> the submission mode it runs (:data:`repro.core.submit.MODES`).
SERIES_MODES = {HADOOP_DIST: "distributed", HADOOP_UBER: "uber",
                MRAPID_DPLUS: "dplus", MRAPID_UPLUS: "uplus"}

#: Builder that, given a freshly built cluster, loads input and returns a spec.
SpecBuilder = Callable[[SimCluster], SimJobSpec]


def run_mode(mode: str, cluster_spec: ClusterSpec, spec_builder: SpecBuilder,
             conf: Optional[HadoopConfig] = None,
             mrapid: Optional[MRapidConfig] = None, seed: int = 7) -> JobResult:
    """One data point: fresh cluster, one job, one mode (a series name)."""
    if mode not in SERIES_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    cluster = build_cluster(cluster_spec, SERIES_MODES[mode], conf=conf,
                            mrapid=mrapid, seed=seed)
    return run_job(cluster, spec_builder(cluster), SERIES_MODES[mode])


def x_matches(a, b, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Whether two x-axis values denote the same data point.

    Equal values always match; numeric values additionally match within a
    small tolerance so an x computed as e.g. ``60.0 / n * n`` still finds the
    cell recorded under ``60.0``. Non-numeric axes (table2's attribute names)
    fall back to plain equality.
    """
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)
    except (TypeError, ValueError):
        return False


@dataclass
class Series:
    """One line of a figure: y seconds at each x."""

    name: str
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)

    def add(self, x, y: float) -> None:
        self.x.append(x)
        self.y.append(y)

    def at(self, x) -> float:
        """The y recorded at ``x`` (tolerance-aware for float axes)."""
        for xi, yi in zip(self.x, self.y):
            if x_matches(xi, x):
                return yi
        raise ValueError(f"series {self.name!r} has no point at x={x!r}")

    def has(self, x) -> bool:
        return any(x_matches(xi, x) for xi in self.x)


@dataclass
class PaperClaim:
    """A quantitative statement from the paper, checked against our run."""

    description: str
    paper_value: float          # percent improvement (or ratio) in the paper
    measured_value: float
    unit: str = "%"
    #: |paper - measured| tolerance for the "holds" verdict. Shapes, not
    #: absolute seconds, are what a simulator can promise (DESIGN.md §6).
    tolerance: float = 20.0

    @property
    def holds(self) -> bool:
        return abs(self.paper_value - self.measured_value) <= self.tolerance


@dataclass
class FigureResult:
    """A reproduced table/figure plus its paper-vs-measured claims."""

    figure_id: str
    title: str
    x_label: str
    series: dict[str, Series]
    claims: list[PaperClaim] = field(default_factory=list)
    notes: str = ""

    def improvement(self, baseline: str, improved: str, x) -> float:
        """Percent improvement of ``improved`` over ``baseline`` at ``x``."""
        return improvement_pct(self.series[baseline].at(x),
                               self.series[improved].at(x))

    def xs(self) -> list:
        """Union of every series' x values, in first-seen order.

        Ragged series (a mode skipped at some x) contribute their extra
        points instead of crashing the renderer.
        """
        xs: list = []
        for series in self.series.values():
            for x in series.x:
                if not any(x_matches(seen, x) for seen in xs):
                    xs.append(x)
        return xs

    # -- rendering ---------------------------------------------------------
    def render_table(self, missing: str = "-") -> str:
        names = list(self.series)
        widths = [max(len(self.x_label), 10)] + [max(len(n), 9) for n in names]
        lines = [f"{self.figure_id}: {self.title}"]
        header = "  ".join(
            [self.x_label.ljust(widths[0])] + [n.rjust(w) for n, w in zip(names, widths[1:])]
        )
        lines.append(header)
        lines.append("-" * len(header))
        for x in self.xs():
            cells = [str(x).ljust(widths[0])]
            for name, w in zip(names, widths[1:]):
                series = self.series[name]
                cell = f"{series.at(x):.1f}" if series.has(x) else missing
                cells.append(cell.rjust(w))
            lines.append("  ".join(cells))
        if self.claims:
            lines.append("")
            lines.append("paper-vs-measured:")
            for claim in self.claims:
                verdict = "HOLDS" if claim.holds else "DIVERGES"
                lines.append(
                    f"  [{verdict:8s}] {claim.description}: paper "
                    f"{claim.paper_value:.1f}{claim.unit}, measured "
                    f"{claim.measured_value:.1f}{claim.unit}"
                )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PointTask:
    """A picklable description of one ``run_mode`` data point.

    Figures describe their grid as tasks instead of running each point
    inline; the parallel runner (:mod:`repro.experiments.parallel`) can then
    fan independent points out over worker processes and reassemble results
    in task order, so output is identical to the serial path.
    """

    mode: str
    cluster_spec: ClusterSpec
    spec_builder: SpecBuilder
    conf: Optional[HadoopConfig] = None
    mrapid: Optional[MRapidConfig] = None
    seed: int = 7

    def run(self) -> JobResult:
        return run_mode(self.mode, self.cluster_spec, self.spec_builder,
                        conf=self.conf, mrapid=self.mrapid, seed=self.seed)


def sweep(figure_id: str, title: str, x_label: str, xs: Sequence,
          modes: Sequence[str], point: Callable[[str, object], PointTask],
          jobs: Optional[int] = None) -> FigureResult:
    """Generic sweep over the :class:`PointTask` ``point(mode, x)``.

    The tasks run through the parallel runner with ``jobs`` workers
    (``None`` = the runner's configured default) and results are
    reassembled in grid order, so the figure is byte-identical however
    many workers ran it.
    """
    from .parallel import run_point_tasks

    grid = [(x, mode) for x in xs for mode in modes]
    results = run_point_tasks([point(mode, x) for x, mode in grid], jobs=jobs)
    series = {mode: Series(mode) for mode in modes}
    for (x, mode), result in zip(grid, results):
        series[mode].add(x, result.elapsed)
    return FigureResult(figure_id, title, x_label, series)


def improvement_pct(base: float, new: float) -> float:
    return (base - new) / base * 100.0 if base else 0.0
