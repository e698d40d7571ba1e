"""Job History Server: aggregate statistics over completed runs.

The real Hadoop JobHistoryServer answers "what ran, how long, where did the
time go" for operators. This one aggregates :class:`JobResult` objects from
any mix of simulated runs into per-mode and per-job summaries, mean
per-map :class:`~repro.mapreduce.spec.PhaseTimings`, and a text report — used by the examples and the trace analyses.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .mapreduce.spec import PHASES, JobResult, PhaseTimings


@dataclass
class ModeSummary:
    mode: str
    jobs: int = 0
    total_elapsed: float = 0.0
    total_am_overhead: float = 0.0
    killed: int = 0
    failed: int = 0
    #: Mean seconds per sub-phase over the mode's finished maps.
    map_phase: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def mean_elapsed(self) -> float:
        return self.total_elapsed / self.jobs if self.jobs else 0.0

    @property
    def mean_am_overhead(self) -> float:
        return self.total_am_overhead / self.jobs if self.jobs else 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "mean_elapsed_s": self.mean_elapsed,
            "mean_am_overhead_s": self.mean_am_overhead,
            "killed": self.killed,
            "failed": self.failed,
            "map_phase_mean_s": self.map_phase.to_dict(),
            "dominant_map_phase": self.map_phase.dominant(),
        }


class JobHistoryServer:
    """Collects results and serves aggregate views."""

    def __init__(self) -> None:
        self._results: list[JobResult] = []

    # -- ingestion -----------------------------------------------------------
    def record(self, result: JobResult) -> None:
        self._results.append(result)

    def record_all(self, results: Iterable[JobResult]) -> None:
        for result in results:
            self.record(result)

    def __len__(self) -> int:
        return len(self._results)

    # -- views -----------------------------------------------------------------
    def jobs(self, mode: Optional[str] = None,
             name: Optional[str] = None) -> list[JobResult]:
        out = self._results
        if mode is not None:
            out = [r for r in out if r.mode == mode]
        if name is not None:
            out = [r for r in out if r.job_name == name]
        return list(out)

    def by_mode(self) -> dict[str, ModeSummary]:
        summaries: dict[str, ModeSummary] = {}
        counts: dict[str, int] = defaultdict(int)
        for result in self._results:
            summary = summaries.setdefault(result.mode, ModeSummary(result.mode))
            summary.jobs += 1
            summary.total_elapsed += result.elapsed
            summary.total_am_overhead += result.am_overhead
            summary.killed += int(result.killed)
            summary.failed += int(result.failed)
            finished = [m for m in result.maps if m.finish_time > 0]
            for record in finished:
                counts[result.mode] += 1
                for phase in PHASES:
                    current = getattr(summary.map_phase, phase)
                    setattr(summary.map_phase, phase,
                            current + getattr(record.phases, phase))
        for mode, summary in summaries.items():
            n = counts[mode]
            if n:
                for phase in PHASES:
                    setattr(summary.map_phase, phase,
                            getattr(summary.map_phase, phase) / n)
        return summaries

    def slowest(self, k: int = 5) -> list[JobResult]:
        return sorted(self._results, key=lambda r: -r.elapsed)[:k]

    def overhead_fraction(self, mode: Optional[str] = None) -> float:
        """Fraction of total job time spent before the AM started — the
        waste MRapid's submission framework attacks."""
        jobs = self.jobs(mode=mode)
        total = sum(r.elapsed for r in jobs)
        overhead = sum(r.am_overhead for r in jobs)
        return overhead / total if total else 0.0

    # -- reporting ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Machine-readable mirror of :meth:`report`, keyed by mode."""
        return {
            "jobs": len(self._results),
            "overhead_fraction": self.overhead_fraction(),
            "modes": {mode: summary.to_dict()
                      for mode, summary in sorted(self.by_mode().items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def report(self) -> str:
        lines = [f"job history: {len(self._results)} jobs"]
        for mode, summary in sorted(self.by_mode().items()):
            lines.append(
                f"  {mode:20s} n={summary.jobs:<3d} mean {summary.mean_elapsed:6.1f}s "
                f"(AM overhead {summary.mean_am_overhead:4.1f}s, "
                f"killed {summary.killed}, failed {summary.failed}); "
                f"map time dominated by {summary.map_phase.dominant()}"
            )
        if self._results:
            worst = self.slowest(1)[0]
            lines.append(f"  slowest: {worst.job_name} [{worst.mode}] "
                         f"{worst.elapsed:.1f}s")
        return "\n".join(lines)
