"""Configuration auto-tuning by simulation.

An operator adopting MRapid must pick ``n_c^m`` (maps per vcore in U+ mode)
and the AM pool size — the paper leaves both as knobs ("can be configured
by users", pool "configured by Hadoop administrator, 3 by default"). Since
the simulator is cheap and deterministic, we can simply *try* the
candidates against a representative job (or trace) and return the best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..config import ClusterSpec, MRapidConfig
from ..mapreduce.spec import SimJobSpec
from .submit import build_mrapid_cluster, run_job

#: Builds a job spec on a freshly built cluster (same contract as the
#: experiment harness).
SpecBuilder = Callable[[object], SimJobSpec]


@dataclass
class TuningCandidate:
    config: MRapidConfig
    label: str
    elapsed_s: float


@dataclass
class TuningReport:
    best: TuningCandidate
    candidates: list[TuningCandidate] = field(default_factory=list)

    def table(self) -> str:
        lines = ["candidate            elapsed"]
        for cand in sorted(self.candidates, key=lambda c: c.elapsed_s):
            marker = "  <-- best" if cand is self.best else ""
            lines.append(f"{cand.label:20s} {cand.elapsed_s:6.1f}s{marker}")
        return "\n".join(lines)


def tune_maps_per_vcore(cluster_spec: ClusterSpec, spec_builder: SpecBuilder,
                        candidates: Sequence[int] = (1, 2, 3),
                        base: Optional[MRapidConfig] = None) -> TuningReport:
    """Pick n_c^m for U+ mode by simulating the representative job."""
    base = base if base is not None else MRapidConfig()
    results = []
    for n in candidates:
        if n < 1:
            raise ValueError("maps_per_vcore must be >= 1")
        config = base.with_(maps_per_vcore=n)
        cluster = build_mrapid_cluster(cluster_spec, mrapid=config)
        result = run_job(cluster, spec_builder(cluster), "uplus")
        results.append(TuningCandidate(config, f"maps_per_vcore={n}",
                                       result.elapsed))
    best = min(results, key=lambda c: c.elapsed_s)
    return TuningReport(best=best, candidates=results)


def tune_am_pool_size(cluster_spec: ClusterSpec, trace_runner: Callable[[MRapidConfig], float],
                      candidates: Sequence[int] = (1, 2, 3, 5),
                      base: Optional[MRapidConfig] = None) -> TuningReport:
    """Pick the AM pool size against a caller-supplied workload replay.

    ``trace_runner(config)`` must return the metric to minimize (e.g. mean
    response over a trace replay on a fresh cluster built with ``config``).
    """
    base = base if base is not None else MRapidConfig()
    results = []
    for n in candidates:
        if n < 1:
            raise ValueError("pool size must be >= 1")
        config = base.with_(am_pool_size=n)
        results.append(TuningCandidate(config, f"am_pool_size={n}",
                                       trace_runner(config)))
    best = min(results, key=lambda c: c.elapsed_s)
    return TuningReport(best=best, candidates=results)
