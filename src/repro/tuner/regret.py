"""Oracle-regret harness for the ``auto`` mode (Figure A1's engine).

The differential test the issue's acceptance criteria pin: run every
*static* mode of one job template on a fresh idle cluster to learn the
per-signature **oracle** (the fastest static choice — on a deterministic
simulator one run per mode is the truth), then replay the same template
``rounds`` times through the learning :class:`~repro.tuner.picker
.AutoModePicker` and track two regrets per round:

* **actual regret** — this round's elapsed minus the oracle's seconds.
  Non-zero during the exploration sweep (the picker must pay to measure
  each candidate once), zero afterwards.
* **exploit regret** — regret of the mode the picker would *commit to*
  after this round's observation (argmin EWMA over sampled candidates).
  This is a min over a growing sample set against fixed measurements, so
  it is monotonically non-increasing and reaches exactly zero once the
  oracle mode has been sampled.

Everything runs on fresh idle clusters with a fixed seed, so repeated
invocations are byte-identical and the report can be snapshot-gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import HadoopConfig, TunerConfig
from .picker import AutoModePicker, run_auto_job, run_mode
from .store import RunHistoryStore

if TYPE_CHECKING:  # pragma: no cover
    from ..config import ClusterSpec
    from ..trace import JobTemplate


def _fresh_cluster(spec: "ClusterSpec", conf: Optional[HadoopConfig],
                   seed: int):
    # Any non-stock strategy attaches the SubmissionFramework the auto
    # dispatcher needs for its dplus/uplus/speculative arms.
    from ..trace import STRATEGY_DPLUS, build_trace_cluster

    return build_trace_cluster(spec, strategy=STRATEGY_DPLUS, conf=conf,
                               seed=seed)


def _job_spec(cluster, template: "JobTemplate"):
    from ..mapreduce.spec import SimJobSpec

    paths = cluster.load_input_files(f"/regret/{template.name}",
                                     template.num_files, template.file_mb)
    return SimJobSpec(template.name, tuple(paths), template.profile,
                      signature=template.name)


def static_baselines(spec: "ClusterSpec", template: "JobTemplate",
                     candidates: tuple = TunerConfig.candidates,
                     conf: Optional[HadoopConfig] = None,
                     seed: int = 7) -> dict[str, float]:
    """Idle-cluster elapsed seconds per static mode (the oracle's table)."""
    out: dict[str, float] = {}
    for mode in candidates:
        cluster = _fresh_cluster(spec, conf, seed)
        out[mode] = run_mode(cluster, _job_spec(cluster, template),
                             mode).elapsed
    return out


@dataclass(frozen=True)
class RegretRound:
    """One auto replay round of the template."""

    index: int
    mode: str                 # what auto actually ran
    source: str               # analytic | explore | learned
    elapsed_s: float
    regret_s: float           # elapsed - oracle
    exploit_mode: str         # committed choice after this observation
    exploit_regret_s: float   # static[exploit_mode] - oracle
    cumulative_regret_s: float

    def to_dict(self) -> dict:
        return {"index": self.index, "mode": self.mode, "source": self.source,
                "elapsed_s": round(self.elapsed_s, 6),
                "regret_s": round(self.regret_s, 6),
                "exploit_mode": self.exploit_mode,
                "exploit_regret_s": round(self.exploit_regret_s, 6),
                "cumulative_regret_s": round(self.cumulative_regret_s, 6)}


@dataclass
class RegretReport:
    """Static oracle table plus the auto picker's per-round trajectory."""

    signature: str
    static_s: dict[str, float]
    oracle_mode: str
    oracle_s: float
    rounds: list[RegretRound] = field(default_factory=list)

    @property
    def cumulative_regret_s(self) -> float:
        return self.rounds[-1].cumulative_regret_s if self.rounds else 0.0

    def exploit_regrets(self) -> list[float]:
        return [r.exploit_regret_s for r in self.rounds]

    def trained_rounds(self, training_window: int) -> list[RegretRound]:
        return self.rounds[training_window:]

    def static_cumulative_regret_s(self, mode: str) -> float:
        """Cumulative regret of always running ``mode`` for the same rounds."""
        return (self.static_s[mode] - self.oracle_s) * len(self.rounds)

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "static_s": {m: round(v, 6)
                         for m, v in sorted(self.static_s.items())},
            "oracle_mode": self.oracle_mode,
            "oracle_s": round(self.oracle_s, 6),
            "cumulative_regret_s": round(self.cumulative_regret_s, 6),
            "rounds": [r.to_dict() for r in self.rounds],
        }


def run_regret(spec: "ClusterSpec", template: "JobTemplate", *,
               rounds: int = 8, tuner: Optional[TunerConfig] = None,
               conf: Optional[HadoopConfig] = None, seed: int = 7,
               store: Optional[RunHistoryStore] = None) -> RegretReport:
    """Measure the oracle table, then let ``auto`` learn the template.

    Each round runs on a fresh idle cluster (same seed), so a mode's
    elapsed never varies between the baseline table and the auto rounds —
    the regret numbers isolate *decision* quality from cluster noise.
    Pass ``store`` to persist/extend history across calls (the CI smoke
    does); by default learning happens in an in-memory store.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    tuner_conf = tuner if tuner is not None else TunerConfig()
    static = static_baselines(spec, template, tuner_conf.candidates,
                              conf=conf, seed=seed)
    oracle_mode = min(tuner_conf.candidates, key=lambda m: (static[m],
                      tuner_conf.candidates.index(m)))
    report = RegretReport(signature=template.name, static_s=static,
                          oracle_mode=oracle_mode,
                          oracle_s=static[oracle_mode])

    own_store = store is None
    history = store if store is not None else RunHistoryStore(None)
    picker = AutoModePicker(history, tuner_conf)
    try:
        cumulative = 0.0
        for index in range(rounds):
            cluster = _fresh_cluster(spec, conf, seed)
            job = _job_spec(cluster, template)
            result, decision = run_auto_job(
                cluster, job, picker,
                num_files=template.num_files, file_mb=template.file_mb)
            regret = result.elapsed - report.oracle_s
            cumulative += regret
            exploit = picker.best(template.name)
            exploit = exploit if exploit is not None else decision.mode
            report.rounds.append(RegretRound(
                index=index, mode=decision.mode, source=decision.source,
                elapsed_s=result.elapsed, regret_s=regret,
                exploit_mode=exploit,
                exploit_regret_s=static.get(exploit, result.elapsed)
                - report.oracle_s,
                cumulative_regret_s=cumulative))
    finally:
        if own_store:
            history.close()
    return report
