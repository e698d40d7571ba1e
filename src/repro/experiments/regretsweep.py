"""Figure A1: online regret of the ``auto`` mode against the per-job oracle.

The tuner's headline experiment. For each template of the short-job mix,
the oracle table is measured first (every static mode once on a fresh
idle cluster — on a deterministic simulator one run is the truth), then
the learning :class:`~repro.tuner.AutoModePicker` replays the template
``REGRET_ROUNDS`` times against an in-memory store and pays for what it
does not yet know.

Series (x = replay round):

* ``auto cumulative regret`` — seconds of regret accumulated by the
  picker's *actual* choices, summed across templates. Rises during the
  exploration sweep (each candidate must be measured once), then goes
  flat: after training, per-round regret is zero.
* ``auto exploit regret`` — per-round regret of the mode the picker
  would commit to (summed across templates): monotonically non-increasing
  and zero from the moment the oracle mode has been sampled.
* ``always-<mode> cumulative regret`` — the static policies' cumulative
  regret over the same rounds, the lines ``auto`` must undercut.

Headline claims (snapshot-gated in ``tests/test_figure_regression.py``):
after the training window the auto rounds' mean latency is no worse than
the best static mode's, and cumulative regret accrued post-training is
zero — every static policy except the oracle keeps paying forever.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import TunerConfig, a3_cluster
from ..trace import default_short_job_mix
from ..tuner import RegretReport, run_regret
from .harness import FigureResult, PaperClaim, Series

#: Replay rounds per template; the training window is one successful run
#: per candidate, i.e. 4 rounds.
REGRET_ROUNDS = 8
REGRET_SEED = 7
REGRET_CANDIDATES = TunerConfig.candidates
TRAINING_WINDOW = len(REGRET_CANDIDATES)


def regret_reports(rounds: int = REGRET_ROUNDS,
                   seed: int = REGRET_SEED) -> dict[str, RegretReport]:
    """One :class:`RegretReport` per short-job template."""
    spec = a3_cluster(4)
    return {template.name: run_regret(spec, template, rounds=rounds,
                                      seed=seed)
            for template in default_short_job_mix()}


def figureA1_online_regret(jobs: Optional[int] = None) -> FigureResult:
    """auto vs oracle: cumulative + exploit regret across replay rounds."""
    del jobs  # one cluster per round; the loop is cheap enough serial
    reports = regret_reports()
    rounds = REGRET_ROUNDS

    auto_cum = Series("auto cumulative regret")
    auto_exploit = Series("auto exploit regret")
    static_cum = {mode: Series(f"always-{mode} cumulative regret")
                  for mode in REGRET_CANDIDATES}
    for index in range(rounds):
        auto_cum.add(index, sum(rep.rounds[index].cumulative_regret_s
                                for rep in reports.values()))
        auto_exploit.add(index, sum(rep.rounds[index].exploit_regret_s
                                    for rep in reports.values()))
        for mode, series in static_cum.items():
            series.add(index, sum((rep.static_s[mode] - rep.oracle_s)
                                  * (index + 1) for rep in reports.values()))

    last = rounds - 1
    # Post-training regret: what auto accrued after every candidate was
    # sampled once. Zero iff the learned choice is the oracle.
    post_training = (auto_cum.at(last) - auto_cum.at(TRAINING_WINDOW - 1))
    trained_mean = _mean([r.elapsed_s for rep in reports.values()
                          for r in rep.trained_rounds(TRAINING_WINDOW)])
    best_static_mean = min(
        _mean([rep.static_s[mode] for rep in reports.values()])
        for mode in REGRET_CANDIDATES)
    monotone = all(
        a >= b - 1e-9
        for rep in reports.values()
        for a, b in zip(rep.exploit_regrets(), rep.exploit_regrets()[1:]))

    claims = [
        PaperClaim(
            "after the training window the auto rounds' mean latency "
            "matches the best static mode (learned choice == oracle)",
            paper_value=100.0,
            measured_value=(trained_mean / best_static_mean * 100.0
                            if best_static_mean else 0.0),
            tolerance=1.0,
        ),
        PaperClaim(
            "cumulative regret accrued after training is zero "
            "(auto stops paying; non-oracle static policies never do)",
            paper_value=0.0, unit="s",
            measured_value=post_training,
            tolerance=1e-6,
        ),
        PaperClaim(
            "per-signature exploit regret is monotonically non-increasing "
            "across repeats (fraction of templates)",
            paper_value=100.0,
            measured_value=100.0 if monotone else 0.0,
            tolerance=1e-6,
        ),
    ]
    oracle_modes = ", ".join(f"{name}:{rep.oracle_mode}"
                             for name, rep in sorted(reports.items()))
    return FigureResult(
        "Figure A1",
        "auto mode: online regret vs the per-signature oracle",
        "replay round",
        {s.name: s for s in
         [auto_cum, auto_exploit, *static_cum.values()]},
        claims=claims,
        notes=(f"{len(reports)} templates x {rounds} rounds on idle A3x4 "
               f"clusters (seed {REGRET_SEED}); candidates "
               f"{'/'.join(REGRET_CANDIDATES)}; training window "
               f"{TRAINING_WINDOW} rounds; oracles {oracle_modes}"),
    )


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


REGRET_FIGURES: dict[str, Callable[[], FigureResult]] = {
    "figureA1": figureA1_online_regret,
}
