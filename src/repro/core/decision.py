"""Decision maker (paper §III-C steps 2 and 5).

Its ``winners`` map answers the *pre-decision*: has this job (by
signature) run before, and which mode won — "even if they were executed
with different input data"? The evaluator compares live profiler
estimates and names the loser to kill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .estimator import EstimatorInputs, estimate_dplus, estimate_uplus


@dataclass(frozen=True)
class FailureModel:
    """Expected failure-recovery cost added to each mode's estimate.

    Beyond-paper extension: U+ concentrates the whole job on one machine, so
    a crash there forfeits all progress (blast radius 1); D+ spreads tasks
    across the cluster, so one machine crashing costs roughly one node's
    share of the work (blast radius 1/N). With a per-node failure rate
    ``lambda`` and runtime ``t``, the chance some node fails during the run
    is ``1 - exp(-lambda * N * t)`` and the expected rework is that
    probability times ``blast_radius * t``. At realistic rates the term is
    tiny; it only tips near-tie decisions toward the spread-out mode on
    flaky clusters.
    """

    node_fail_rate_per_hour: float = 0.0
    cluster_nodes: int = 1

    def expected_recovery_s(self, runtime_s: float, blast_radius: float) -> float:
        if self.node_fail_rate_per_hour <= 0 or runtime_s <= 0:
            return 0.0
        rate_per_s = self.node_fail_rate_per_hour / 3600.0
        p_fail = 1.0 - math.exp(-rate_per_s * max(1, self.cluster_nodes) * runtime_s)
        return p_fail * blast_radius * runtime_s


@dataclass
class Decision:
    mode: str                     # "dplus" | "uplus"
    t_u: float
    t_d: float
    from_history: bool = False

    @property
    def loser(self) -> str:
        return "dplus" if self.mode == "uplus" else "uplus"


class DecisionMaker:
    """Chooses the faster mode, preferring history over live estimation."""

    def __init__(self, confidence_margin: float = 0.0,
                 failure_model: Optional[FailureModel] = None) -> None:
        #: Job signature -> the mode that last won a speculative race.
        self.winners: dict[str, str] = {}
        #: Require |t_u - t_d| to exceed this fraction of the larger estimate
        #: before killing (the paper kills "when the framework is confident
        #: that one mode is behind the other").
        self.confidence_margin = confidence_margin
        #: Optional expected-recovery-cost term (see :class:`FailureModel`).
        self.failure_model = failure_model

    def pre_decision(self, signature: str) -> Optional[str]:
        """Step 2: consult history before launching anything."""
        return self.winners.get(signature)

    def evaluate(self, inputs: EstimatorInputs) -> Decision:
        """Step 5: estimate both modes from profiler data."""
        t_u = estimate_uplus(inputs)
        t_d = estimate_dplus(inputs)
        if self.failure_model is not None:
            fm = self.failure_model
            # U+ loses everything to a crash on its one machine; D+ loses
            # about a single node's share of the spread-out work.
            t_u += fm.expected_recovery_s(t_u, 1.0)
            t_d += fm.expected_recovery_s(t_d, 1.0 / max(1, fm.cluster_nodes))
        mode = "uplus" if t_u <= t_d else "dplus"
        return Decision(mode=mode, t_u=t_u, t_d=t_d)

    def is_confident(self, decision: Decision) -> bool:
        hi = max(decision.t_u, decision.t_d)
        if hi <= 0:
            return False
        return abs(decision.t_u - decision.t_d) / hi >= self.confidence_margin
