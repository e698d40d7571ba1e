"""SLO classes and per-job deadline resolution.

The serving layer (:mod:`repro.serving`) distinguishes two tenant classes,
mirroring the split the paper's motivation draws between ad-hoc query
traffic and background jobs:

* ``latency`` — short, interactive jobs with a per-job deadline (absolute
  seconds after arrival). These are what MRapid exists for; the admission
  controller protects them under overload.
* ``batch`` — throughput work with no deadline. Batch is what gets shed
  first when the cluster cannot keep up (Pastorelli et al.'s size-based
  discipline: protecting short jobs costs large jobs little).

Admission sizes jobs with a :class:`~repro.metrics.SignatureStats` EWMA
per job signature over completed *service* times (dispatch to finish, so
queueing under load never inflates the estimate). It is the same learner
HFSP's size training uses, but fed with admission's own samples, so
admission works with every RM scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SLO_BATCH, SLO_CLASSES, SLO_LATENCY

__all__ = [
    "SLO_BATCH",
    "SLO_CLASSES",
    "SLO_LATENCY",
    "SLOJob",
    "OUTCOME_ADMITTED",
    "OUTCOME_REJECTED",
    "OUTCOME_SHED",
    "OUTCOME_DOWNGRADED",
    "OUTCOME_DEADLINE_MET",
    "OUTCOME_DEADLINE_MISSED",
]

#: Per-job serving outcomes surfaced in ``LoadReport``/``repro trace --json``.
OUTCOME_ADMITTED = "admitted"
OUTCOME_REJECTED = "rejected"
OUTCOME_SHED = "shed"
OUTCOME_DOWNGRADED = "downgraded"
OUTCOME_DEADLINE_MET = "deadline_met"
OUTCOME_DEADLINE_MISSED = "deadline_missed"


@dataclass(frozen=True)
class SLOJob:
    """The admission controller's resolved view of one arrival.

    ``deadline_s`` is an *absolute* simulated timestamp (arrival + relative
    deadline); batch jobs carry ``inf``. Immutable so controller decisions
    can never mutate the job they judge.
    """

    index: int
    name: str
    slo_class: str
    arrival_s: float
    deadline_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r}; use one of {SLO_CLASSES}")

    @property
    def is_latency(self) -> bool:
        return self.slo_class == SLO_LATENCY
