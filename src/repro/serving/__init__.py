"""SLO-aware serving mode: admission control, degradation, autoscaling.

Turns the open-loop replay cluster into a *service* that degrades
gracefully under overload and node churn instead of letting queues grow
without bound. Enabled by setting ``HadoopConfig.serving`` to a
:class:`~repro.config.ServingConfig`; with the default (``None``) every
replay and figure is byte-identical to earlier releases.

See ``docs/serving.md`` for the design and Figure S1
(:mod:`repro.experiments.slosweep`) for the headline experiment.
"""

from ..config import SLO_BATCH, SLO_CLASSES, SLO_LATENCY, ServingConfig
from .admission import REASON_CAPACITY, REASON_DEADLINE, AdmissionController, Decision
from .autoscaler import Autoscaler
from .runtime import (
    OUTCOME_COMPLETED,
    SIGNAL_DISPATCH,
    SIGNAL_SHED,
    ServingRuntime,
)
from .slo import (
    OUTCOME_ADMITTED,
    OUTCOME_DEADLINE_MET,
    OUTCOME_DEADLINE_MISSED,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    SLOJob,
)

__all__ = [
    "AdmissionController",
    "Autoscaler",
    "Decision",
    "OUTCOME_ADMITTED",
    "OUTCOME_COMPLETED",
    "OUTCOME_DEADLINE_MET",
    "OUTCOME_DEADLINE_MISSED",
    "OUTCOME_REJECTED",
    "OUTCOME_SHED",
    "REASON_CAPACITY",
    "REASON_DEADLINE",
    "SIGNAL_DISPATCH",
    "SIGNAL_SHED",
    "SLO_BATCH",
    "SLO_CLASSES",
    "SLO_LATENCY",
    "SLOJob",
    "ServingConfig",
    "ServingRuntime",
]
