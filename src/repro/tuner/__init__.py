"""Self-optimizing mode selection from run history (the ``auto`` mode).

The paper's decision maker is analytic: Eq. 1–3 predict D+ vs U+ from
profiled quantities. This package closes the loop — a durable
:class:`RunHistoryStore` remembers how each job *signature* actually
performed per mode, :meth:`RunHistoryStore.stats` folds those records
into per-cell service-time estimates (:class:`repro.metrics.SignatureStats`),
and an :class:`AutoModePicker` chooses per job among stock / D+ / U+ / uber
(optionally speculation): analytically while cold, explore-then-commit once
a store is attached.

Enabled via :class:`repro.config.TunerConfig` (``HadoopConfig.tuner``);
``None`` — the default — leaves every legacy code path byte-identical.
"""

from .picker import (SOURCE_ANALYTIC, SOURCE_EXPLORE, SOURCE_LEARNED,
                     AutoDecision, AutoModePicker, run_auto_job,
                     template_inputs)
from .regret import RegretReport, RegretRound, run_regret, static_baselines
from .store import (OUTCOME_FAILED, OUTCOME_KILLED, OUTCOME_SUCCESS,
                    PHASE_FIELDS, RunHistoryStore, RunRecord, phase_means,
                    record_from_result)

__all__ = [
    "AutoDecision", "AutoModePicker",
    "OUTCOME_FAILED", "OUTCOME_KILLED", "OUTCOME_SUCCESS", "PHASE_FIELDS",
    "RegretReport", "RegretRound", "RunHistoryStore", "RunRecord",
    "SOURCE_ANALYTIC", "SOURCE_EXPLORE", "SOURCE_LEARNED",
    "phase_means", "record_from_result", "run_auto_job", "run_regret",
    "static_baselines", "template_inputs",
]
