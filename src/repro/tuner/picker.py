"""The ``auto`` mode picker: learned estimates with an analytic cold start.

Per arriving job the picker chooses among the tuner candidates —
``stock`` (plain client, Hadoop's uber-eligibility rule), ``dplus``,
``uplus``, ``uber``, optionally ``speculative`` — in three regimes:

* **analytic** — no store attached (``TunerConfig.history_db`` unset):
  the decision is *exactly* the paper's Eq. 1–3 comparison,
  :func:`repro.core.estimator.pick_mode`, decision for decision. This is
  the metamorphic baseline the regression gate pins.
* **explore** — a store is attached but some candidate has no successful
  run of this signature yet: run the untrained candidate with the
  *lowest analytic estimate* (ties by candidate order). Exploring the
  analytically-best arm first means the committed-policy regret never
  rises while the sweep fills in — the monotonicity the oracle-regret
  suite asserts.
* **learned** — every candidate trained: argmin of the cells' EWMAs
  (:meth:`~repro.tuner.store.RunHistoryStore.stats`, ties by candidate
  order). On a deterministic cluster this is the per-signature
  oracle after one sweep.

Everything is deterministic — no RNG, no wall clock — so replays with a
tuner are as snapshot-stable as replays without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from ..config import TunerConfig
from ..core.estimator import EstimatorInputs, analytic_estimates, pick_mode
from ..core.submit import run_job
from .store import OUTCOME_SUCCESS, RunHistoryStore, RunRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..workloads.base import WorkloadProfile

#: Decision provenance labels (surfaced in reports and per-job rows).
SOURCE_ANALYTIC = "analytic"
SOURCE_EXPLORE = "explore"
SOURCE_LEARNED = "learned"


@dataclass(frozen=True)
class AutoDecision:
    """One per-job mode choice and the estimates that produced it."""

    mode: str
    source: str
    #: Candidate -> predicted seconds: analytic (Eq. 1–3) in the analytic
    #: and explore regimes, learned EWMAs once trained.
    estimates: Mapping[str, float] = field(default_factory=dict)


def template_inputs(cluster: "SimCluster", num_files: int, file_mb: float,
                    profile: "WorkloadProfile") -> EstimatorInputs:
    """Table I inputs for a not-yet-run job, from its template.

    The same construction the speculation profiler uses once maps finish
    (:func:`repro.core.profiler.estimator_inputs_from`), but fed from the
    template's declared sizes instead of measurements — what the decision
    maker can know *before* launching anything. ``n_c`` is the cluster's
    free-container count at decision time, so the analytic choice shifts
    with load exactly like the paper's §III-C threshold discussion.
    """
    from ..core.profiler import ProfileSnapshot, estimator_inputs_from

    snapshot = ProfileSnapshot(
        maps_total=max(1, num_files), maps_finished=max(1, num_files),
        avg_map_compute_s=profile.map_cpu_s(file_mb),
        avg_input_mb=file_mb,
        avg_output_mb=profile.map_output_mb(file_mb))
    framework = getattr(cluster, "mrapid_framework", None)
    maps_per_vcore = (framework.mrapid.maps_per_vcore
                      if framework is not None else 1)
    n_u_m = max(1, cluster.spec.instance.cores * maps_per_vcore)
    return estimator_inputs_from(cluster, snapshot, n_u_m=n_u_m)


class AutoModePicker:
    """Explore-then-exploit mode choice over a run-history store."""

    def __init__(self, store: Optional[RunHistoryStore] = None,
                 config: Optional[TunerConfig] = None) -> None:
        self.config = config if config is not None else TunerConfig()
        self.store = store
        #: Decision provenance counters (report/CI smoke surface).
        self.sources: dict[str, int] = {}

    def decide(self, signature: str, inputs: EstimatorInputs) -> AutoDecision:
        analytic = analytic_estimates(inputs)
        if self.store is None:
            # Byte-for-byte the Eq. 1–3 decision: same comparison, same
            # tie-break ("uplus" iff t_u <= t_d) — the metamorphic gate.
            decision = AutoDecision(pick_mode(inputs), SOURCE_ANALYTIC,
                                    analytic)
        else:
            decision = self._decide_learning(signature, analytic)
        self.sources[decision.source] = self.sources.get(decision.source, 0) + 1
        return decision

    def _decide_learning(self, signature: str,
                         analytic: Mapping[str, float]) -> AutoDecision:
        candidates = self.config.candidates
        stats = {m: self.store.stats(signature, m) for m in candidates}
        untrained = [m for m in candidates if not stats[m].count]
        if untrained:
            mode = min(untrained,
                       key=lambda m: (analytic.get(m, float("inf")),
                                      candidates.index(m)))
            return AutoDecision(mode, SOURCE_EXPLORE, dict(analytic))
        learned = {m: stats[m].ewma for m in candidates}
        mode = min(candidates,
                   key=lambda m: (learned[m], candidates.index(m)))
        return AutoDecision(mode, SOURCE_LEARNED, learned)

    def best(self, signature: str) -> Optional[str]:
        """Argmin EWMA among candidates with a success (ties: candidate
        order); ``None`` without a store or before any success."""
        if self.store is None:
            return None
        scored = []
        for idx, mode in enumerate(self.config.candidates):
            stats = self.store.stats(signature, mode)
            if stats.count:
                scored.append((stats.ewma, idx, mode))
        return min(scored)[2] if scored else None

    def exploit_mode(self, signature: str,
                     inputs: EstimatorInputs) -> str:
        """The mode the picker would *commit to* now, exploration aside.

        With no samples yet this is the analytic choice; with any, the
        argmin EWMA over sampled candidates. The regret suite tracks this
        policy's regret, which is non-increasing by construction (the
        sampled set only grows and measurements never change).
        """
        best = self.best(signature)
        return best if best is not None else pick_mode(inputs)

    def observe(self, signature: str, mode: str, elapsed_s: float,
                outcome: str = OUTCOME_SUCCESS, *, input_mb: float = 0.0,
                am_overhead_s: float = 0.0,
                phases: Optional[Mapping[str, float]] = None,
                finished_at: float = 0.0) -> None:
        """Record one run into the store (no-op when learning is off)."""
        self.observe_record(RunRecord(
            signature=signature, mode=mode, elapsed_s=elapsed_s,
            outcome=outcome, input_mb=input_mb,
            am_overhead_s=am_overhead_s, phases=phases or {},
            finished_at=finished_at))

    def observe_record(self, record: RunRecord) -> None:
        """Record a pre-built :class:`RunRecord` (no-op when learning is off)."""
        if self.store is None:
            return
        self.store.record(record)

    def report(self) -> dict:
        """JSON-stable tuner section for :class:`repro.trace.LoadReport`."""
        out: dict = {"learning": self.store is not None,
                     "sources": {k: self.sources[k]
                                 for k in sorted(self.sources)}}
        if self.store is not None:
            out["store_records"] = len(self.store)
            out["store_signatures"] = self.store.signatures()
        return out


def run_auto_job(cluster: "SimCluster", spec, picker: AutoModePicker,
                 *, num_files: int, file_mb: float):
    """Decide and run one job on an idle trace cluster; record the outcome.

    Returns ``(result, decision)``. The cluster must carry a
    ``mrapid_framework`` (build it with
    :func:`repro.trace.build_trace_cluster` and any non-stock strategy).
    Used by ``repro run --mode auto --history-db`` and the regret harness.
    """
    from .store import record_from_result

    inputs = template_inputs(cluster, num_files, file_mb, spec.profile)
    decision = picker.decide(spec.signature, inputs)
    result = run_job(cluster, spec, decision.mode)
    picker.observe_record(record_from_result(
        result, spec.signature, decision.mode,
        input_mb=num_files * file_mb, finished_at=cluster.env.now))
    return result, decision
