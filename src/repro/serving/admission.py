"""Size-based admission control with a bounded pending queue.

The controller sits between trace arrivals and YARN submission. Its job is
to make overload *graceful*: instead of letting an unbounded queue grow
(every job suffers equally, deadlines become fiction), it

1. predicts each arrival's sojourn from its size estimate and the backlog
   already admitted, and rejects (or, configurably, downgrades to batch)
   latency jobs whose prediction already busts their deadline — failing in
   milliseconds instead of missing in minutes;
2. bounds the pending queue at ``max_pending`` and, when full, sheds batch
   work first: a latency arrival evicts the youngest pending batch job;
   a batch arrival is simply rejected. A latency job is never shed to make
   room for batch (the property suite proves both invariants);
3. dispatches pending jobs into a concurrency window sized by the number of
   *healthy* nodes (``slots_per_node`` each) — earliest-deadline-first for
   latency, FIFO for batch behind them.

The controller is pure bookkeeping over :class:`~repro.serving.slo.SLOJob`
values: no simulation environment, no clocks of its own, every method takes
``now`` explicitly. That keeps it deterministic by construction and lets
the Hypothesis property tests drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import ServingConfig
from ..metrics import SignatureStats
from .slo import (
    OUTCOME_ADMITTED,
    OUTCOME_DOWNGRADED,
    OUTCOME_REJECTED,
    SLO_BATCH,
    SLOJob,
)

#: Rejection reasons recorded in :class:`Decision.reason`.
REASON_DEADLINE = "deadline"
REASON_CAPACITY = "capacity"


@dataclass(frozen=True)
class Decision:
    """Outcome of one :meth:`AdmissionController.offer` call."""

    job: SLOJob
    outcome: str                       # admitted | rejected | downgraded
    reason: str = ""                   # deadline | capacity (rejections)
    predicted_sojourn_s: float = 0.0
    #: Pending batch job evicted to make room for this (latency) admission.
    shed: Optional[SLOJob] = None

    @property
    def admitted(self) -> bool:
        return self.outcome in (OUTCOME_ADMITTED, OUTCOME_DOWNGRADED)


@dataclass
class _Pending:
    job: SLOJob
    admitted_at: float
    #: True when a deadline-busting latency job was demoted to batch.
    downgraded: bool = False

    @property
    def effective_class(self) -> str:
        return SLO_BATCH if self.downgraded else self.job.slo_class


@dataclass
class AdmissionController:
    """Bounded, SLO-class-aware admission + dispatch front of the cluster."""

    conf: ServingConfig
    #: Job signature -> completed service times (dispatch to finish).
    sizes: dict[str, SignatureStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.conf.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._pending: list[_Pending] = []
        self._running: dict[int, float] = {}   # job index -> size estimate

    # -- introspection -------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def pending_fraction(self) -> float:
        return len(self._pending) / self.conf.max_pending

    def degradation_level(self) -> int:
        """Overload ladder: 0 normal, 1 elevated, 2 saturated.

        Level 1 forces uber/U+ mode for admitted latency jobs and suspends
        speculation for batch (the driver applies the mode mapping); level 2
        additionally means the pending queue is full, so batch arrivals are
        being shed.
        """
        if not self.conf.degradation:
            return 0
        fraction = self.pending_fraction()
        if fraction >= 1.0:
            return 2
        if fraction >= self.conf.degrade_at_pending_fraction:
            return 1
        return 0

    # -- prediction -----------------------------------------------------------
    def size_estimate_s(self, name: str) -> float:
        """Service-time EWMA of one signature; unseen ones get the optimistic
        ``initial_guess_s``, so new job types are measured, not rejected."""
        stats = self.sizes.get(name)
        if stats is None or stats.ewma is None:
            return self.conf.initial_guess_s
        return stats.ewma

    def backlog_s(self) -> float:
        """Estimated work admitted but not finished (pending + running)."""
        return (sum(self.size_estimate_s(p.job.name) for p in self._pending)
                + sum(self._running.values()))

    def predicted_sojourn_s(self, job: SLOJob, slots: int) -> float:
        """Service estimate plus the backlog's drain time through ``slots``."""
        return (self.size_estimate_s(job.name)
                + self.backlog_s() / max(1, slots))

    # -- admission -------------------------------------------------------------
    def offer(self, job: SLOJob, now: float, slots: int) -> Decision:
        """Admit, downgrade, or reject one arrival (possibly shedding batch)."""
        predicted = self.predicted_sojourn_s(job, slots)
        downgraded = False
        if job.is_latency and now + predicted > job.deadline_s:
            if not self.conf.downgrade_over_reject:
                return Decision(job, OUTCOME_REJECTED, REASON_DEADLINE,
                                predicted_sojourn_s=predicted)
            downgraded = True

        shed: Optional[SLOJob] = None
        if len(self._pending) >= self.conf.max_pending:
            victim = self._youngest_pending_batch() if (job.is_latency
                                                        and not downgraded) else None
            if victim is None:
                return Decision(job, OUTCOME_REJECTED, REASON_CAPACITY,
                                predicted_sojourn_s=predicted)
            self._pending.remove(victim)
            shed = victim.job

        self._pending.append(_Pending(job, admitted_at=now, downgraded=downgraded))
        outcome = OUTCOME_DOWNGRADED if downgraded else OUTCOME_ADMITTED
        return Decision(job, outcome, predicted_sojourn_s=predicted, shed=shed)

    def offer_batch(self, jobs: list[SLOJob], now: float,
                    slots: int) -> list[Decision]:
        """Judge a set of equal-time arrivals in canonical order.

        Arrivals that share a timestamp are sorted latency-first, then by
        index, before being offered one at a time — so the decisions depend
        only on *what* arrived, never on the submission order the transport
        happened to deliver (the permutation-invariance property).
        """
        ordered = sorted(jobs, key=lambda j: (0 if j.is_latency else 1, j.index))
        return [self.offer(job, now, slots) for job in ordered]

    def _youngest_pending_batch(self) -> Optional[_Pending]:
        batches = [p for p in self._pending if p.effective_class == SLO_BATCH]
        if not batches:
            return None
        return max(batches, key=lambda p: p.job.index)

    # -- dispatch --------------------------------------------------------------
    def next_dispatch(self, slots: int) -> Optional[SLOJob]:
        """Pop the next pending job if a slot is free (None = keep waiting).

        Latency jobs go earliest-deadline-first; batch follows FIFO behind
        them. Downgraded jobs dispatch with batch.
        """
        if not self._pending or len(self._running) >= max(1, slots):
            return None
        entry = min(self._pending, key=self._dispatch_key)
        self._pending.remove(entry)
        self._running[entry.job.index] = self.size_estimate_s(entry.job.name)
        return entry.job

    @staticmethod
    def _dispatch_key(entry: _Pending) -> tuple:
        latency = entry.effective_class != SLO_BATCH
        return ((0, entry.job.deadline_s, entry.job.index) if latency
                else (1, 0.0, entry.job.index))

    def job_finished(self, index: int, name: str, service_s: float) -> None:
        """A dispatched job left the system: free its slot, train its size."""
        self._running.pop(index, None)
        self.sizes.setdefault(name, SignatureStats()).observe(service_s)

    def job_aborted(self, index: int) -> None:
        """A dispatched job died (killed/failed): free the slot, no training."""
        self._running.pop(index, None)
