"""Size-based admission control with a bounded pending queue.

The controller sits between trace arrivals and YARN submission. Its job is
to make overload *graceful*: instead of letting an unbounded queue grow
(every job suffers equally, deadlines become fiction), it

1. predicts each arrival's sojourn from its size estimate and the backlog
   already admitted, and rejects latency jobs whose prediction already
   busts their deadline — failing in milliseconds instead of missing in
   minutes;
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
from .slo import OUTCOME_ADMITTED, OUTCOME_REJECTED, SLOJob

#: Rejection reasons recorded in :class:`Decision.reason`.
REASON_DEADLINE = "deadline"
REASON_CAPACITY = "capacity"

#: Pending-queue fraction at which the degradation ladder reaches level 1.
DEGRADE_AT_PENDING_FRACTION = 0.5


@dataclass(frozen=True)
class Decision:
    """Outcome of one :meth:`AdmissionController.offer` call."""

    job: SLOJob
    outcome: str                       # admitted | rejected
    reason: str = ""                   # deadline | capacity (rejections)
    predicted_sojourn_s: float = 0.0
    #: Pending batch job evicted to make room for this (latency) admission.
    shed: Optional[SLOJob] = None

    @property
    def admitted(self) -> bool:
        return self.outcome == OUTCOME_ADMITTED


@dataclass
class AdmissionController:
    """Bounded, SLO-class-aware admission + dispatch front of the cluster."""

    conf: ServingConfig
    #: Job signature -> completed service times (dispatch to finish).
    sizes: dict[str, SignatureStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.conf.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._pending: list[SLOJob] = []
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
        if fraction >= DEGRADE_AT_PENDING_FRACTION:
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
        return (sum(self.size_estimate_s(job.name) for job in self._pending)
                + sum(self._running.values()))

    def predicted_sojourn_s(self, job: SLOJob, slots: int) -> float:
        """Service estimate plus the backlog's drain time through ``slots``."""
        return (self.size_estimate_s(job.name)
                + self.backlog_s() / max(1, slots))

    # -- admission -------------------------------------------------------------
    def offer(self, job: SLOJob, now: float, slots: int) -> Decision:
        """Admit or reject one arrival (possibly shedding batch)."""
        predicted = self.predicted_sojourn_s(job, slots)
        if job.is_latency and now + predicted > job.deadline_s:
            return Decision(job, OUTCOME_REJECTED, REASON_DEADLINE,
                            predicted_sojourn_s=predicted)

        shed: Optional[SLOJob] = None
        if len(self._pending) >= self.conf.max_pending:
            shed = self._youngest_pending_batch() if job.is_latency else None
            if shed is None:
                return Decision(job, OUTCOME_REJECTED, REASON_CAPACITY,
                                predicted_sojourn_s=predicted)
            self._pending.remove(shed)

        self._pending.append(job)
        return Decision(job, OUTCOME_ADMITTED, predicted_sojourn_s=predicted,
                        shed=shed)

    def _youngest_pending_batch(self) -> Optional[SLOJob]:
        batches = [job for job in self._pending if not job.is_latency]
        if not batches:
            return None
        return max(batches, key=lambda job: job.index)

    # -- dispatch --------------------------------------------------------------
    def next_dispatch(self, slots: int) -> Optional[SLOJob]:
        """Pop the next pending job if a slot is free (None = keep waiting).

        Latency jobs go earliest-deadline-first; batch follows FIFO behind
        them.
        """
        if not self._pending or len(self._running) >= max(1, slots):
            return None
        job = min(self._pending, key=self._dispatch_key)
        self._pending.remove(job)
        self._running[job.index] = self.size_estimate_s(job.name)
        return job

    @staticmethod
    def _dispatch_key(job: SLOJob) -> tuple:
        return ((0, job.deadline_s, job.index) if job.is_latency
                else (1, 0.0, job.index))

    def job_finished(self, index: int, name: str, service_s: float) -> None:
        """A dispatched job left the system: free its slot, train its size."""
        self._running.pop(index, None)
        self.sizes.setdefault(name, SignatureStats()).observe(service_s)

    def job_aborted(self, index: int) -> None:
        """A dispatched job died (killed/failed): free the slot, no training."""
        self._running.pop(index, None)
