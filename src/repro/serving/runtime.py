"""ServingRuntime: wires admission, degradation, and autoscaling into a replay.

This is the only serving component that touches the simulation environment.
The :class:`~repro.serving.admission.AdmissionController` stays pure; the
runtime clocks it, parks admitted jobs on dispatch events, resolves shed
victims, feeds completion samples back to admission's size estimates, and
(when enabled) runs the :class:`~repro.serving.autoscaler.Autoscaler`
against the live NodeManager fleet.

The replay driver (:func:`repro.trace.replay_load`) drives it per job:

1. ``slo = runtime.resolve(trace_job)`` — fix SLO class and absolute deadline;
2. ``decision = runtime.offer(slo)`` — admission (driver handles
   retry-with-backoff on rejection);
3. ``signal = yield runtime.dispatch_event(slo)`` — waits for a slot;
   resolves ``"dispatch"`` or ``"shed"`` (evicted while pending);
4. submit through the normal strategy path, possibly degraded
   (``runtime.degraded_mode_for(slo)``);
5. ``outcome = runtime.job_finished(slo, service_s)`` (or ``job_aborted``).

With ``admission=False`` (the "static" arm of Figure S1) steps 2–3 are
pass-throughs and only deadline accounting remains, so static runs measure
the same attainment metric through the same code path.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Generator, Optional

from ..config import SLO_LATENCY, ServingConfig
from ..metrics import StreamingRatio
from ..simulation.events import CONTROL
from .admission import AdmissionController, Decision
from .autoscaler import Autoscaler
from .slo import (
    OUTCOME_DEADLINE_MET,
    OUTCOME_DEADLINE_MISSED,
    OUTCOME_REJECTED,
    SLOJob,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..simulation.events import Event
    from ..trace import TraceJob

#: Values a dispatch event resolves with.
SIGNAL_DISPATCH = "dispatch"
SIGNAL_SHED = "shed"

#: Outcome of a batch job that simply completed (no deadline to meet).
OUTCOME_COMPLETED = "completed"

#: Window size for the autoscaler's *recent* attainment signal; small enough
#: to react within a few tens of completions, large enough not to flap on one
#: miss.
_RECENT_WINDOW = 20
_RECENT_MIN_SAMPLES = 5


class ServingRuntime:
    """Per-replay serving state machine (one instance per ``replay_load``)."""

    def __init__(self, cluster: "SimCluster", serving: ServingConfig) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.serving = serving
        self.controller = AdmissionController(serving)
        self._waiters: dict[int, "Event"] = {}
        #: Dispatch tickets: job index -> the monotone sequence number of
        #: its controller dispatch. One ``_pump`` call can free several
        #: jobs at the same simulated instant; their driver processes then
        #: resume in kernel tie-break order, so the ticket — not resume
        #: order — carries the controller's EDF decision downstream (it
        #: becomes the YARN AM queue's ``fifo_key``).
        self._tickets: dict[int, int] = {}
        self._dispatch_seq = count()
        self._static_in_flight = 0
        self.attainment = StreamingRatio()
        self._recent: deque[int] = deque(maxlen=_RECENT_WINDOW)
        self.counts = {
            "latency_jobs": 0, "batch_jobs": 0,
            "admitted": 0, "downgraded": 0, "rejected": 0, "shed": 0,
            "retries": 0, "deadline_met": 0, "deadline_missed": 0,
            "batch_completed": 0,
        }
        self.reject_reasons: dict[str, int] = {}
        self._node_hours: Optional[float] = None
        self.autoscaler: Optional[Autoscaler] = None
        if serving.autoscale:
            self.autoscaler = Autoscaler(
                cluster, serving, self,
                attainment=self.recent_attainment,
                on_capacity_change=self._pump)
        elif serving.admission:
            # Watchdog pump: dispatch normally rides on completions and
            # capacity changes, but if every healthy node dies mid-burst the
            # queue must not deadlock waiting for a completion that cannot
            # come. Fixed period, so replays stay deterministic.
            self.env.process(self._watchdog(), name="serving-pump")

    # -- capacity (also the Autoscaler's controller view) ----------------------
    @property
    def pending_count(self) -> int:
        return self.controller.pending_count if self.serving.admission else 0

    @property
    def running_count(self) -> int:
        return (self.controller.running_count if self.serving.admission
                else self._static_in_flight)

    def healthy_nodes(self) -> int:
        return sum(1 for nm in self.cluster.node_managers
                   if not nm.failed and not nm.drained)

    def slots(self) -> int:
        return self.healthy_nodes() * self.serving.slots_per_node

    # -- SLO resolution --------------------------------------------------------
    def resolve(self, job: "TraceJob") -> SLOJob:
        """Fix a trace arrival's SLO class and *absolute* deadline.

        ``job`` needs ``index``/``signature``/``arrival_s``/``slo_class``/
        ``deadline_s`` (:class:`repro.trace.TraceJob` provides them; the
        per-job deadline is relative to arrival, ``None`` meaning the
        config-wide ``latency_deadline_s``).
        """
        slo_class = job.slo_class
        if slo_class == SLO_LATENCY:
            relative = (job.deadline_s if job.deadline_s is not None
                        else self.serving.latency_deadline_s)
            deadline = job.arrival_s + relative
            self.counts["latency_jobs"] += 1
        else:
            deadline = float("inf")
            self.counts["batch_jobs"] += 1
        return SLOJob(index=job.index, name=job.signature, slo_class=slo_class,
                      arrival_s=job.arrival_s, deadline_s=deadline)

    # -- admission -------------------------------------------------------------
    def offer(self, slo: SLOJob) -> Decision:
        """Run one (re-)submission through admission; wire up dispatch."""
        if not self.serving.admission:
            self.counts["admitted"] += 1
            self._static_in_flight += 1
            return Decision(slo, "admitted")
        decision = self.controller.offer(slo, self.env.now, self.slots())
        if decision.admitted:
            self.counts["admitted"] += 1
            if decision.outcome == "downgraded":
                self.counts["downgraded"] += 1
            self._waiters[slo.index] = self.env.event()
            if decision.shed is not None:
                self._resolve_shed(decision.shed)
            self._pump()
        return decision

    def record_retry(self) -> None:
        self.counts["retries"] += 1

    def record_rejection(self, decision: Decision) -> str:
        """A submission gave up (retries exhausted): final outcome."""
        self.counts["rejected"] += 1
        reason = decision.reason or "capacity"
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1
        return OUTCOME_REJECTED

    def retry_delay_s(self, attempt: int) -> float:
        """Deterministic exponential backoff for rejected submissions."""
        return self.serving.retry_backoff_s * (2 ** attempt)

    # -- dispatch --------------------------------------------------------------
    def wait_dispatch(self, slo: SLOJob) -> Generator:
        """Wait for this admitted job's slot (``yield from`` in the driver).

        Returns ``"dispatch"`` or ``"shed"``. The waiter entry lives until
        the driver consumes the signal here — it may resolve synchronously
        inside :meth:`offer` (slot free on arrival) or much later — so the
        waiter map stays bounded by the pending+running population.
        """
        if not self.serving.admission:
            return SIGNAL_DISPATCH
        signal = yield self._waiters[slo.index]
        self._waiters.pop(slo.index, None)
        return signal

    def dispatch_ticket(self, slo: SLOJob) -> Optional[int]:
        """This job's dispatch sequence number (once; ``None`` thereafter).

        The driver forwards it to the submission path as the application's
        stable FIFO key, so same-instant dispatches reach the RM's AM queue
        in controller order regardless of event tie-breaking.
        """
        return self._tickets.pop(slo.index, None)

    def degraded_mode_for(self, slo: SLOJob) -> bool:
        """True when the overload ladder is active for this dispatch: the
        driver forces uber/U+ for latency jobs and suspends speculation for
        batch. Queried at dispatch time so the level reflects *current*
        backlog, not the backlog at admission."""
        return (self.serving.admission and self.serving.degradation
                and self.controller.degradation_level() >= 1)

    def _pump(self) -> None:
        if not self.serving.admission:
            return
        while True:
            job = self.controller.next_dispatch(self.slots())
            if job is None:
                return
            self._tickets[job.index] = next(self._dispatch_seq)
            waiter = self._waiters.get(job.index)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(SIGNAL_DISPATCH)

    def _resolve_shed(self, victim: SLOJob) -> None:
        self.counts["shed"] += 1
        waiter = self._waiters.get(victim.index)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(SIGNAL_SHED)

    def _watchdog(self) -> Generator:
        while True:
            yield self.env.timeout(self.serving.autoscale_interval_s,
                                   priority=CONTROL)
            self._pump()

    # -- completion ------------------------------------------------------------
    def job_finished(self, slo: SLOJob, service_s: float) -> str:
        """Successful completion: train the size estimate, settle the deadline."""
        if self.serving.admission:
            self.controller.job_finished(slo.index, slo.name, service_s)
        else:
            self._static_in_flight -= 1
        self._tickets.pop(slo.index, None)
        if slo.is_latency:
            met = self.env.now <= slo.deadline_s
            self.attainment.add(met)
            self._recent.append(1 if met else 0)
            outcome = OUTCOME_DEADLINE_MET if met else OUTCOME_DEADLINE_MISSED
        else:
            outcome = OUTCOME_COMPLETED
        self.counts[outcome if slo.is_latency else "batch_completed"] += 1
        self._pump()
        return outcome

    def job_aborted(self, slo: SLOJob) -> None:
        """A dispatched job died (killed or failed): free its slot only."""
        if self.serving.admission:
            self.controller.job_aborted(slo.index)
        else:
            self._static_in_flight -= 1
        self._tickets.pop(slo.index, None)
        self._pump()

    def recent_attainment(self) -> float:
        """Windowed attainment for the autoscaler (1.0 until enough data)."""
        if len(self._recent) < _RECENT_MIN_SAMPLES:
            return 1.0
        return sum(self._recent) / len(self._recent)

    # -- reporting -------------------------------------------------------------
    def finish(self, makespan_s: float) -> None:
        """Close the books at end of replay (node-hours accounting)."""
        if self.autoscaler is not None:
            self.autoscaler.finish()
            self._node_hours = self.autoscaler.stats()["node_hours"]
        else:
            # Static provisioning pays for every node for the whole run.
            self._node_hours = round(
                len(self.cluster.node_managers) * makespan_s / 3600.0, 6)

    def summary(self, digits: int = 6) -> dict:
        """The ``slo`` section of :class:`repro.trace.LoadReport`."""
        out = dict(self.counts)
        out["attainment"] = self.attainment.to_dict(digits)
        out["reject_reasons"] = {k: self.reject_reasons[k]
                                 for k in sorted(self.reject_reasons)}
        if self._node_hours is not None:
            out["node_hours"] = self._node_hours
        if self.autoscaler is not None:
            out["autoscaler"] = self.autoscaler.stats()
        return out
