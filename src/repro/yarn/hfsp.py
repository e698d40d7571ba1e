"""HFSP: practical size-based scheduling for short-job-heavy traffic.

Pastorelli et al. ("HFSP: Size-based Scheduling for Hadoop", and the
follow-up "Practical Size-based Scheduling for MapReduce Workloads") show
that when most jobs are short — exactly the regime MRapid targets — ordering
jobs by *estimated remaining size* dominates both FIFO and fair sharing on
mean sojourn time. This module brings that discipline to the simulated RM:

* **Training phase.** A job's size is unknown at submission. Jobs whose
  signature (application name) has fewer than ``training_samples`` completed
  runs are *in training*: they are scheduled with a small optimistic size
  guess so the cluster measures them quickly, the same first-samples
  strategy :mod:`repro.core.estimator` uses to feed the D+ decision maker.
  Completed runs update a per-signature :class:`~repro.metrics
  .SignatureStats`, whose mean is the trained size. A replay with a run
  history warm-starts that table (:meth:`repro.tuner.RunHistoryStore
  .warm`), so signatures a previous replay measured skip training.

* **Virtual-time aging.** A pure smallest-job-first order starves large
  jobs under sustained short-job arrivals. Every job's priority key is
  ``estimated_size − aging_rate × wait``, so a waiting job's key falls
  linearly in (simulated) wall time and eventually undercuts any freshly
  arrived job, whose key is bounded below by ``−aging_rate × 0 = 0`` minus
  nothing. Starvation is impossible for ``aging_rate > 0`` (the property
  suite checks this with adversarial size mixes).

* **Preemption-free.** Ordering only decides *grant order*; a granted
  container always runs to completion. This matches the paper's finding
  that task-granularity preemption buys little for short jobs and keeps
  the scheduler compatible with every AM in the tree.

The scheduler is heartbeat-driven like stock Hadoop (its
``on_allocate_request`` only queues asks): MRapid's D+ same-heartbeat trick
is a separate axis, exercised by running the submission framework on top
(see ``repro.trace``).
"""

from __future__ import annotations

from ..metrics import SignatureStats
from .records import Application, Container, NodeState
from .scheduler import PendingAsk, SchedulerBase


class HFSPScheduler(SchedulerBase):
    """Size-based (HFSP-style) scheduler with training and aging."""

    def __init__(self, training_samples: int = 2, initial_guess_s: float = 8.0,
                 aging_rate: float = 0.1, memory_only: bool = False) -> None:
        super().__init__()
        if training_samples < 1:
            raise ValueError("training_samples must be >= 1")
        if initial_guess_s <= 0:
            raise ValueError("initial_guess_s must be positive")
        if aging_rate < 0:
            raise ValueError("aging_rate cannot be negative")
        self.training_samples = training_samples
        self.initial_guess_s = initial_guess_s
        self.aging_rate = aging_rate
        #: ``True`` reproduces Hadoop 2.2's DefaultResourceCalculator
        #: (memory-only packing); HFSP defaults to multi-dimensional fit.
        self.memory_only = memory_only
        #: signature/name -> completed service-time statistics.
        self.sizes: dict[str, SignatureStats] = {}

    # -- size estimation -----------------------------------------------------
    def is_trained(self, name: str) -> bool:
        stats = self.sizes.get(name)
        return stats is not None and stats.count >= self.training_samples

    def estimated_size_s(self, name: str) -> float:
        """Current size estimate for one signature (guess while training)."""
        if self.is_trained(name):
            return self.sizes[name].mean_s
        return self.initial_guess_s

    def priority_key(self, app: Application, now: float) -> tuple:
        """Aged HFSP key: lower schedules first; the job's arrival ``seq``
        breaks ties (app ids are drawn in kernel order, arrivals are not).

        ``estimated_size − aging_rate × wait`` decreases without bound as a
        job waits, so every job eventually outranks all later arrivals. The
        wait runs from ``submit_time`` (set once by whoever submits), never
        from the instant HFSP first looks at the job: when that is depends
        on which beats the heartbeat wheel delivers.
        """
        size = self.estimated_size_s(app.name)
        return (size - self.aging_rate * (now - app.submit_time), app.seq)

    def on_node_heartbeat(self, node: NodeState) -> list[tuple[str, Container]]:
        now = self.rm.env.now
        grants: list[tuple[str, Container]] = []
        # Priority keys are fixed for the whole heartbeat (estimates only
        # move when an app *finishes*, which cannot happen inside this
        # call), so one sort + one pass grants exactly what a
        # grant-then-re-rank loop would — the node's availability only
        # shrinks, so previously skipped asks can never fit on a re-rank.
        granted: set[int] = set()
        for pending in self._pending_in_order(now):
            if node.node_id in pending.request.blacklist:
                continue
            if not node.can_fit(pending.request.resource,
                                memory_only=self.memory_only):
                continue
            container = self._grant(pending, node,
                                    memory_only=self.memory_only)
            granted.add(id(pending))
            grants.append((pending.app_id, container))
        if granted:
            self.queue = [p for p in self.queue if id(p) not in granted]
        return grants

    def _pending_in_order(self, now: float) -> list[PendingAsk]:
        """All pending asks in HFSP key order.

        Iterating the *whole* ordered list (not just the head-of-line app)
        makes the scheduler work-conserving: a node is left idle only when
        no pending ask fits it at all.
        """
        apps = self.rm.apps
        return sorted(self.queue,
                      key=lambda p: (self.priority_key(apps[p.app_id], now),
                                     p.enqueued_at))

    def on_app_finished(self, app: Application, result=None) -> None:
        """Training feedback: fold the finished job's service time into the
        per-signature estimate. Service time runs from AM launch (not
        submission), so queueing delay under load does not inflate sizes.

        Killed or failed runs carry no usable service time — a kill racing
        the AM's own completion at the same instant, or an AM that died
        with attempts exhausted, would otherwise poison the signature's
        mean with a truncated duration and count toward
        ``training_samples``, graduating the signature on garbage.
        """
        if app.killed or (result is not None
                          and (getattr(result, "killed", False)
                               or getattr(result, "failed", False))):
            return
        started = app.launch_time if app.launch_time > 0 else app.submit_time
        duration = max(0.0, self.rm.env.now - started)
        self.sizes.setdefault(app.name, SignatureStats()).observe(duration)
