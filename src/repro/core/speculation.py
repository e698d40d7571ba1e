"""Speculative dual-mode execution (paper §III-C, Figure 6).

Unless history already names a winner, the controller launches the job in
*both* D+ and U+ modes simultaneously, lets the profiler watch the first
map wave, estimates both completion times (Eq. 2/3), kills the projected
loser, and records the winner for future pre-decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..mapreduce.spec import JobResult, SimJobSpec
from .ampool import MODE_DPLUS, MODE_UPLUS, JobHandle, SubmissionFramework
from .decision import Decision, DecisionMaker
from .profiler import JobProfiler, estimator_inputs_from

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.events import Process


@dataclass
class SpeculationOutcome:
    """What happened to one speculatively executed job."""

    winner: JobResult
    winner_mode: str                     # "dplus" | "uplus"
    decision: Optional[Decision] = None  # None when decided from history
    from_history: bool = False
    killed_mode: Optional[str] = None
    decision_time: float = 0.0
    #: The killed mode's (partial) result when both modes launched — lets
    #: callers clean up the loser's artifacts (e.g. its HDFS output path).
    loser: Optional[JobResult] = None

    @property
    def elapsed(self) -> float:
        return self.winner.elapsed


class SpeculativeExecutor:
    """Implements the proxy's launch-both / kill-slower protocol."""

    def __init__(self, framework: SubmissionFramework,
                 decision_maker: Optional[DecisionMaker] = None,
                 poll_interval_s: float = 0.5) -> None:
        self.framework = framework
        self.cluster = framework.cluster
        # Default to the framework's shared decision maker so job history
        # persists across submissions on the same cluster.
        self.decision_maker = (decision_maker if decision_maker is not None
                               else framework.decision_maker)
        self.poll_interval_s = poll_interval_s

    # -- public API ---------------------------------------------------------
    def submit(self, spec: SimJobSpec) -> "Process":
        return self.cluster.env.process(self._run(spec),
                                        name=f"speculative-{spec.name}")

    def run(self, spec: SimJobSpec) -> SpeculationOutcome:
        proc = self.submit(spec)
        self.cluster.env.run(until=proc)
        return proc.value

    # -- controller ----------------------------------------------------------------
    def _run(self, spec: SimJobSpec) -> Generator:
        env = self.cluster.env

        # Step 2: pre-decision from history.
        known = self.decision_maker.pre_decision(spec.signature)
        if known is not None:
            mode = MODE_UPLUS if known == "uplus" else MODE_DPLUS
            handle = self.framework.submit(spec, mode)
            result: JobResult = yield handle.proc
            return SpeculationOutcome(winner=result, winner_mode=known,
                                      from_history=True, decision_time=env.now)

        # Step 3: launch both modes.
        h_d = self.framework.submit(spec, MODE_DPLUS)
        h_u = self.framework.submit(spec, MODE_UPLUS)

        decision: Optional[Decision] = None
        decision_time = 0.0
        killed: Optional[str] = None

        # Steps 4-6: profile, evaluate, terminate the slower mode.
        while True:
            if not h_d.proc.is_alive or not h_u.proc.is_alive:
                break  # one finished outright; it is the de-facto winner
            snap_d = JobProfiler(h_d.result).snapshot() if h_d.result else None
            snap_u = JobProfiler(h_u.result).snapshot() if h_u.result else None
            best = None
            if snap_d is not None and snap_d.has_data:
                best = snap_d
            if snap_u is not None and snap_u.has_data:
                if best is None or snap_u.maps_finished > best.maps_finished:
                    best = snap_u
            if best is not None:
                n_u_m = (self.cluster.spec.instance.cores
                         * self.framework.mrapid.maps_per_vcore)
                inputs = estimator_inputs_from(self.cluster, best, n_u_m=n_u_m,
                                               n_maps=best.maps_total)
                decision = self.decision_maker.evaluate(inputs)
                if self.decision_maker.is_confident(decision):
                    decision_time = env.now
                    if decision.mode == "uplus":
                        h_d.kill("speculation: U+ projected faster")
                        killed = "dplus"
                    else:
                        h_u.kill("speculation: D+ projected faster")
                        killed = "uplus"
                    break
            yield env.timeout(self.poll_interval_s)

        def _faulted(handle: JobHandle) -> bool:
            r = handle.result
            return r is not None and (r.killed or r.failed)

        # A mode that exited because of a fault (its AM died with its node)
        # forfeits: the surviving mode is the winner regardless of projected
        # speed — never kill the healthy run in favour of a dead one.
        by_forfeit = False
        if (killed is None and not h_u.proc.is_alive and h_d.proc.is_alive
                and _faulted(h_u)):
            killed, by_forfeit = "uplus", True
        elif (killed is None and not h_d.proc.is_alive and h_u.proc.is_alive
                and _faulted(h_d)):
            killed, by_forfeit = "dplus", True

        if killed == "dplus" or (killed is None and not h_u.proc.is_alive
                                 and h_d.proc.is_alive):
            # U+ is (or will be) the winner; D+ was killed or U+ finished first.
            if killed is None:
                h_d.kill("speculation: U+ finished first")
                killed = "dplus"
            winner_result: JobResult = yield h_u.proc
            winner_mode = "uplus"
            loser_handle = h_d
        else:
            if killed is None:
                h_u.kill("speculation: D+ finished first")
                killed = "uplus"
            winner_result = yield h_d.proc
            winner_mode = "dplus"
            loser_handle = h_u

        # Drain the loser's client process (it returns a killed result).
        if loser_handle.proc.is_alive:
            yield loser_handle.proc

        if decision is None:
            decision_time = env.now
        outcome = SpeculationOutcome(
            winner=winner_result, winner_mode=winner_mode, decision=decision,
            killed_mode=killed, decision_time=decision_time,
            loser=loser_handle.result,
        )
        # Wins by forfeit (the other mode crashed) or faulted winners say
        # nothing about relative speed — don't poison the history with them.
        if not by_forfeit and not (winner_result.killed or winner_result.failed):
            self.decision_maker.winners[spec.signature] = winner_mode
        return outcome
