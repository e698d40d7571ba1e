"""Declarative, seeded fault plans.

A :class:`FaultPlan` is an immutable description of *what goes wrong and
when* during a simulated run: machine crashes (and optional rejoins), gray
failures (a disk serving at a fraction of its bandwidth, a NIC dropped to a
trickle), network partitions, and per-container flakiness. Plans are data —
they can be built fluently, merged with ``+``, attached to any cluster via
:func:`repro.faults.inject`, and replayed deterministically: every random
draw (victim selection, per-container crash coin flips) comes from a
``random.Random(plan.seed)`` owned by the injector.

Victims may be concrete node ids (``"dn2"``) or selectors resolved at fire
time against live cluster state:

``@random``            a seeded draw over alive nodes
``@random-non-am``     same, excluding nodes hosting ApplicationMasters
``@busiest``           the alive node running the most containers
``@busiest-non-am``    same, excluding AM nodes
``@job-am``            the node hosting the most recently placed AM
``@last-crashed``      the victim of the previous crash (for restarts)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

INF = float("inf")


@dataclass(frozen=True)
class NodeCrash:
    """Machine (or NodeManager-only, with ``hdfs=False``) death at ``at``."""

    at: float
    node: str = "@random"
    #: True = whole machine: the DataNode dies with the NM, replicas are
    #: written off and re-replication starts. False = YARN-only outage.
    hdfs: bool = True


@dataclass(frozen=True)
class NodeRestart:
    """A crashed machine rejoins (empty) at ``at``."""

    at: float
    node: str = "@last-crashed"


@dataclass(frozen=True)
class DiskSlowdown:
    """Gray disk: bandwidth divided by ``factor`` for ``duration`` seconds."""

    at: float
    factor: float
    node: str = "@random"
    duration: float = INF


@dataclass(frozen=True)
class NetworkDegradation:
    """Gray NIC: both directions divided by ``factor`` for ``duration``."""

    at: float
    factor: float
    node: str = "@random"
    duration: float = INF


@dataclass(frozen=True)
class NetworkPartition:
    """``nodes`` lose (effectively) all connectivity for ``duration``.

    Modelled as an extreme NIC degradation, so in-flight transfers stall
    rather than abort and resume transparently when the partition heals —
    the TCP-keeps-retrying behaviour of a real switch outage.
    """

    at: float
    nodes: Tuple[str, ...]
    duration: float
    factor: float = 1e9


@dataclass(frozen=True)
class ContainerFlakiness:
    """Each container launched on ``node`` ("@all" = everywhere) crashes
    with probability ``rate``, ``crash_after_s`` seconds into its run."""

    at: float
    rate: float
    crash_after_s: float = 1.0
    node: str = "@all"
    duration: float = INF


FaultEvent = Union[NodeCrash, NodeRestart, DiskSlowdown, NetworkDegradation,
                   NetworkPartition, ContainerFlakiness]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of fault events plus the RNG seed."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 17

    # -- fluent builders (each returns a new plan) --------------------------
    def _with(self, event: FaultEvent) -> "FaultPlan":
        return FaultPlan(self.events + (event,), self.seed)

    def crash(self, at: float, node: str = "@random",
              hdfs: bool = True) -> "FaultPlan":
        return self._with(NodeCrash(at, node, hdfs))

    def restart(self, at: float, node: str = "@last-crashed") -> "FaultPlan":
        return self._with(NodeRestart(at, node))

    def slow_disk(self, at: float, factor: float, node: str = "@random",
                  duration: float = INF) -> "FaultPlan":
        return self._with(DiskSlowdown(at, factor, node, duration))

    def degrade_network(self, at: float, factor: float, node: str = "@random",
                        duration: float = INF) -> "FaultPlan":
        return self._with(NetworkDegradation(at, factor, node, duration))

    def partition(self, at: float, nodes: Tuple[str, ...],
                  duration: float) -> "FaultPlan":
        return self._with(NetworkPartition(at, tuple(nodes), duration))

    def flaky_containers(self, at: float, rate: float,
                         crash_after_s: float = 1.0, node: str = "@all",
                         duration: float = INF) -> "FaultPlan":
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        return self._with(ContainerFlakiness(at, rate, crash_after_s, node,
                                             duration))

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(self.events, seed)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        """Merge two plans (left plan's seed wins)."""
        return FaultPlan(self.events + other.events, self.seed)

    def __len__(self) -> int:
        return len(self.events)


# -- named plans (CLI / experiment shorthand) -----------------------------------

CHURN_PERIOD_S = 90.0
CHURN_DOWN_S = 35.0
CHURN_START_S = 45.0


def churn_plan(duration_s: float, seed: int = 23) -> FaultPlan:
    """Steady node churn: every ``CHURN_PERIOD_S`` a random node crashes
    and rejoins ``CHURN_DOWN_S`` later, from ``CHURN_START_S`` until
    ``duration_s``.

    The serving experiments run this under load: capacity keeps
    dipping, so static provisioning misses deadlines while the autoscaler
    backfills crashed nodes.
    """
    plan = FaultPlan(seed=seed)
    t = CHURN_START_S
    while t < duration_s:
        plan = plan.crash(t).restart(min(t + CHURN_DOWN_S, duration_s))
        t += CHURN_PERIOD_S
    return plan


def gray_plan(duration_s: float, seed: int = 23) -> FaultPlan:
    """A gray-failure mix: one slow disk and one degraded NIC mid-run."""
    return (FaultPlan(seed=seed)
            .slow_disk(duration_s * 0.25, factor=6.0, duration=duration_s * 0.4)
            .degrade_network(duration_s * 0.5, factor=4.0,
                             duration=duration_s * 0.3))


def named_plan(name: str, duration_s: float, seed: int = 23) -> FaultPlan:
    """Resolve a CLI-friendly plan name (``repro trace --fault-plan``)."""
    if name == "churn":
        return churn_plan(duration_s, seed=seed)
    if name == "crash":
        return (FaultPlan(seed=seed)
                .crash(duration_s * 0.3)
                .restart(duration_s * 0.6))
    if name == "gray":
        return gray_plan(duration_s, seed=seed)
    raise ValueError(f"unknown fault plan {name!r}; use one of {NAMED_PLANS}")


#: Names accepted by :func:`named_plan`.
NAMED_PLANS = ("churn", "crash", "gray")
