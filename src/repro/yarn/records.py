"""YARN protocol records: containers, requests, node state, applications."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..cluster.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.events import Event
    from .heartbeat import HeartbeatWheel


@dataclass(frozen=True)
class Container:
    """A granted allocation: the right to run one process on a node.

    ``tag`` is only set by schedulers that bind a grant to a specific task
    (the D+ scheduler assigns tasks to nodes itself, Algorithm 1 line 7);
    the stock scheduler leaves it ``None`` and the AM matches by locality.
    """

    container_id: int
    node_id: str
    resource: ResourceVector
    app_id: str
    tag: Any = None


@dataclass
class ContainerRequest:
    """An AM's ask for one container, with data-locality preferences.

    ``preferred_nodes`` are the nodes holding the task's input replicas;
    ``relax_locality`` permits RackLocal/ANY placement (always true for
    MapReduce map requests, as in real Hadoop).
    """

    resource: ResourceVector
    preferred_nodes: tuple[str, ...] = ()
    relax_locality: bool = True
    #: Opaque tag linking the grant back to a task (used by the AMs).
    tag: Any = None
    #: Nodes this request must not be placed on (AM-level blacklisting after
    #: repeated task failures, mapreduce.job.maxtaskfailures.per.tracker).
    blacklist: tuple[str, ...] = ()


@dataclass
class NodeState:
    """The RM's book-keeping for one NodeManager.

    vcores may be *oversubscribed*: Hadoop 2.2's stock CapacityScheduler used
    ``DefaultResourceCalculator``, which packs containers by memory only, so
    a node's scheduled vcores can exceed its physical cores (the resulting
    CPU contention is exactly the imbalance pathology the paper attacks).
    Accounting therefore tracks raw integers; ``available`` floors at zero.
    """

    node_id: str
    capability: ResourceVector
    used_memory_mb: int = 0
    used_vcores: int = 0
    #: False once the NodeManager is declared lost; no further allocations.
    #: Written only through :meth:`ResourceManager.set_alive`, which keeps
    #: the RM's per-rack alive counts exact.
    alive: bool = True
    #: Observer called with the *floored* (memory, vcores) usage delta after
    #: every accounting change. The RM installs one so cluster-wide totals
    #: stay O(1) instead of re-summing 10k nodes on every heartbeat.
    watcher: Optional[Callable[[int, int], None]] = field(
        default=None, repr=False, compare=False)
    #: The RM's heartbeat wheel: the record of this node's beats, including
    #: the idle ones the wheel sleeps through. ``None``: heartbeats off.
    wheel: Optional["HeartbeatWheel"] = field(
        default=None, repr=False, compare=False)

    @property
    def last_heartbeat(self) -> float:
        """Instant of the node's latest heartbeat; 0.0 before the first."""
        last = (self.wheel.last_beat(self.node_id)
                if self.wheel is not None else None)
        return 0.0 if last is None else last

    @property
    def used(self) -> ResourceVector:
        return ResourceVector(max(0, self.used_memory_mb), max(0, self.used_vcores))

    @property
    def available(self) -> ResourceVector:
        return ResourceVector(
            max(0, self.capability.memory_mb - self.used_memory_mb),
            max(0, self.capability.vcores - self.used_vcores),
        )

    def can_fit(self, demand: ResourceVector, memory_only: bool = False) -> bool:
        """Room check. ``memory_only=True`` is DefaultResourceCalculator."""
        if not self.alive:
            return False
        avail = self.available
        if memory_only:
            return demand.memory_mb <= avail.memory_mb
        return demand.fits_in(avail)

    def allocate(self, demand: ResourceVector, memory_only: bool = False) -> None:
        if not self.can_fit(demand, memory_only=memory_only):
            raise ValueError(f"over-allocation on {self.node_id}: {demand} > {self.available}")
        old_mem, old_vc = self.used_memory_mb, self.used_vcores
        self.used_memory_mb += demand.memory_mb
        self.used_vcores += demand.vcores
        self._changed(old_mem, old_vc)

    def release(self, amount: ResourceVector) -> None:
        old_mem, old_vc = self.used_memory_mb, self.used_vcores
        self.used_memory_mb -= amount.memory_mb
        self.used_vcores -= amount.vcores
        self._changed(old_mem, old_vc)

    def reset_used(self) -> None:
        """Zero the accounting (a rejoining NM restarts empty)."""
        old_mem, old_vc = self.used_memory_mb, self.used_vcores
        self.used_memory_mb = 0
        self.used_vcores = 0
        self._changed(old_mem, old_vc)

    def _changed(self, old_mem: int, old_vc: int) -> None:
        # Deltas are of the floored values (``used`` floors at zero), so a
        # watcher summing them tracks sum-of-``used`` exactly even when a
        # late release drives a rejoined node's raw counter negative.
        if self.watcher is not None:
            self.watcher(max(0, self.used_memory_mb) - max(0, old_mem),
                         max(0, self.used_vcores) - max(0, old_vc))


class IdAllocator:
    """Per-cluster application/container id source.

    Ids must not come from process-wide counters: a simulation's ids — and
    any downstream ordering that keys on them — would then depend on how
    many jobs *earlier* runs in the same process had created, so the same
    experiment could produce different results on its second invocation.
    Each ResourceManager owns one allocator, making every fresh cluster
    start at app_0001 / container 1 regardless of process history.
    """

    __slots__ = ("_apps", "_containers")

    def __init__(self) -> None:
        self._apps = itertools.count(1)
        self._containers = itertools.count(1)

    def next_app_id(self, prefix: str = "app") -> str:
        return f"{prefix}_{next(self._apps):04d}"

    def next_container_id(self) -> int:
        return next(self._containers)


@dataclass
class Application:
    """Handle for a submitted application (one MapReduce job)."""

    app_id: str
    name: str
    am_resource: ResourceVector
    #: ``runner(am_context)`` -> generator; the ApplicationMaster main.
    runner: Callable[[Any], Any]
    submit_time: float = 0.0
    #: Stable FIFO tie-break among applications submitted at the *same*
    #: simulated instant. Two submitters resumed by same-timestamp kernel
    #: events reach :meth:`ResourceManager.submit_application` in dispatch
    #: order, which is not a property figures may depend on; a caller that
    #: knows the intended order (the serving admission controller's
    #: dispatch ticket) passes it here. ``None`` lets the RM fall back to
    #: its own submission sequence. Assigned once; AM restarts keep it.
    fifo_key: Optional[int] = None
    #: When the app (re-)entered the AM allocation queue; with ``fifo_key``
    #: this forms the queue's ordering key. Maintained by the RM.
    queue_time: float = 0.0
    #: When the AM actually started (0.0 until launch). ``launch_time -
    #: submit_time`` is the allocation wait; size-based schedulers use
    #: ``finish - launch_time`` as the job's load-independent service time.
    launch_time: float = 0.0
    am_container: Optional[Container] = None
    #: Fires when the AM starts executing (after launch), value = node_id.
    am_started: Optional["Event"] = None
    #: Fires when the application completes, value = the AM's result.
    finished: Optional["Event"] = None
    killed: bool = False
    #: Completed-task history surviving AM crashes (work-preserving recovery,
    #: the JobHistory event log a second MRAppMaster attempt replays).
    #: Maps task index -> the completed attempt's TaskRecord.
    recovery_maps: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<Application {self.app_id} {self.name!r}>"
