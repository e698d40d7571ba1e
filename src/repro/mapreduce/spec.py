"""Job specifications and result records produced by simulated runs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from ..cluster.topology import Locality
from ..workloads.base import WorkloadProfile


@dataclass(frozen=True)
class SimJobSpec:
    """Everything needed to run one MapReduce job in the simulator."""

    name: str
    input_paths: tuple[str, ...]
    profile: WorkloadProfile
    num_reduces: int = 1
    #: Identifies "the same job" across runs for the decision maker's
    #: history, independent of input data (paper §III-C step 2).
    signature: str = ""
    #: Arrival sequence (trace index, or serving dispatch ticket) that
    #: every submit path stamps on its application; see
    #: :attr:`~repro.yarn.records.Application.seq`.
    seq: Optional[int] = None
    #: Tenant queue of the multi-tenant scheduler that the job's task
    #: containers are charged to (``None``: the scheduler's default). Set
    #: once, by whoever builds the spec; the replay takes it from its
    #: ``queue_of``.
    queue: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_reduces != 1:
            # The paper's estimator (Eq. 2/3) assumes exactly one reducer;
            # MRapid targets short jobs which have one by definition (§I).
            raise ValueError("MRapid short jobs have exactly one reduce task")
        if not self.input_paths:
            raise ValueError("job needs at least one input path")
        if not self.signature:
            object.__setattr__(self, "signature", self.profile.name)


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each sub-phase of one task."""

    wait: float = 0.0       # time from request to container grant
    launch: float = 0.0     # container/JVM launch
    setup: float = 0.0
    read: float = 0.0
    compute: float = 0.0
    spill: float = 0.0
    merge: float = 0.0
    shuffle: float = 0.0
    write: float = 0.0

    def total(self) -> float:
        """The phases summed in :data:`PHASES` order."""
        total = 0.0
        for name in PHASES:
            total += getattr(self, name)
        return total

    def dominant(self) -> str:
        """The longest phase (the first in :data:`PHASES` order on a tie)."""
        return max(PHASES, key=lambda name: getattr(self, name))

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PHASES}


#: The sub-phase vocabulary: :class:`PhaseTimings`' fields, in order.
PHASES: tuple[str, ...] = tuple(f.name for f in fields(PhaseTimings))


@dataclass
class TaskRecord:
    """Profiler record for a single task attempt (paper §III-C step 4).

    A finished map's record is also its advertised output: the reducer
    fetches ``output_mb`` from ``node_id`` (from RAM if
    ``in_memory_output``)."""

    task_id: str
    kind: str                       # "map" | "reduce"
    node_id: str = ""
    start_time: float = 0.0
    finish_time: float = 0.0
    input_mb: float = 0.0
    output_mb: float = 0.0
    locality: Optional[Locality] = None
    source_node: str = ""
    in_memory_output: bool = False
    phases: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def elapsed(self) -> float:
        return self.finish_time - self.start_time


def attempt_record(kind: str, idx: int, attempt: int = 0) -> TaskRecord:
    """A fresh record for attempt ``attempt`` of task ``idx`` of ``kind``
    (``"map"`` or ``"reduce"``): ``m003``, ``m003.a1``, ``r000``."""
    task_id = f"{kind[0]}{idx:03d}"
    return TaskRecord(task_id if attempt == 0 else f"{task_id}.a{attempt}", kind)


def base_task_id(task_id: str) -> str:
    """The task an attempt id belongs to: ``m003.a1`` -> ``m003``."""
    return task_id.split(".")[0]


@dataclass
class JobResult:
    """End-to-end outcome of one simulated job run."""

    app_id: str
    job_name: str
    mode: str
    submit_time: float
    am_start_time: float = 0.0
    finish_time: float = 0.0
    maps: list[TaskRecord] = field(default_factory=list)
    reduces: list[TaskRecord] = field(default_factory=list)
    num_waves: int = 1
    killed: bool = False
    #: True when the job aborted on its own (task out of attempts, ...).
    failed: bool = False

    @property
    def elapsed(self) -> float:
        """Client-visible job time — what every figure in the paper plots."""
        return self.finish_time - self.submit_time

    @property
    def am_overhead(self) -> float:
        """t^AM: submission to AM start (allocation + launch + init)."""
        return self.am_start_time - self.submit_time

    def locality_counts(self) -> dict[str, int]:
        counts = {"NODE_LOCAL": 0, "RACK_LOCAL": 0, "ANY": 0}
        for record in self.maps:
            if record.locality is not None:
                counts[record.locality.name] += 1
        return counts

    def nodes_used(self) -> set[str]:
        return {m.node_id for m in self.maps} | {r.node_id for r in self.reduces}
