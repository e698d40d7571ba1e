"""Job specifications and result records produced by simulated runs."""

from __future__ import annotations

from dataclasses import dataclass, field
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
        return (self.wait + self.launch + self.setup + self.read + self.compute
                + self.spill + self.merge + self.shuffle + self.write)


@dataclass
class TaskRecord:
    """Profiler record for a single task attempt (paper §III-C step 4)."""

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


@dataclass
class MapOutput:
    """A finished map's intermediate data, advertised to the reducer."""

    task_id: str
    node_id: str
    size_mb: float
    in_memory: bool = False


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

    def avg_map_compute(self) -> float:
        if not self.maps:
            return 0.0
        return sum(m.phases.compute for m in self.maps) / len(self.maps)

    def nodes_used(self) -> set[str]:
        return {m.node_id for m in self.maps} | {r.node_id for r in self.reduces}
