"""Logical DAGs for the Spark-lite engine: stages, lineage, validation.

Paper §VI: "we plan to migrate MRapid to Spark ... Several optimization
techniques of our system can also improve the performance of Spark on Yarn
such as the submission framework and the improved CapacityScheduler."

A :class:`SparkStage` transforms the cached outputs of its parent stages
(or HDFS paths for sources) into a new cached dataset. Unlike the MapReduce
chains in :mod:`repro.core.chain`, stage boundaries exchange data between
long-lived *executors* in memory — no HDFS materialization, no per-stage AM,
no per-task container launch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..workloads.base import WorkloadProfile


@dataclass(frozen=True)
class SparkStage:
    """One stage of a Spark-lite application.

    ``inputs`` are HDFS paths (source stage) XOR ``parents`` are earlier
    stage names (shuffle stage). ``output_ratio`` sizes this stage's cached
    output relative to its input bytes; ``cpu_s_per_mb`` is the task compute
    cost. ``partitions`` overrides the parallelism (default: one task per
    input file for sources, parent partition count for shuffles).
    """

    name: str
    cpu_s_per_mb: float
    output_ratio: float = 1.0
    inputs: tuple[str, ...] = ()
    parents: tuple[str, ...] = ()
    partitions: Optional[int] = None
    cpu_fixed_s: float = 0.0

    def __post_init__(self) -> None:
        if bool(self.inputs) == bool(self.parents):
            raise ValueError(
                f"stage {self.name!r} must have exactly one of inputs/parents")
        if self.cpu_s_per_mb < 0 or self.output_ratio < 0:
            raise ValueError(f"stage {self.name!r}: negative costs")

    @property
    def is_source(self) -> bool:
        return bool(self.inputs)


def stage_from_profile(name: str, profile: WorkloadProfile,
                       inputs: Sequence[str] = (), parents: Sequence[str] = (),
                       partitions: Optional[int] = None) -> SparkStage:
    """Build a stage from a MapReduce workload profile's map-side costs."""
    return SparkStage(
        name=name,
        cpu_s_per_mb=profile.map_cpu_s_per_mb,
        output_ratio=profile.map_output_ratio,
        inputs=tuple(inputs),
        parents=tuple(parents),
        partitions=partitions,
        cpu_fixed_s=profile.map_cpu_fixed_s,
    )


def validate_dag(stages: Sequence[SparkStage]) -> None:
    """Unique names; parents must be earlier stages (topological order)."""
    seen: set[str] = set()
    for stage in stages:
        if stage.name in seen:
            raise ValueError(f"duplicate stage {stage.name!r}")
        for parent in stage.parents:
            if parent not in seen:
                raise ValueError(
                    f"stage {stage.name!r} references {parent!r} before it is defined")
        seen.add(stage.name)
    if not stages:
        raise ValueError("empty DAG")
    if not stages[0].is_source:
        raise ValueError("first stage must be a source")


@dataclass
class StageResult:
    """Execution record of one stage."""

    name: str
    start_time: float = 0.0
    finish_time: float = 0.0
    input_mb: float = 0.0
    output_mb: float = 0.0
    tasks: int = 0
    shuffle_mb_moved: float = 0.0
    #: partition index -> executor id holding the cached output.
    partition_homes: dict[int, int] = field(default_factory=dict)


@dataclass
class SparkResult:
    """Outcome of one Spark-lite application run."""

    app_id: str
    submit_time: float
    driver_start_time: float = 0.0
    executors_ready_time: float = 0.0
    finish_time: float = 0.0
    stages: dict[str, StageResult] = field(default_factory=dict)
    warm_start: bool = False
    num_executors: int = 0

    @property
    def elapsed(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def startup_overhead(self) -> float:
        """Submission to all-executors-ready — what a warm pool removes."""
        return self.executors_ready_time - self.submit_time

    def total_shuffle_mb(self) -> float:
        return sum(s.shuffle_mb_moved for s in self.stages.values())
