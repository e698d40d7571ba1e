"""Multi-stage short-job pipelines (Hive/Pig query plans on MRapid).

The paper's opening motivation: "higher level query languages, such as Hive
and Pig, would handle a complex query by breaking it into smaller ad-hoc
ones". A :class:`ChainStage` consumes HDFS paths and/or the outputs of
earlier stages (``"@stage_name"`` references); independent stages run
concurrently, dependent ones wait. Each stage is submitted through MRapid's
framework (fixed mode or full speculation with shared history — repeated
plan shapes stop paying the dual launch) or the stock client for baselines.

This is also the §VI future-work direction in miniature: the submission
framework and D+ scheduler applied to DAGs of short stages rather than
single jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Sequence

from ..mapreduce.spec import JobResult, SimJobSpec
from ..workloads.base import WorkloadProfile
from .submit import check_mode, result_of, submit

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster


@dataclass(frozen=True)
class ChainStage:
    """One MapReduce stage of a query plan.

    ``inputs`` entries are HDFS paths, or ``"@name"`` to consume the output
    of an earlier stage in the same chain.
    """

    name: str
    profile: WorkloadProfile
    inputs: tuple[str, ...]
    signature: str = ""

    def dependencies(self) -> list[str]:
        return [ref[1:] for ref in self.inputs if ref.startswith("@")]

    def effective_signature(self) -> str:
        return self.signature or f"stage:{self.name}"


@dataclass
class ChainResult:
    """Outcome of one executed chain."""

    stage_results: dict[str, JobResult] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    start_time: float = 0.0
    finish_time: float = 0.0

    @property
    def elapsed(self) -> float:
        """End-to-end wall time of the whole plan."""
        return self.finish_time - self.start_time

    @property
    def total_stage_seconds(self) -> float:
        return sum(r.elapsed for r in self.stage_results.values())

    def critical_path_hint(self) -> list[str]:
        """Stages ordered by finish time (the tail is the bottleneck)."""
        return sorted(self.order, key=lambda n: self.stage_results[n].finish_time)


def validate_chain(stages: Sequence[ChainStage]) -> None:
    """Names unique; every ``@ref`` points to an *earlier* stage (DAG)."""
    seen: set[str] = set()
    for stage in stages:
        if stage.name in seen:
            raise ValueError(f"duplicate stage name {stage.name!r}")
        if not stage.inputs:
            raise ValueError(f"stage {stage.name!r} has no inputs")
        for dep in stage.dependencies():
            if dep not in seen:
                raise ValueError(
                    f"stage {stage.name!r} references {dep!r} which is not an "
                    f"earlier stage (chains must be listed in topological order)")
        seen.add(stage.name)


class ChainRunner:
    """Executes a validated chain on one cluster, maximally concurrently.

    ``strategy`` is the submission mode of every stage
    (:data:`repro.core.submit.MODES`); one the cluster cannot serve is
    refused here, before any stage runs.
    """

    def __init__(self, cluster: "SimCluster", strategy: str = "speculative") -> None:
        check_mode(cluster, strategy)
        self.cluster = cluster
        self.strategy = strategy

    # -- public ------------------------------------------------------------
    def submit(self, stages: Sequence[ChainStage]):
        """Start the chain; returns a process whose value is ChainResult."""
        validate_chain(stages)
        return self.cluster.env.process(self._run(list(stages)), name="chain")

    def run(self, stages: Sequence[ChainStage]) -> ChainResult:
        proc = self.submit(stages)
        self.cluster.env.run(until=proc)
        return proc.value

    # -- internals ------------------------------------------------------------
    def _run(self, stages: list[ChainStage]) -> Generator:
        env = self.cluster.env
        result = ChainResult(start_time=env.now)
        done = {stage.name: env.event() for stage in stages}

        def run_stage(stage: ChainStage) -> Generator:
            for dep in stage.dependencies():
                yield done[dep]
            paths = []
            for ref in stage.inputs:
                if ref.startswith("@"):
                    producer = result.stage_results[ref[1:]]
                    paths.append(f"/out/{producer.app_id}")
                else:
                    paths.append(ref)
            spec = SimJobSpec(stage.name, tuple(paths), stage.profile,
                              signature=stage.effective_signature())
            job_result = result_of((yield submit(self.cluster, spec, self.strategy)))
            result.stage_results[stage.name] = job_result
            result.order.append(stage.name)
            done[stage.name].succeed(job_result)

        procs = [env.process(run_stage(stage), name=f"stage-{stage.name}")
                 for stage in stages]
        yield env.all_of(procs)
        result.finish_time = env.now
        return result


def run_chain(cluster: "SimCluster", stages: Sequence[ChainStage],
              strategy: str = "speculative") -> ChainResult:
    """Convenience wrapper: validate, run, return."""
    return ChainRunner(cluster, strategy).run(stages)
