"""Regression tests for cross-run state leaks (lint rule MR105).

Every data point in a sweep builds a fresh cluster in the same process, so
any module-level counter or hash-ordered collection makes the Nth run differ
from the first. Each test here pins a leak the static analyzer found (or the
ordering contract that prevents one).
"""

import pytest

from repro.cluster import SharedFabric
from repro.config import MRapidConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster
from repro.simulation import Environment
from repro.sparklite import SparkLiteRunner, SparkStage


def test_ampool_slot_ids_reset_per_framework():
    """Slot ids restart at 1 for every cluster, not once per process."""
    ids = []
    for _ in range(2):
        cluster = build_mrapid_cluster(a3_cluster(4), mrapid=MRapidConfig())
        ids.append(sorted(s.slot_id for s in cluster.mrapid_framework.slaves))
    assert ids[0] == ids[1]
    assert ids[0][0] == 1


def test_sparklite_executor_ids_reset_per_runner():
    """Executor ids restart at 1 for every runner, not once per process."""
    ids = []
    for _ in range(2):
        cluster = build_stock_cluster(a3_cluster(4))
        runner = SparkLiteRunner(cluster, num_executors=3, warm_pool=True)
        ids.append(sorted(e.executor_id for e in runner._warm_executors))
    assert ids[0] == ids[1] == [1, 2, 3]


def test_sparklite_results_identical_across_runs_in_process():
    """Back-to-back identical applications produce identical records."""

    def run_once():
        cluster = build_stock_cluster(a3_cluster(4))
        raw = cluster.load_input_files("/raw", 4, 10.0)
        stages = [
            SparkStage("scan", cpu_s_per_mb=0.6, output_ratio=0.3,
                       inputs=tuple(raw)),
            SparkStage("agg", cpu_s_per_mb=0.15, output_ratio=0.2,
                       parents=("scan",)),
        ]
        result = SparkLiteRunner(cluster, num_executors=3).run(stages)
        return [(name, rec.partition_homes)
                for name, rec in sorted(result.stages.items())]

    assert run_once() == run_once()


def test_active_flows_is_submission_ordered():
    """``active_flows`` iterates in submission order, not hash order.

    Fault handlers (node/link kills) walk the active flows to tear them
    down; with the old ``frozenset`` return, that walk followed object
    addresses and could differ between processes.
    """
    env = Environment()
    fabric = SharedFabric(env)
    for link in ("a", "b"):
        fabric.add_link(link, capacity=10.0)
    flows = [fabric.submit(("a", "b"), 50.0, label=f"f{i}") for i in range(5)]
    assert list(fabric.active_flows) == flows
    fabric.kill(flows[2])
    assert list(fabric.active_flows) == flows[:2] + flows[3:]
    # Still behaves like the old set for the existing call sites.
    assert len(fabric.active_flows) == 4
    assert flows[0] in fabric.active_flows
    env.run()


def test_mrapid_job_elapsed_identical_across_clusters_in_process():
    """The same short job on two fresh clusters lands on the same numbers."""
    from repro.core.submit import run_job
    from repro.mapreduce.spec import SimJobSpec
    from repro.workloads import WORDCOUNT_PROFILE

    def run_once():
        cluster = build_mrapid_cluster(a3_cluster(4))
        paths = cluster.load_input_files("/in", 4, 10.0)
        spec = SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE)
        return run_job(cluster, spec, "dplus").elapsed

    first, second = run_once(), run_once()
    assert first == pytest.approx(second, rel=0, abs=0.0)
