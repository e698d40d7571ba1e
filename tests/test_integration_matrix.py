"""Integration matrix: every mode x workload x cluster shape completes sanely.

Broad end-to-end coverage: each combination must finish with all tasks
accounted for, resources drained, monotone task timestamps, and non-negative
phase times. Catches cross-cutting regressions single-feature tests miss.
"""

import pytest

from repro.cluster import ResourceVector
from repro.config import a2_cluster, a3_cluster
from repro.core import (
    build_mrapid_cluster,
    build_stock_cluster,
    run_job,
)
from repro.mapreduce import SimJobSpec
from repro.workloads import (
    GREP_PROFILE,
    SESSIONS_PROFILE,
    TERASORT_PROFILE,
    WORDCOUNT_PROFILE,
    WORDSTATS_PROFILE,
    pi_profile,
)

WORKLOADS = {
    "wordcount": WORDCOUNT_PROFILE,
    "terasort": TERASORT_PROFILE,
    "grep": GREP_PROFILE,
    "sessions": SESSIONS_PROFILE,
    "wordstats": WORDSTATS_PROFILE,
}

CLUSTERS = {"a3x4": a3_cluster(4), "a2x9": a2_cluster(9), "a3x2": a3_cluster(2)}

STOCK_MODES = ("distributed", "uber")
MRAPID_MODES = ("dplus", "uplus")


def check_result(result, n_maps):
    assert len(result.maps) == n_maps
    assert all(m.finish_time > 0 for m in result.maps)
    assert all(m.finish_time >= m.start_time >= 0 for m in result.maps)
    reduce_record = result.reduces[0]
    assert reduce_record.finish_time >= max(m.finish_time for m in result.maps) - 1e-9
    for record in result.maps + result.reduces:
        for phase in ("wait", "launch", "setup", "read", "compute", "spill",
                      "merge", "shuffle", "write"):
            assert getattr(record.phases, phase) >= 0
    assert result.elapsed > 0
    assert not result.killed and not result.failed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", STOCK_MODES)
def test_stock_matrix(workload, mode):
    cluster = build_stock_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/in", 4, 10.0)
    spec = SimJobSpec(workload, tuple(paths), WORKLOADS[workload])
    result = run_job(cluster, spec, mode)
    check_result(result, 4)
    cluster.env.run(until=cluster.env.now + 2.0)
    assert cluster.rm.total_used() == ResourceVector(0, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", MRAPID_MODES)
def test_mrapid_matrix(workload, mode):
    cluster = build_mrapid_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/in", 4, 10.0)
    spec = SimJobSpec(workload, tuple(paths), WORKLOADS[workload])
    result = run_job(cluster, spec, mode)
    check_result(result, 4)


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("mode", MRAPID_MODES + STOCK_MODES)
def test_cluster_shape_matrix(cluster_name, mode):
    spec_c = CLUSTERS[cluster_name]
    if mode in STOCK_MODES:
        cluster = build_stock_cluster(spec_c)
        paths = cluster.load_input_files("/in", 3, 8.0)
        result = run_job(
            cluster, SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE), mode)
    else:
        cluster = build_mrapid_cluster(spec_c)
        paths = cluster.load_input_files("/in", 3, 8.0)
        result = run_job(
            cluster, SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE), mode)
    check_result(result, 3)


def test_pi_matrix_all_modes():
    for mode, builder, runner in (
        ("distributed", build_stock_cluster, run_job),
        ("uber", build_stock_cluster, run_job),
        ("dplus", build_mrapid_cluster, run_job),
        ("uplus", build_mrapid_cluster, run_job),
    ):
        cluster = builder(a3_cluster(4))
        paths = cluster.load_input_files("/pi", 4, 0.01)
        spec = SimJobSpec("pi", tuple(paths), pi_profile(100e6, 4))
        result = runner(cluster, spec, mode)
        check_result(result, 4)


def test_determinism_across_runs():
    """Same seed, same cluster, same job -> byte-identical timings."""

    def run_once():
        cluster = build_mrapid_cluster(a3_cluster(4), seed=7)
        paths = cluster.load_input_files("/in", 4, 10.0)
        result = run_job(
            cluster, SimJobSpec("wc", tuple(paths), WORDCOUNT_PROFILE), "dplus")
        return [(m.task_id, m.node_id, m.start_time, m.finish_time)
                for m in result.maps] + [result.elapsed]

    assert run_once() == run_once()
