"""Tests for multi-stage job chains (Hive/Pig-style query plans)."""

import pytest

from repro.config import a3_cluster
from repro.core import (
    ChainRunner,
    ChainStage,
    build_mrapid_cluster,
    build_stock_cluster,
    run_chain,
    validate_chain,
)
from repro.workloads import TERASORT_PROFILE, WORDCOUNT_PROFILE


def scan_stage(name, inputs):
    return ChainStage(name, WORDCOUNT_PROFILE, tuple(inputs))


def simple_plan(cluster):
    raw = cluster.load_input_files("/raw", 4, 10.0)
    return [
        scan_stage("extract", raw),
        ChainStage("transform", TERASORT_PROFILE, ("@extract",)),
        scan_stage("load", ["@transform"]),
    ]


# -- validation ------------------------------------------------------------------

def test_validate_rejects_duplicate_names():
    s = scan_stage("a", ["/x"])
    with pytest.raises(ValueError):
        validate_chain([s, scan_stage("a", ["/y"])])


def test_validate_rejects_forward_reference():
    with pytest.raises(ValueError):
        validate_chain([scan_stage("a", ["@b"]), scan_stage("b", ["/x"])])


def test_validate_rejects_unknown_reference():
    with pytest.raises(ValueError):
        validate_chain([scan_stage("a", ["@ghost"])])


def test_validate_rejects_empty_inputs():
    with pytest.raises(ValueError):
        validate_chain([ChainStage("a", WORDCOUNT_PROFILE, ())])


def test_validate_accepts_dag():
    validate_chain([
        scan_stage("a", ["/x"]),
        scan_stage("b", ["/y"]),
        scan_stage("join", ["@a", "@b"]),
    ])


def test_runner_rejects_bad_strategy():
    cluster = build_mrapid_cluster(a3_cluster(4))
    with pytest.raises(ValueError):
        ChainRunner(cluster, strategy="warp-speed")
    stock = build_stock_cluster(a3_cluster(4))
    with pytest.raises(ValueError):
        ChainRunner(stock, strategy="uplus")


# -- execution --------------------------------------------------------------------

def test_linear_chain_runs_stages_in_order():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_chain(cluster, simple_plan(cluster), strategy="uplus")
    assert result.order == ["extract", "transform", "load"]
    finishes = [result.stage_results[n].finish_time for n in result.order]
    assert finishes == sorted(finishes)
    assert result.elapsed > 0


def test_stage_consumes_previous_output():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_chain(cluster, simple_plan(cluster), strategy="uplus")
    extract = result.stage_results["extract"]
    transform = result.stage_results["transform"]
    # transform's input bytes == extract's reduce output bytes.
    expected = extract.reduces[0].output_mb
    assert sum(m.input_mb for m in transform.maps) == pytest.approx(expected, rel=0.01)
    # and the intermediate dataset exists in HDFS.
    assert cluster.namenode.exists(f"/out/{extract.app_id}")


def test_independent_stages_overlap():
    cluster = build_mrapid_cluster(a3_cluster(4))
    a_in = cluster.load_input_files("/a", 2, 10.0)
    b_in = cluster.load_input_files("/b", 2, 10.0)
    plan = [
        scan_stage("branch_a", a_in),
        scan_stage("branch_b", b_in),
        scan_stage("join", ["@branch_a", "@branch_b"]),
    ]
    result = run_chain(cluster, plan, strategy="uplus")
    ra = result.stage_results["branch_a"]
    rb = result.stage_results["branch_b"]
    # Both branches started before either finished: real concurrency.
    assert ra.submit_time < rb.finish_time and rb.submit_time < ra.finish_time
    join = result.stage_results["join"]
    assert join.am_start_time >= max(ra.finish_time, rb.finish_time) - 1e-6


def test_join_stage_reads_both_branches():
    cluster = build_mrapid_cluster(a3_cluster(4))
    a_in = cluster.load_input_files("/a", 2, 10.0)
    b_in = cluster.load_input_files("/b", 2, 10.0)
    plan = [
        scan_stage("a", a_in),
        scan_stage("b", b_in),
        scan_stage("join", ["@a", "@b"]),
    ]
    result = run_chain(cluster, plan, strategy="uplus")
    join_in = sum(m.input_mb for m in result.stage_results["join"].maps)
    expected = (result.stage_results["a"].reduces[0].output_mb
                + result.stage_results["b"].reduces[0].output_mb)
    assert join_in == pytest.approx(expected, rel=0.01)


def test_chain_mixed_external_and_stage_inputs():
    cluster = build_mrapid_cluster(a3_cluster(4))
    raw = cluster.load_input_files("/raw", 2, 10.0)
    dims = cluster.load_input_files("/dims", 1, 5.0)
    plan = [
        scan_stage("clean", raw),
        scan_stage("enrich", ["@clean", *dims]),
    ]
    result = run_chain(cluster, plan, strategy="uplus")
    enrich_in = sum(m.input_mb for m in result.stage_results["enrich"].maps)
    assert enrich_in == pytest.approx(
        result.stage_results["clean"].reduces[0].output_mb + 5.0, rel=0.01)


def test_speculative_chain_learns_repeated_stage_shapes():
    cluster = build_mrapid_cluster(a3_cluster(4))
    raw1 = cluster.load_input_files("/day1", 2, 10.0)
    raw2 = cluster.load_input_files("/day2", 2, 10.0)
    plan = [
        ChainStage("scan1", WORDCOUNT_PROFILE, tuple(raw1), signature="daily-scan"),
        ChainStage("scan2", WORDCOUNT_PROFILE, tuple(raw2), signature="daily-scan"),
    ]
    # scan1 and scan2 are independent but share a signature; whichever runs
    # second may reuse the decision. Run sequentially to force ordering:
    result = run_chain(cluster, [plan[0]], strategy="speculative")
    result2 = run_chain(cluster, [plan[1]], strategy="speculative")
    winners = cluster.mrapid_framework.decision_maker.winners
    assert winners.get("daily-scan") is not None
    # scan2 skipped the dual launch; allow for per-path data-skew variance.
    assert result2.stage_results["scan2"].elapsed <= \
        result.stage_results["scan1"].elapsed + 3.0


def test_stock_chain_baseline_slower_than_mrapid():
    stock = build_stock_cluster(a3_cluster(4))
    stock_result = run_chain(stock, simple_plan(stock), strategy="stock")
    mrapid = build_mrapid_cluster(a3_cluster(4))
    mrapid_result = run_chain(mrapid, simple_plan(mrapid), strategy="speculative")
    assert mrapid_result.elapsed < stock_result.elapsed


def test_chain_result_accounting():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_chain(cluster, simple_plan(cluster), strategy="dplus")
    assert set(result.stage_results) == {"extract", "transform", "load"}
    assert result.total_stage_seconds >= result.elapsed * 0.5
    assert result.critical_path_hint()[-1] == "load"
