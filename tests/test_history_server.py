"""Tests for the JobHistoryServer aggregations."""

import pytest

from repro.config import a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster, run_job
from repro.history import JobHistoryServer
from repro.mapreduce import SimJobSpec
from repro.mapreduce.spec import PHASES, PhaseTimings
from repro.workloads import WORDCOUNT_PROFILE


def run_jobs():
    results = []
    stock = build_stock_cluster(a3_cluster(4))
    paths = stock.load_input_files("/a", 4, 10.0)
    results.append(run_job(
        stock, SimJobSpec("wc-a", tuple(paths), WORDCOUNT_PROFILE), "distributed"))
    paths = stock.load_input_files("/b", 2, 10.0)
    results.append(run_job(
        stock, SimJobSpec("wc-b", tuple(paths), WORDCOUNT_PROFILE), "uber"))

    mrapid = build_mrapid_cluster(a3_cluster(4))
    paths = mrapid.load_input_files("/c", 4, 10.0)
    results.append(run_job(
        mrapid, SimJobSpec("wc-c", tuple(paths), WORDCOUNT_PROFILE), "uplus"))
    return results


def test_history_records_and_filters():
    server = JobHistoryServer()
    server.record_all(run_jobs())
    assert len(server) == 3
    assert len(server.jobs(mode="hadoop-uber")) == 1
    assert len(server.jobs(name="wc-c")) == 1
    assert server.jobs(mode="nope") == []


def test_by_mode_summaries():
    server = JobHistoryServer()
    server.record_all(run_jobs())
    summaries = server.by_mode()
    assert set(summaries) == {"hadoop-distributed", "hadoop-uber", "mrapid-uplus"}
    dist = summaries["hadoop-distributed"]
    assert dist.jobs == 1
    assert dist.mean_elapsed > 0
    # WordCount maps are compute-dominated under every mode.
    assert dist.map_phase.dominant() == "compute"
    assert dist.map_phase.total() > 0


def test_overhead_fraction_lower_for_mrapid():
    server = JobHistoryServer()
    server.record_all(run_jobs())
    stock_frac = server.overhead_fraction(mode="hadoop-distributed")
    mrapid_frac = server.overhead_fraction(mode="mrapid-uplus")
    assert 0 < mrapid_frac < stock_frac < 1


def test_slowest_ordering():
    server = JobHistoryServer()
    server.record_all(run_jobs())
    slowest = server.slowest(2)
    assert len(slowest) == 2
    assert slowest[0].elapsed >= slowest[1].elapsed


def test_report_text():
    server = JobHistoryServer()
    server.record_all(run_jobs())
    text = server.report()
    assert "3 jobs" in text
    assert "slowest:" in text
    assert "dominated by compute" in text


def test_to_json_machine_readable():
    import json

    server = JobHistoryServer()
    server.record_all(run_jobs())
    data = json.loads(server.to_json())
    assert data["jobs"] == 3
    assert 0 < data["overhead_fraction"] < 1
    dist = data["modes"]["hadoop-distributed"]
    assert dist["dominant_map_phase"] == "compute"
    assert set(dist["map_phase_mean_s"]) == set(PHASES)
    assert dist["map_phase_mean_s"]["compute"] > 0


def test_empty_server():
    server = JobHistoryServer()
    assert server.overhead_fraction() == 0.0
    assert server.slowest() == []
    assert "0 jobs" in server.report()


def test_phase_breakdown_dominant():
    pb = PhaseTimings(compute=5.0, read=1.0)
    assert pb.dominant() == "compute"
    assert pb.total() == pytest.approx(6.0)
