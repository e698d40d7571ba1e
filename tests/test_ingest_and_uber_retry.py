"""Tests for timed HDFS ingest and Uber-mode in-JVM retry."""

import pytest

from repro.config import HadoopConfig, a3_cluster
from repro.core import build_stock_cluster, run_job
from repro.mapreduce import MODE_UBER, JobClient, SimJobSpec
from repro.workloads import WORDCOUNT_PROFILE


def test_ingest_takes_simulated_time_and_replicates():
    cluster = build_stock_cluster(a3_cluster(4))
    proc = cluster.ingest_input_files("/ingested", 4, 10.0)
    cluster.env.run(until=proc)
    assert cluster.env.now > 0.5  # 40 MB x3 replicas over real disks/network
    paths = proc.value
    assert len(paths) == 4
    for path in paths:
        file = cluster.namenode.get_file(path)
        assert file.size_mb == pytest.approx(10.0)
        assert len(file.blocks[0].replicas) == 3
        assert file.blocks[0].replicas[0] == "dn0"  # gateway-local primary


def test_ingested_files_runnable_as_job_input():
    cluster = build_stock_cluster(a3_cluster(4))
    proc = cluster.ingest_input_files("/warm", 2, 10.0)
    cluster.env.run(until=proc)
    spec = SimJobSpec("wc", tuple(proc.value), WORDCOUNT_PROFILE)
    result = run_job(cluster, spec, "uber")
    assert all(m.finish_time > 0 for m in result.maps)
    assert result.submit_time >= 0.5  # job started after ingest


def test_ingest_slower_than_metadata_load():
    timed = build_stock_cluster(a3_cluster(4))
    proc = timed.ingest_input_files("/x", 8, 10.0)
    timed.env.run(until=proc)
    assert timed.env.now > 2.0  # 240 MB of replica traffic is not free


def test_uber_retries_transient_failures_in_jvm():
    flaky = WORDCOUNT_PROFILE.with_(transient_failure_rate=0.35)
    cluster = build_stock_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/flaky", 6, 10.0)
    result = run_job(cluster, SimJobSpec("wordcount", tuple(paths), flaky),
                     "uber")
    assert all(m.finish_time > 0 for m in result.maps)
    assert any("." in m.task_id for m in result.maps)  # at least one retry
    assert result.reduces[0].input_mb == pytest.approx(6 * 3.0, rel=0.01)


def test_uber_gives_up_after_attempt_budget():
    doomed = WORDCOUNT_PROFILE.with_(transient_failure_rate=1.0)
    conf = HadoopConfig(max_task_attempts=2, am_max_attempts=1)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    paths = cluster.load_input_files("/doomed", 2, 10.0)
    handle = JobClient(cluster).submit(
        SimJobSpec("wordcount", tuple(paths), doomed), MODE_UBER)
    with pytest.raises(Exception):
        cluster.env.run(until=handle)
