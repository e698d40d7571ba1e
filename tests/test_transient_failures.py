"""Transient task failure injection and retry in both execution modes."""

import pytest

from repro.config import HadoopConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster, run_job
from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
from repro.mapreduce.appmaster import JobFailed
from repro.mapreduce.tasks import TransientTaskError
from repro.workloads import WORDCOUNT_PROFILE
from repro.workloads.base import attempt_fails


FLAKY = WORDCOUNT_PROFILE.with_(transient_failure_rate=0.35)
DOOMED = WORDCOUNT_PROFILE.with_(transient_failure_rate=1.0)


def flaky_spec(cluster, n=8, profile=FLAKY):
    paths = cluster.load_input_files("/flaky", n, 10.0)
    return SimJobSpec("wordcount", tuple(paths), profile)


def test_attempt_fails_deterministic():
    assert attempt_fails(DOOMED, "any-key")
    assert not attempt_fails(WORDCOUNT_PROFILE, "any-key")
    flaky_draws = [attempt_fails(FLAKY, f"k{i}") for i in range(200)]
    rate = sum(flaky_draws) / len(flaky_draws)
    assert 0.2 < rate < 0.5                       # roughly the configured rate
    assert flaky_draws == [attempt_fails(FLAKY, f"k{i}") for i in range(200)]


def test_distributed_job_retries_transient_failures():
    cluster = build_stock_cluster(a3_cluster(4))
    spec = flaky_spec(cluster)
    result = run_job(cluster, spec, "distributed")
    assert not result.failed
    assert all(m.finish_time > 0 for m in result.maps)
    retried = [m.task_id for m in result.maps if "." in m.task_id]
    assert retried, "35% attempt failure over 8 tasks should force retries"
    # The reducer got exactly one output per logical task.
    assert result.reduces[0].input_mb == pytest.approx(8 * 3.0, rel=0.01)


def test_uplus_retries_in_container():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_job(cluster, flaky_spec(cluster, 6), "uplus")
    assert not result.failed
    assert all(m.finish_time > 0 for m in result.maps)
    assert result.reduces[0].input_mb == pytest.approx(6 * 3.0, rel=0.01)


def test_always_failing_job_aborts_cleanly_distributed():
    conf = HadoopConfig(max_task_attempts=3)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    spec = flaky_spec(cluster, 4, profile=DOOMED)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    with pytest.raises(JobFailed):
        cluster.env.run(until=handle)
    # No leaked task containers after the abort settles.
    cluster.env.run(until=cluster.env.now + 3.0)
    from repro.cluster import ResourceVector

    assert cluster.rm.total_used() == ResourceVector(0, 0)


def test_always_failing_job_aborts_cleanly_uplus():
    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_job(cluster, flaky_spec(cluster, 4, profile=DOOMED), "uplus")
    assert result.failed
    # The pooled AM survived and went back to the pool.
    assert len(cluster.mrapid_framework.parked) == \
        len(cluster.mrapid_framework.slaves)


def test_flaky_job_slower_than_clean():
    clean = build_stock_cluster(a3_cluster(4))
    clean_result = run_job(
        clean, flaky_spec(clean, 8, profile=WORDCOUNT_PROFILE), "distributed")
    flaky = build_stock_cluster(a3_cluster(4))
    flaky_result = run_job(flaky, flaky_spec(flaky, 8), "distributed")
    assert flaky_result.elapsed > clean_result.elapsed


def test_transient_error_type_is_catchable():
    with pytest.raises(TransientTaskError):
        raise TransientTaskError("m000")
