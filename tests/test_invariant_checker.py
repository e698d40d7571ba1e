"""Run whole scenarios under the invariant checker."""

import pytest

from repro.config import a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster, run_job
from repro.mapreduce import SimJobSpec
from repro.simulation.debug import InvariantChecker
from repro.workloads import WORDCOUNT_PROFILE


def wc(cluster, n=8):
    paths = cluster.load_input_files("/wc", n, 10.0)
    return SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)


def test_checker_validation():
    cluster = build_stock_cluster(a3_cluster(2))
    with pytest.raises(ValueError):
        InvariantChecker(cluster, every_n_events=0)


def test_stock_distributed_run_clean():
    cluster = build_stock_cluster(a3_cluster(4))
    checker = InvariantChecker(cluster)
    run_job(cluster, wc(cluster), "distributed")
    checker.assert_clean()


def test_stock_uber_run_clean():
    cluster = build_stock_cluster(a3_cluster(4))
    checker = InvariantChecker(cluster)
    run_job(cluster, wc(cluster, 4), "uber")
    checker.assert_clean()


def test_speculative_run_clean_including_kill_paths():
    cluster = build_mrapid_cluster(a3_cluster(4))
    checker = InvariantChecker(cluster)
    run_job(cluster, wc(cluster, 4), "speculative")
    checker.assert_clean()


def test_node_failure_scenario_clean():
    cluster = build_mrapid_cluster(a3_cluster(4))
    checker = InvariantChecker(cluster)
    spec = wc(cluster)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")

    def chaos(env):
        yield env.timeout(7.0)
        pool = {s.node_id for s in cluster.mrapid_framework.slaves}
        victim = next(n for n in ("dn3", "dn2", "dn1") if n not in pool)
        cluster.fail_node(victim)

    cluster.env.process(chaos(cluster.env))
    cluster.env.run(until=handle.proc)
    checker.assert_clean()


def test_checker_detects_planted_violation():
    cluster = build_stock_cluster(a3_cluster(2))
    checker = InvariantChecker(cluster)
    # Corrupt the books on purpose.
    cluster.rm.nodes["dn0"].used_memory_mb = -100
    cluster.env.run(until=1.0)
    with pytest.raises(AssertionError, match="negative accounting"):
        checker.assert_clean()


def test_checker_flags_planted_device_violations():
    cluster = build_stock_cluster(a3_cluster(2))
    checker = InvariantChecker(cluster)
    node = cluster.topology.node("dn0")
    # A slowed disk serves 0.25 device-seconds per second; an op planted
    # at 0.5 stays under its 1.0 cap but over-allocates the device.
    node.disk.set_slowdown(4.0)
    node.disk.read(10.0, label="planted").rate = 0.5
    # A task planted at 1.5 cores exceeds its 1-core cap on an idle pool.
    assert node.cpu.cores >= 2
    node.cpu.compute(10.0, label="planted").rate = 1.5
    cluster.env.step()
    found = {v.what for v in checker.violations}
    assert found == {"device 'dn0.disk' over-allocated: 0.5000 > 0.2500",
                     "flow 'dn0.cpu:planted' exceeds its cap"}


def test_checker_detach_stops_checking():
    cluster = build_stock_cluster(a3_cluster(2))
    checker = InvariantChecker(cluster)
    checker.detach()
    cluster.rm.nodes["dn0"].used_memory_mb = -100
    cluster.env.run(until=1.0)
    checker.assert_clean()  # no longer watching


def test_sampling_interval_reduces_overhead_but_still_checks():
    cluster = build_stock_cluster(a3_cluster(4))
    checker = InvariantChecker(cluster, every_n_events=10)
    run_job(cluster, wc(cluster, 4), "distributed")
    checker.assert_clean()
