"""Tests for the simulated MapReduce layer: tasks, AMs, the stock client."""

import pytest

from repro.config import HadoopConfig, a3_cluster
from repro.core import run_job
from repro.core.profiler import JobProfiler
from repro.mapreduce import SimJobSpec
from repro.mapreduce.spec import TaskRecord
from repro.mapreduce.tasks import sim_map_task, sim_reduce_task
from repro.simcluster import SimCluster
from repro.simulation.resources import Store
from repro.workloads.base import TERASORT_PROFILE, WORDCOUNT_PROFILE, pi_profile


def wc_cluster(n_files=4, file_mb=10.0, nodes=4, conf=None):
    cluster = SimCluster(a3_cluster(nodes), conf=conf)
    paths = cluster.load_input_files("/wc", n_files, file_mb)
    spec = SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)
    return cluster, spec


# -- spec validation -----------------------------------------------------------

def test_spec_requires_single_reduce():
    with pytest.raises(ValueError):
        SimJobSpec("x", ("/a",), WORDCOUNT_PROFILE, num_reduces=2)


def test_spec_requires_input():
    with pytest.raises(ValueError):
        SimJobSpec("x", (), WORDCOUNT_PROFILE)


def test_spec_signature_defaults_to_profile_name():
    spec = SimJobSpec("x", ("/a",), WORDCOUNT_PROFILE)
    assert spec.signature == "wordcount"


# -- task bodies ------------------------------------------------------------------

def test_map_task_phase_breakdown():
    cluster, spec = wc_cluster(1, 10.0)
    from repro.hdfs import compute_splits

    (split,) = compute_splits(cluster.namenode, spec.input_paths)
    record = TaskRecord("m0", "map")
    outputs = Store(cluster.env)
    node = split.hosts[0]  # run node-local

    proc = cluster.env.process(
        sim_map_task(cluster, spec.profile, split, node, record, outputs, setup_s=0.4))
    cluster.env.run(until=proc)

    from repro.workloads.base import task_skew_factor

    inst = cluster.spec.instance
    skew = task_skew_factor(spec.profile, f"{split.path}#{split.split_index}")
    assert 0.65 <= skew <= 1.35
    assert record.phases.setup == pytest.approx(0.4)
    assert record.phases.read == pytest.approx(10.0 / inst.disk_read_mb_s)
    assert record.phases.compute == pytest.approx(10.0 * 0.60 * skew)
    assert record.phases.spill == pytest.approx(3.0 / inst.disk_write_mb_s)
    assert record.phases.merge == 0.0                             # single spill
    assert record.locality.name == "NODE_LOCAL"
    assert record.output_mb == pytest.approx(3.0)
    assert len(outputs.items) == 1


def test_map_task_merge_pass_when_output_exceeds_sort_buffer():
    conf = HadoopConfig(sort_buffer_mb=1.0)
    cluster = SimCluster(a3_cluster(4), conf=conf)
    paths = cluster.load_input_files("/x", 1, 10.0)
    spec = SimJobSpec("x", tuple(paths), WORDCOUNT_PROFILE)
    from repro.hdfs import compute_splits

    (split,) = compute_splits(cluster.namenode, spec.input_paths)
    record = TaskRecord("m0", "map")
    proc = cluster.env.process(
        sim_map_task(cluster, spec.profile, split, split.hosts[0], record,
                     Store(cluster.env), setup_s=0.0))
    cluster.env.run(until=proc)
    assert record.phases.merge > 0.0


def test_map_task_memory_cache_skips_spill():
    class AlwaysCache:
        def try_reserve(self, mb):
            return True

    cluster, spec = wc_cluster(1, 10.0)
    from repro.hdfs import compute_splits

    (split,) = compute_splits(cluster.namenode, spec.input_paths)
    record = TaskRecord("m0", "map")
    outputs = Store(cluster.env)
    proc = cluster.env.process(
        sim_map_task(cluster, spec.profile, split, split.hosts[0], record,
                     outputs, setup_s=0.0, memory_cache=AlwaysCache()))
    cluster.env.run(until=proc)
    assert record.phases.spill == 0.0
    assert record.in_memory_output
    assert outputs.items[0] is record


def test_reduce_task_fetches_all_and_writes():
    cluster, spec = wc_cluster()
    outputs = Store(cluster.env)
    for i in range(3):
        outputs.put(TaskRecord(f"m{i}", "map", node_id="dn0", output_mb=2.0))
    record = TaskRecord("r0", "reduce")
    proc = cluster.env.process(
        sim_reduce_task(cluster, spec.profile, 3, "dn1", record, outputs,
                        setup_s=0.1, output_path="/out/x"))
    cluster.env.run(until=proc)
    assert record.input_mb == pytest.approx(6.0)
    assert record.phases.shuffle > 0.0
    assert record.output_mb == pytest.approx(6.0 * 0.35)
    assert cluster.namenode.exists("/out/x")


def test_reduce_in_memory_local_fetch_is_free():
    cluster, spec = wc_cluster()
    outputs = Store(cluster.env)
    for i in range(3):
        outputs.put(TaskRecord(f"m{i}", "map", node_id="dn2", output_mb=2.0,
                               in_memory_output=True))
    record = TaskRecord("r0", "reduce")
    proc = cluster.env.process(
        sim_reduce_task(cluster, spec.profile, 3, "dn2", record, outputs,
                        setup_s=0.0, output_path="/out/y"))
    cluster.env.run(until=proc)
    assert record.phases.shuffle == pytest.approx(0.0)


def test_reduce_merge_pass_when_over_buffer():
    conf = HadoopConfig(sort_buffer_mb=1.0)
    cluster = SimCluster(a3_cluster(4), conf=conf)
    spec = SimJobSpec("x", tuple(cluster.load_input_files("/x", 1, 1.0)),
                      WORDCOUNT_PROFILE)
    outputs = Store(cluster.env)
    outputs.put(TaskRecord("m0", "map", node_id="dn0", output_mb=5.0))
    record = TaskRecord("r0", "reduce")
    proc = cluster.env.process(
        sim_reduce_task(cluster, spec.profile, 1, "dn0", record, outputs,
                        setup_s=0.0, output_path="/out/z"))
    cluster.env.run(until=proc)
    assert record.phases.merge > 0.0


# -- end-to-end stock modes ------------------------------------------------------------

def test_distributed_job_completes_with_all_tasks():
    cluster, spec = wc_cluster(4, 10.0)
    result = run_job(cluster, spec, "distributed")
    assert len(result.maps) == 4
    assert len(result.reduces) == 1
    assert all(m.finish_time > 0 for m in result.maps)
    assert result.elapsed > 0
    assert result.finish_time >= max(m.finish_time for m in result.maps)


def test_distributed_job_releases_all_resources():
    cluster, spec = wc_cluster(4, 10.0)
    run_job(cluster, spec, "distributed")
    cluster.env.run(until=cluster.env.now + 2.0)
    from repro.cluster import ResourceVector

    assert cluster.rm.total_used() == ResourceVector(0, 0)


def test_uber_job_runs_maps_sequentially():
    cluster, spec = wc_cluster(4, 10.0)
    result = run_job(cluster, spec, "uber")
    # strictly serial: each map starts at/after the previous one finished
    maps = sorted(result.maps, key=lambda m: m.start_time)
    for earlier, later in zip(maps, maps[1:]):
        assert later.start_time >= earlier.finish_time - 1e-9
    assert result.num_waves == 4
    assert len(result.nodes_used()) == 1


def test_uber_single_file_faster_than_distributed():
    """For a 1-map job the Uber mode avoids container waves and shuffle."""
    c1, s1 = wc_cluster(1, 10.0)
    dist = run_job(c1, s1, "distributed")
    c2, s2 = wc_cluster(1, 10.0)
    uber = run_job(c2, s2, "uber")
    assert uber.elapsed < dist.elapsed


def test_distributed_beats_uber_on_many_files():
    """Parallelism wins once the map count grows (Figure 7 right side)."""
    c1, s1 = wc_cluster(16, 10.0)
    dist = run_job(c1, s1, "distributed")
    c2, s2 = wc_cluster(16, 10.0)
    uber = run_job(c2, s2, "uber")
    assert dist.elapsed < uber.elapsed


def test_unknown_mode_rejected():
    cluster, spec = wc_cluster()
    with pytest.raises(ValueError):
        run_job(cluster, spec, "bogus")


def test_job_result_locality_counts_sum_to_maps():
    cluster, spec = wc_cluster(8, 10.0)
    result = run_job(cluster, spec, "distributed")
    assert sum(result.locality_counts().values()) == 8


def test_two_wave_job_reports_multiple_waves():
    # Memory-only packing admits ~7 containers per A3 node (7168/1024), so
    # 4 nodes hold ~26 concurrent tasks after the AM; 40 maps -> >= 2 waves.
    cluster = SimCluster(a3_cluster(4))
    paths = cluster.load_input_files("/wc", 40, 10.0)
    spec = SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)
    result = run_job(cluster, spec, "distributed")
    assert result.num_waves >= 2


def test_pi_profile_jobs_are_compute_bound():
    cluster = SimCluster(a3_cluster(4))
    paths = cluster.load_input_files("/pi", 4, 0.01)
    profile = pi_profile(total_samples=400e6, num_maps=4)
    spec = SimJobSpec("pi", tuple(paths), profile)
    result = run_job(cluster, spec, "distributed")
    avg = JobProfiler(result).snapshot().avg_map_compute_s
    # ~5s per map (100e6 samples / 4 maps at 5e-8 s/sample), within the
    # deterministic data skew.
    assert avg == pytest.approx(100e6 * 5.0e-8, rel=0.16)
    assert all(m.phases.read < 0.1 for m in result.maps)


def test_terasort_profile_moves_all_bytes():
    cluster = SimCluster(a3_cluster(4))
    paths = cluster.load_input_files("/ts", 4, 20.0)
    spec = SimJobSpec("terasort", tuple(paths), TERASORT_PROFILE)
    result = run_job(cluster, spec, "distributed")
    assert result.reduces[0].input_mb == pytest.approx(80.0)
    assert result.reduces[0].output_mb == pytest.approx(80.0)
