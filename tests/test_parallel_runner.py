"""Parallel experiment runner: determinism, reassembly, and task plumbing.

The contract under test: fanning data points over worker processes yields
*byte-identical* figure output to the serial path, because every point is a
fresh, seeded, self-contained simulation and results are reassembled in
task order.
"""

import pickle

import pytest

from repro.config import a3_cluster
from repro.experiments.figures import ALL_FIGURES, wordcount_input
from repro.experiments.harness import (
    ALL_MODES,
    HADOOP_UBER,
    MRAPID_UPLUS,
    PointTask,
    run_mode,
    sweep,
)
from repro.experiments.parallel import (
    get_default_jobs,
    resolve_jobs,
    run_point_tasks,
    set_default_jobs,
)

CLUSTER = a3_cluster(4)


def tiny_tasks():
    return [PointTask(mode, CLUSTER, wordcount_input(2, 5.0))
            for mode in (HADOOP_UBER, MRAPID_UPLUS)]


def test_point_task_is_picklable():
    task = tiny_tasks()[0]
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task


def test_point_task_run_matches_run_mode():
    task = tiny_tasks()[1]
    direct = run_mode(task.mode, task.cluster_spec, task.spec_builder)
    assert task.run().elapsed == pytest.approx(direct.elapsed)


def test_serial_and_parallel_results_identical():
    tasks = tiny_tasks()
    serial = [r.elapsed for r in run_point_tasks(tasks, jobs=1)]
    parallel = [r.elapsed for r in run_point_tasks(tasks, jobs=2)]
    assert parallel == serial  # exact equality: same seeds, same sims


def test_results_reassembled_in_task_order():
    tasks = tiny_tasks() + tiny_tasks()[::-1]
    results = run_point_tasks(tasks, jobs=2)
    assert [r.mode for r in results] == [
        "hadoop-uber", "mrapid-uplus", "mrapid-uplus", "hadoop-uber"]


def test_sweep_accepts_point_tasks_and_matches_legacy_closure():
    xs = (2, 3)

    def task_point(mode, n_files):
        return PointTask(mode, CLUSTER, wordcount_input(n_files, 60.0 / n_files))

    def legacy_point(mode, n_files):
        return run_mode(mode, CLUSTER, wordcount_input(n_files, 60.0 / n_files)).elapsed

    via_tasks = sweep("F", "t", "n", xs, ALL_MODES, task_point)
    via_floats = sweep("F", "t", "n", xs, ALL_MODES, legacy_point)
    assert via_tasks.render_table() == via_floats.render_table()


def test_sweep_rejects_mixed_point_returns():
    def mixed(mode, x):
        if x == 2:
            return PointTask(mode, CLUSTER, wordcount_input(2, 5.0))
        return 1.0

    with pytest.raises(TypeError):
        sweep("F", "t", "n", (2, 3), ALL_MODES, mixed)


@pytest.mark.parametrize("name", ["table2", "figure7", "figure9", "figure12"])
def test_figure_output_identical_across_worker_counts(name):
    previous = get_default_jobs()
    tables = []
    try:
        for jobs in (1, 2):
            set_default_jobs(jobs)
            tables.append(ALL_FIGURES[name]().render_table())
    finally:
        set_default_jobs(previous)
    serial, parallel = tables
    assert parallel == serial


def test_runs_are_invariant_to_process_history():
    # App/container ids are allocated per cluster, not process-wide, so the
    # same experiment produces identical output no matter what ran before it
    # in this process.
    first = run_mode(HADOOP_UBER, CLUSTER, wordcount_input(2, 5.0))
    second = run_mode(HADOOP_UBER, CLUSTER, wordcount_input(2, 5.0))
    assert second.app_id == first.app_id
    assert second.elapsed == first.elapsed


def test_default_jobs_configuration():
    previous = get_default_jobs()
    try:
        set_default_jobs(3)
        assert get_default_jobs() == 3
        set_default_jobs(None)
        assert get_default_jobs() >= 1
    finally:
        set_default_jobs(previous)
    with pytest.raises(ValueError):
        resolve_jobs(0)
