"""Heavy-traffic replay: metamorphic, snapshot, and CLI regression tests.

The replay driver (``repro.trace.replay_load``) must be: deterministic
(same trace + seed -> byte-identical streaming metrics, serial or
parallel), monotone in offered load (more arrivals never make mean sojourn
*better*), and memory-bounded (no per-job state survives a job's
completion). Figure L1 is snapshot-gated like the paper figures.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.config import HadoopConfig, a3_cluster
from repro.experiments.loadsweep import (
    LoadPointTask,
    figureL1_load_sweep,
    load_sweep_reports,
)
from repro.trace import (
    SCHEDULER_CAPACITY,
    SCHEDULER_HFSP,
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    build_trace_cluster,
    default_short_job_mix,
    parse_trace_file,
    poisson_trace,
    replay_load,
    run_load,
)

SPEC = a3_cluster(4)
MIX = default_short_job_mix()
CONF = HadoopConfig(am_resource_fraction=0.3)
SNAPSHOT = os.path.join(os.path.dirname(__file__), "snapshots", "loadsweep.json")


def small_report(scheduler="fifo", strategy=STRATEGY_STOCK, rate=15.0,
                 duration=180.0, seed=5, **kwargs):
    return run_load(SPEC, MIX, rate, duration, scheduler=scheduler,
                    strategy=strategy, conf=CONF, seed=seed, **kwargs)


# -- metamorphic: determinism --------------------------------------------------

@pytest.mark.parametrize("scheduler,strategy", [
    ("fifo", STRATEGY_STOCK),
    (SCHEDULER_HFSP, STRATEGY_STOCK),
    ("fifo", STRATEGY_SPECULATIVE),
])
def test_replay_byte_identical_across_runs(scheduler, strategy):
    """Same trace + seed -> byte-identical streaming metrics, twice."""
    a = small_report(scheduler, strategy)
    b = small_report(scheduler, strategy)
    assert (json.dumps(a.to_dict(), sort_keys=True)
            == json.dumps(b.to_dict(), sort_keys=True))


def test_sweep_serial_and_parallel_identical():
    """--jobs N is a wall-clock knob, never a results knob."""
    kwargs = dict(rates=(12.0,), duration_s=150.0)
    serial = load_sweep_reports(jobs=1, **kwargs)
    parallel = load_sweep_reports(jobs=4, **kwargs)
    assert serial.keys() == parallel.keys()
    for cell in serial:
        assert (json.dumps(serial[cell].to_dict(), sort_keys=True)
                == json.dumps(parallel[cell].to_dict(), sort_keys=True)), cell


# -- metamorphic: load monotonicity --------------------------------------------

def test_doubling_rate_never_decreases_mean_sojourn():
    """Open-loop replay: more offered load can only hurt mean sojourn."""
    means = [small_report(rate=rate, duration=240.0).sojourn.mean
             for rate in (8.0, 16.0, 32.0)]
    assert means[0] <= means[1] + 1e-9
    assert means[1] <= means[2] + 1e-9


# -- bounded memory -------------------------------------------------------------

def test_replay_retains_no_per_job_state():
    """After the replay every per-job structure is empty: the RM app table,
    scheduler queues, HDFS namespace (inputs *and* outputs), and the event
    log is a bounded ring."""
    trace = poisson_trace(MIX, 20.0, 300.0, seed=9)
    cluster = build_trace_cluster(SPEC, scheduler=SCHEDULER_HFSP,
                                  strategy=STRATEGY_SPECULATIVE, conf=CONF)
    report = replay_load(cluster, trace, STRATEGY_SPECULATIVE)
    assert report.jobs_completed == len(trace) > 0
    assert cluster.rm.apps == {}
    assert cluster.scheduler.queue == []
    assert cluster.namenode.list_files() == []
    # Streaming summaries are O(1): five P2 markers per quantile, no lists.
    assert report.per_job == []


def test_report_counts_and_percentile_ordering():
    report = small_report(SCHEDULER_CAPACITY, rate=20.0)
    assert report.jobs_completed == report.jobs_submitted
    assert report.sojourn.count == report.jobs_completed - report.killed - report.failed
    assert report.sojourn.p50 <= report.sojourn.p95 <= report.sojourn.p99
    assert sum(report.decisions.values()) == report.sojourn.count
    assert report.peak_in_flight >= 1
    # Slowdown is sojourn over idle-cluster service time: >= 1 under load.
    assert report.slowdown.mean >= 1.0


# -- trace files -----------------------------------------------------------------

def test_parse_trace_file_roundtrip():
    text = """
    # two scans, then a sort
    0.0 scan
    1.5 scan
    1.5 sort
    """
    jobs = parse_trace_file(text, MIX)
    assert [(j.arrival_s, j.template.name, j.index) for j in jobs] == [
        (0.0, "scan", 0), (1.5, "scan", 1), (1.5, "sort", 2)]


def test_parse_trace_file_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown template"):
        parse_trace_file("0.0 nosuch", MIX)
    with pytest.raises(ValueError, match="non-decreasing"):
        parse_trace_file("5.0 scan\n1.0 scan", MIX)
    with pytest.raises(ValueError, match="expected"):
        parse_trace_file("1.0 scan extra", MIX)


# -- Figure L1 snapshot gate ------------------------------------------------------

@pytest.fixture(scope="module")
def figure_l1():
    return figureL1_load_sweep(jobs=4)


def test_figure_l1_matches_snapshot(figure_l1):
    with open(SNAPSHOT) as f:
        expected = json.load(f)[figure_l1.figure_id]
    assert set(figure_l1.series) == set(expected), "series set changed"
    for name, series in figure_l1.series.items():
        exp = expected[name]
        assert series.x == exp["x"], f"{name}: x-axis changed"
        for got, want in zip(series.y, exp["y"]):
            assert got == pytest.approx(want, abs=1e-5), (
                f"Figure L1/{name}: drifted ({got} != {want}); regenerate "
                f"tests/snapshots/loadsweep.json if intentional")


def test_figure_l1_hfsp_beats_fifo_at_high_load(figure_l1):
    """The tentpole acceptance criterion: size-based scheduling wins on
    mean sojourn for the short-job mix once the cluster is loaded."""
    top = 40.0
    fifo = figure_l1.series["fifo/stock mean"].at(top)
    hfsp = figure_l1.series["hfsp/stock mean"].at(top)
    assert hfsp < fifo
    for claim in figure_l1.claims:
        assert claim.holds, claim.description


def test_load_point_task_is_picklable_and_runs():
    import pickle

    task = LoadPointTask("fifo", STRATEGY_STOCK, 10.0, duration_s=60.0)
    clone = pickle.loads(pickle.dumps(task))
    report = clone.run()
    assert report.jobs_completed == report.jobs_submitted > 0
    assert report.scheduler == "fifo"


# -- CLI regression ----------------------------------------------------------------

def test_cli_trace_json_includes_decisions(capsys):
    """Regression for the old `repro trace`: scheduler was hardcoded and
    per-job mode decisions were discarded. Now --scheduler/--mode select
    the replay cell and --json carries a decision per job."""
    rc = cli_main(["trace", "--rate", "10", "--minutes", "2", "--seed", "3",
                   "--scheduler", "hfsp", "--mode", "stock", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheduler"] == "hfsp"
    assert payload["strategy"] == "stock-auto"
    assert payload["jobs_completed"] == payload["jobs_submitted"] > 0
    jobs = payload["jobs"]
    assert len(jobs) == payload["jobs_completed"]
    assert all(job["decision"] for job in jobs)
    # Auto mode decided per job (short-job mix -> uberized).
    assert payload["decisions"] == {"hadoop-uber": len(jobs)}
    assert {"p50", "p95", "p99", "mean", "max", "count"} <= set(payload["sojourn"])


def test_cli_trace_default_compares_stock_and_speculative(capsys):
    rc = cli_main(["trace", "--rate", "8", "--minutes", "1.5", "--report"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fifo/stock-auto" in out
    assert "fifo/mrapid-speculative" in out
    assert "decisions" in out
    assert "queue depth" in out


def test_cli_trace_file_replays_explicit_schedule(tmp_path, capsys):
    path = tmp_path / "sched.trace"
    path.write_text("# burst\n0.0 scan\n2.0 scan\n5.0 sort\n")
    rc = cli_main(["trace", "--trace-file", str(path), "--mode", "stock",
                   "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs_submitted"] == payload["jobs_completed"] == 3
    # jobs are appended in completion order; arrivals come from the file
    assert sorted(j["arrival_s"] for j in payload["jobs"]) == [0.0, 2.0, 5.0]


def test_cli_trace_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        cli_main(["trace", "--scheduler", "bogus"])
