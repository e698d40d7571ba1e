"""Tests for the tracing + profiling subsystem (repro.observe)."""

import hashlib
import json

import pytest

from repro.config import a3_cluster
from repro.core import build_stock_cluster
from repro.observe import (
    Tracer,
    analyze_job,
    install_tracer,
    run_profiled,
    validate_trace_events,
)
from repro.simulation.core import Environment


# -- tracer primitives -------------------------------------------------------

def test_span_tree_and_args():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.begin("job", "job", "cluster", "lane")
    env._now = 1.0
    child = tracer.complete("read", "read", "dn0", "m000", 0.25, parent=root,
                            mb=10.0)
    tracer.end(root)
    spans = tracer.closed_spans()
    assert {s.name for s in spans} == {"job", "read"}
    assert child.parent is root.sid
    assert child.args["mb"] == 10.0
    assert root.covers(child.start) and root.covers(child.end)


def test_kernel_hook_counts_dispatches():
    cluster = build_stock_cluster(a3_cluster(2))
    env = cluster.env

    def ticker():
        while True:
            yield env.timeout(0.5)

    env.process(ticker())
    env.run(until=1.0)
    at_install = env.events_processed
    assert at_install > 0
    tracer = install_tracer(cluster)
    env.run(until=5.0)
    dispatched = env.events_processed - at_install
    assert dispatched >= 8
    assert tracer.metrics.get("kernel:events_dispatched").value == dispatched
    assert tracer.metrics_snapshot()["counters"][
        "kernel:events_dispatched"] == dispatched


def test_tracer_disabled_by_default():
    cluster = build_stock_cluster(a3_cluster(2))
    assert cluster.env.tracer is None


# -- end-to-end profiling ----------------------------------------------------

@pytest.fixture(scope="module")
def profiles():
    return {mode: run_profiled("wordcount", mode)
            for mode in ("stock", "uber", "dplus", "uplus")}


def test_attribution_partitions_elapsed(profiles):
    """The critical-path segments tile [t0, t1]: totals sum to elapsed and
    fractions to ~1, for every mode."""
    for mode, report in profiles.items():
        path = report.path
        assert path.elapsed == pytest.approx(report.result.elapsed, rel=1e-6)
        assert sum(path.totals.values()) == pytest.approx(path.elapsed,
                                                          rel=1e-6)
        assert sum(path.fractions.values()) == pytest.approx(1.0, abs=1e-6)


def test_stock_overhead_majority_and_shrinks_under_mrapid(profiles):
    """The paper's motivating claim, as a regression gate: for a short job
    the stock non-compute fraction is large (>50%) and MRapid removes a
    strict chunk of it at each step (D+ < stock, U+ < D+)."""
    stock = profiles["stock"].path.non_compute_fraction
    dplus = profiles["dplus"].path.non_compute_fraction
    uplus = profiles["uplus"].path.non_compute_fraction
    assert stock > 0.50
    assert dplus < stock
    assert uplus < dplus


def test_perfetto_export_is_valid(profiles):
    for mode, report in profiles.items():
        obj = json.loads(json.dumps(report.to_perfetto()))
        assert validate_trace_events(obj) == []
        events = obj["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        assert any(e["ph"] == "B" for e in events)
        # One pid per node plus the cluster pseudo-process.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "cluster" in names
        assert any(n.startswith("dn") for n in names)


def test_validate_catches_broken_traces():
    bad = {"traceEvents": [
        {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 10, "cat": "x"},
        {"ph": "E", "name": "b", "pid": 1, "tid": 1, "ts": 20, "cat": "x"},
    ]}
    assert validate_trace_events(bad) != []
    unsorted = {"traceEvents": [
        {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 20, "cat": "x",
         "s": "t"},
        {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 10, "cat": "x",
         "s": "t"},
    ]}
    assert validate_trace_events(unsorted) != []


def test_breakdown_dict_shape(profiles):
    data = json.loads(json.dumps(profiles["stock"].breakdown_dict()))
    assert data["workload"] == "wordcount"
    assert data["mode"] == "Hadoop-Distributed"
    assert set(data["breakdown"]["totals"]) == set(
        data["breakdown"]["fractions"])
    assert data["metrics"]["counters"]["kernel:events_dispatched"] > 0


def test_render_mentions_every_class(profiles):
    text = profiles["stock"].render()
    for cls in ("heartbeat_wait", "container_launch", "am_startup",
                "read_compute", "shuffle"):
        assert cls in text
    assert "non-compute fraction" in text


def test_fault_instants_traced():
    from repro.faults import FaultPlan, inject
    from repro.faults.plan import DiskSlowdown

    cluster = build_stock_cluster(a3_cluster(2))
    tracer = install_tracer(cluster)
    plan = FaultPlan(events=(DiskSlowdown(at=1.0, node="dn0", factor=4.0,
                                          duration=2.0),), seed=3)
    inject(cluster, plan)
    cluster.env.run(until=5.0)
    kinds = {i.name for i in tracer.instants}
    assert "slow_disk" in kinds and "disk_restored" in kinds
    assert tracer.metrics.get("faults:slow_disk").value == 1
    assert tracer.metrics_snapshot() == {
        "counters": {"faults:disk_restored": 1.0, "faults:slow_disk": 1.0,
                     "kernel:events_dispatched": 8.0},
        "histograms": {}}


#: sha256 of ``repro profile --workload wordcount --mode stock``'s
#: ``profile.breakdown.json``: the critical-path breakdown plus the tracer's
#: counter and histogram snapshot, byte for byte.
_PINNED_PROFILE_BREAKDOWN = (
    "69c5b494253e97c835c45dad4e424fe4452d0cb0c6ab93a0bcaa00f6aac26fab")


def test_profile_breakdown_is_pinned(tmp_path, capsys):
    from repro.cli import main

    breakdown = tmp_path / "profile.breakdown.json"
    assert main(["profile", "--workload", "wordcount", "--mode", "stock",
                 "--output", str(tmp_path / "profile.perfetto.json"),
                 "--breakdown", str(breakdown)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(breakdown.read_bytes()).hexdigest()
    assert digest == _PINNED_PROFILE_BREAKDOWN


def test_analyze_job_requires_job_span():
    env = Environment()
    tracer = Tracer(env)
    with pytest.raises(ValueError):
        analyze_job(tracer)


def test_figure_o1_registered():
    from repro.cli import _all_figures

    assert "figureO1" in _all_figures()
