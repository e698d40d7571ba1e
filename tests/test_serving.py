"""SLO-aware serving mode: admission properties, autoscaling, replay wiring.

Covers the serving mode: Hypothesis invariants of the admission controller (bounded
queue, batch-first shedding, no rejections under capacity, permutation
invariance), the autoscaler's fault-churn composition (crashed nodes are
not capacity but still bill), metamorphic determinism of the full serving
replay, and the CLI surfaces (``--slo``, ``--fault-plan``, per-job
outcomes in ``--json``).
"""

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.config import (
    SLO_BATCH,
    SLO_LATENCY,
    HadoopConfig,
    ServingConfig,
    a3_cluster,
)
from repro.faults.plan import FaultPlan, churn_plan, named_plan
from repro.serving import (
    OUTCOME_ADMITTED,
    OUTCOME_REJECTED,
    AdmissionController,
    SLOJob,
)
from repro.serving.autoscaler import Autoscaler
from repro.trace import (
    build_trace_cluster,
    default_serving_mix,
    default_short_job_mix,
    parse_trace_file,
    poisson_trace,
    replay_load,
    run_load,
)

SPEC = a3_cluster(4)
MIX = default_serving_mix()
SNAPSHOT = os.path.join(os.path.dirname(__file__), "snapshots", "slosweep.json")

SERVING = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                        initial_guess_s=12.0)


def serving_conf(**kwargs):
    return HadoopConfig(am_resource_fraction=0.3,
                        serving=SERVING.with_(**kwargs) if kwargs else SERVING)


def serving_report(rate=25.0, duration=240.0, seed=5, fault_plan=None,
                   conf=None, **kwargs):
    return run_load(SPEC, MIX, rate, duration,
                    conf=conf if conf is not None else serving_conf(),
                    seed=seed, fault_plan=fault_plan, **kwargs)


# -- Hypothesis: admission controller invariants --------------------------------

def jobs_strategy(max_jobs=40):
    """Random arrival sequences: per-job class, spacing, and deadline."""
    job = st.tuples(
        st.sampled_from([SLO_LATENCY, SLO_BATCH]),
        st.floats(0.0, 30.0, allow_nan=False),    # inter-arrival gap
        st.floats(5.0, 200.0, allow_nan=False),   # relative deadline
    )
    return st.lists(job, min_size=1, max_size=max_jobs)


def make_jobs(raw):
    jobs, now = [], 0.0
    for i, (slo_class, gap, deadline) in enumerate(raw):
        now += gap
        absolute = now + deadline if slo_class == SLO_LATENCY else float("inf")
        jobs.append(SLOJob(index=i, name=f"t{i % 3}", slo_class=slo_class,
                           arrival_s=now, deadline_s=absolute))
    return jobs


@given(jobs_strategy(), st.integers(1, 12), st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_property_pending_queue_never_exceeds_bound(raw, max_pending, slots):
    ctl = AdmissionController(ServingConfig(max_pending=max_pending))
    for job in make_jobs(raw):
        ctl.offer(job, job.arrival_s, slots)
        assert ctl.pending_count <= max_pending


@given(jobs_strategy(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_property_latency_never_shed_before_batch(raw, max_pending):
    """Shed victims are always batch-class; a full queue rejects batch
    arrivals rather than evicting a pending latency job."""
    ctl = AdmissionController(ServingConfig(max_pending=max_pending,
                                            latency_deadline_s=1e9))
    for job in make_jobs(raw):
        decision = ctl.offer(job, job.arrival_s, slots=4)
        if decision.shed is not None:
            assert decision.shed.slo_class == SLO_BATCH
            assert decision.job.slo_class == SLO_LATENCY
        if decision.outcome == OUTCOME_REJECTED and decision.reason == "capacity":
            # Only when no pending batch job is left to evict (or the
            # arrival itself is batch) does capacity reject.
            if decision.job.slo_class == SLO_LATENCY:
                assert all(p.slo_class == SLO_LATENCY
                           for p in ctl._pending)


@given(jobs_strategy(max_jobs=10), st.integers(8, 32))
@settings(max_examples=60, deadline=None)
def test_property_no_rejections_under_capacity(raw, slots):
    """Few jobs, huge deadlines, big queue: everything is admitted."""
    ctl = AdmissionController(ServingConfig(max_pending=64,
                                            initial_guess_s=1.0))
    for job in make_jobs(raw):
        roomy = SLOJob(index=job.index, name=job.name, slo_class=job.slo_class,
                       arrival_s=job.arrival_s,
                       deadline_s=(job.arrival_s + 1e6 if job.is_latency
                                   else float("inf")))
        assert ctl.offer(roomy, roomy.arrival_s, slots).outcome == OUTCOME_ADMITTED


@given(jobs_strategy(max_jobs=12), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_equal_time_decisions_are_permutation_invariant(raw, rng):
    """offer_batch canonicalizes equal-time arrivals: the multiset of
    (index -> outcome) decisions is independent of submission order."""
    jobs = [SLOJob(index=i, name=f"t{i % 3}", slo_class=slo_class,
                   arrival_s=100.0,
                   deadline_s=100.0 + dl if slo_class == SLO_LATENCY
                   else float("inf"))
            for i, (slo_class, _, dl) in enumerate(raw)]
    shuffled = list(jobs)
    rng.shuffle(shuffled)

    def decide(batch):
        ctl = AdmissionController(ServingConfig(max_pending=4))
        return {d.job.index: d.outcome
                for d in ctl.offer_batch(batch, 100.0, slots=4)}

    assert decide(jobs) == decide(shuffled)


# -- unit: estimator, dispatch order, ladder ------------------------------------

def test_signature_stats_ewma_and_guards():
    ctl = AdmissionController(ServingConfig(initial_guess_s=5.0))
    assert ctl.size_estimate_s("q") == 5.0
    ctl.job_finished(0, "q", 10.0)
    assert ctl.size_estimate_s("q") == 10.0    # first sample replaces guess
    ctl.job_finished(1, "q", 20.0)
    assert ctl.size_estimate_s("q") == pytest.approx(14.0)  # 0.4*20 + 0.6*10
    stats = ctl.sizes["q"]
    assert (stats.count, stats.mean_s) == (2, 15.0)
    with pytest.raises(ValueError):
        stats.observe(-1.0)
    assert (stats.count, stats.total_s) == (2, 30.0)  # rejected, not counted


def test_serving_config_rejects_nonpositive_initial_guess():
    with pytest.raises(ValueError, match="initial_guess_s"):
        ServingConfig(initial_guess_s=0)


def test_slo_job_rejects_unknown_class():
    with pytest.raises(ValueError, match="unknown SLO class"):
        SLOJob(index=0, name="x", slo_class="gold", arrival_s=0.0)


def test_dispatch_order_is_edf_then_batch_fifo():
    ctl = AdmissionController(ServingConfig(max_pending=16,
                                            latency_deadline_s=1e9))
    arrivals = [
        SLOJob(0, "a", SLO_BATCH, 0.0),
        SLOJob(1, "b", SLO_LATENCY, 0.0, deadline_s=500.0),
        SLOJob(2, "c", SLO_BATCH, 0.0),
        SLOJob(3, "d", SLO_LATENCY, 0.0, deadline_s=100.0),
    ]
    for job in arrivals:
        assert ctl.offer(job, 0.0, slots=99).admitted
    order = [ctl.next_dispatch(slots=99).index for _ in range(4)]
    assert order == [3, 1, 0, 2]       # EDF latency first, then batch FIFO


def test_degradation_ladder_levels():
    ctl = AdmissionController(ServingConfig(max_pending=4,
                                            latency_deadline_s=1e9))
    assert ctl.degradation_level() == 0
    for i in range(2):
        ctl.offer(SLOJob(i, "x", SLO_BATCH, 0.0), 0.0, slots=1)
    ctl.next_dispatch(slots=1)  # one running, one pending
    ctl.offer(SLOJob(2, "x", SLO_BATCH, 0.0), 0.0, slots=1)
    assert ctl.degradation_level() == 1      # 2/4 pending
    for i in (3, 4):
        ctl.offer(SLOJob(i, "x", SLO_BATCH, 0.0), 0.0, slots=1)
    assert ctl.pending_count == 4
    assert ctl.degradation_level() == 2      # saturated


# -- elastic cluster + autoscaler ------------------------------------------------

def test_cluster_add_node_is_fully_wired():
    cluster = build_trace_cluster(SPEC)
    nm = cluster.add_node()
    assert nm.node_id == "dn4"
    assert "dn4" in cluster.topology
    assert "dn4" in cluster.rm.nodes
    assert cluster.rm.node_managers["dn4"] is nm
    assert "dn4" in cluster.datanode_daemons
    # Schedulable: next heartbeat grants like any constructor-built node.
    cluster.env.run(until=5.0)
    assert cluster.rm.nodes["dn4"].last_heartbeat > 0.0


def test_drain_undrain_cycle():
    cluster = build_trace_cluster(SPEC)
    nm = cluster.node_managers[-1]
    nm.drain()
    assert nm.drained and not cluster.rm.nodes[nm.node_id].alive
    nm.drain()   # idempotent
    nm.undrain()
    assert not nm.drained and cluster.rm.nodes[nm.node_id].alive


def test_autoscaler_excludes_crashed_nodes_but_bills_them():
    cluster = build_trace_cluster(SPEC)
    conf = ServingConfig(autoscale=True, min_nodes=4, max_nodes=8,
                         slots_per_node=2)
    ctl = AdmissionController(conf)
    scaler = Autoscaler(cluster, conf, ctl)
    assert len(scaler.healthy_node_managers()) == 4
    cluster.fail_node("dn1")
    assert len(scaler.healthy_node_managers()) == 3
    assert scaler.billable_count() == 4          # crashed VM still rented
    cluster.node_managers[-1].drain()
    assert scaler.billable_count() == 3          # drained is free
    cluster.env.run(until=10.0)
    scaler.finish()
    assert scaler.node_seconds > 0.0


def test_autoscaler_scales_up_on_backlog_and_back_down_when_calm():
    cluster = build_trace_cluster(SPEC)
    conf = ServingConfig(autoscale=True, min_nodes=4, max_nodes=6,
                         slots_per_node=2, latency_deadline_s=1e9,
                         max_pending=64)
    ctl = AdmissionController(conf)
    scaler = Autoscaler(cluster, conf, ctl)
    # Saturate: running fills the slots, a deep pending backlog remains.
    for i in range(30):
        ctl.offer(SLOJob(i, "x", SLO_BATCH, 0.0), 0.0, slots=scaler.slots())
    while ctl.next_dispatch(scaler.slots()) is not None:
        pass
    cluster.env.run(until=30.0)
    assert scaler.scale_up_events > 0
    assert len(cluster.node_managers) > 4
    # Drain the system: backlog gone, calm rounds trigger scale-down.
    for index in list(ctl._running):
        ctl.job_aborted(index)
    while True:
        job = ctl.next_dispatch(scaler.slots())
        if job is None:
            break
        ctl.job_aborted(job.index)
    cluster.env.run(until=120.0)
    assert scaler.scale_down_events > 0
    assert any(nm.drained for nm in cluster.node_managers)


# -- replay integration ----------------------------------------------------------

def test_serving_replay_is_deterministic():
    a = serving_report()
    b = serving_report()
    assert (json.dumps(a.to_dict(), sort_keys=True)
            == json.dumps(b.to_dict(), sort_keys=True))


def test_serving_replay_with_churn_and_autoscale_is_deterministic():
    """Metamorphic: trace + fault plan + autoscaling replayed twice gives
    byte-identical reports (timers, retries, and scale events all seeded)."""
    conf = serving_conf(autoscale=True, min_nodes=4, max_nodes=8)
    plan = churn_plan(240.0)
    a = serving_report(conf=conf, fault_plan=plan)
    b = serving_report(conf=conf, fault_plan=plan)
    assert (json.dumps(a.to_dict(), sort_keys=True)
            == json.dumps(b.to_dict(), sort_keys=True))
    assert a.slo["autoscaler"]["scale_up_events"] > 0


def test_serving_accounting_invariants():
    report = serving_report(rate=30.0)
    slo = report.slo
    assert report.jobs_completed == report.jobs_submitted
    total = slo["latency_jobs"] + slo["batch_jobs"]
    assert total == report.jobs_submitted
    # Every job lands in exactly one terminal bucket.
    assert (slo["deadline_met"] + slo["deadline_missed"] + slo["batch_completed"]
            + slo["rejected"] + slo["shed"] + report.killed + report.failed
            == total)
    assert report.sojourn.count == (total - slo["rejected"] - slo["shed"]
                                    - report.killed - report.failed)
    assert slo["attainment"]["total"] == slo["deadline_met"] + slo["deadline_missed"]
    assert slo["node_hours"] > 0


def test_admission_beats_static_attainment_under_overload():
    static = serving_report(rate=30.0, duration=300.0,
                            conf=serving_conf(admission=False, degradation=False),
                            fault_plan=churn_plan(300.0))
    admitted = serving_report(rate=30.0, duration=300.0,
                              fault_plan=churn_plan(300.0))
    assert static.slo["rejected"] == 0
    assert (admitted.slo["attainment"]["fraction"]
            > static.slo["attainment"]["fraction"])


def test_replay_with_serving_retains_no_per_job_state():
    """The loadsweep RSS discipline survives the serving layer: waiter maps,
    RM tables, and HDFS all drain to empty."""
    trace = poisson_trace(MIX, 25.0, 240.0, seed=9)
    cluster = build_trace_cluster(SPEC, conf=serving_conf(
        autoscale=True, min_nodes=4, max_nodes=8))
    report = replay_load(cluster, trace, fault_plan=churn_plan(240.0))
    assert report.jobs_completed == len(trace) > 0
    assert cluster.rm.apps == {}
    assert cluster.namenode.list_files() == []


@pytest.mark.parametrize("admission", [True, False])
def test_aborted_jobs_free_their_slots(admission, monkeypatch):
    """Every container crashes half a second after launch, so every
    dispatched job fails and goes through ``ServingRuntime.job_aborted``:
    each abort must hand its slot back, nothing may stay pending, and the
    terminal outcomes must still add up to the jobs submitted."""
    from repro.serving.runtime import ServingRuntime

    runtimes, aborted = [], []
    init, abort = ServingRuntime.__init__, ServingRuntime.job_aborted

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    def record_abort(self, slo):
        aborted.append(slo.index)
        abort(self, slo)

    monkeypatch.setattr(ServingRuntime, "__init__", capture)
    monkeypatch.setattr(ServingRuntime, "job_aborted", record_abort)
    conf = HadoopConfig(serving=ServingConfig(admission=admission))
    report = run_load(a3_cluster(3), MIX, 15.0, 120.0, seed=7, conf=conf,
                      baselines={}, fault_plan=FaultPlan().flaky_containers(
                          0.0, 1.0, crash_after_s=0.5))
    (runtime,) = runtimes
    assert report.jobs_submitted == report.failed == len(aborted) == 32
    assert sorted(aborted) == list(range(32))
    assert runtime.pending_count == 0
    assert runtime.running_count == 0
    slo = report.slo
    assert (report.failed + report.killed + slo["rejected"] + slo["shed"]
            + slo["deadline_met"] + slo["deadline_missed"]
            + slo["batch_completed"]) == report.jobs_submitted


def test_per_job_outcomes_surface_in_report():
    report = serving_report(rate=30.0, keep_jobs=True)
    assert report.per_job, "keep_jobs should retain rows"
    outcomes = {row["outcome"] for row in report.per_job}
    assert outcomes <= {"deadline_met", "deadline_missed", "completed",
                        "rejected", "shed", "killed", "failed"}
    assert {"deadline_met", "rejected"} & outcomes
    assert all(row["slo_class"] in ("latency", "batch") for row in report.per_job)
    assert len(report.per_job) == report.jobs_completed


def test_serving_off_report_has_no_slo_section():
    report = run_load(SPEC, default_short_job_mix(), 10.0, 120.0,
                      conf=HadoopConfig(am_resource_fraction=0.3), seed=3)
    assert report.slo == {}
    assert "slo" not in report.to_dict()


# -- trace files with SLO tokens --------------------------------------------------

def test_parse_trace_file_slo_tokens():
    jobs = parse_trace_file(
        "0.0 scan\n1.0 scan batch\n2.0 sort latency:30\n3.0 agg latency\n",
        MIX)
    assert jobs[0].slo_class == SLO_LATENCY          # template default (mix)
    assert jobs[1].slo_class == SLO_BATCH            # per-line override
    assert jobs[2].slo_class == SLO_LATENCY and jobs[2].deadline_s == 30.0
    assert jobs[3].slo_class == SLO_LATENCY and jobs[3].deadline_s is None


def test_parse_trace_file_rejects_bad_slo_tokens():
    with pytest.raises(ValueError, match="expected SLO"):
        parse_trace_file("0.0 scan gold", MIX)
    with pytest.raises(ValueError, match="batch job"):
        parse_trace_file("0.0 scan batch:9", MIX)
    with pytest.raises(ValueError, match="positive"):
        parse_trace_file("0.0 scan latency:-5", MIX)


# -- fault plans ------------------------------------------------------------------

def test_named_plans_resolve_and_reject_unknown():
    plan = named_plan("churn", 300.0)
    assert len(plan) > 2
    assert len(named_plan("crash", 100.0)) == 2
    assert len(named_plan("gray", 100.0)) == 2
    with pytest.raises(ValueError, match="unknown fault plan"):
        named_plan("meteor", 100.0)


def test_replay_survives_fault_plan_without_serving():
    """Satellite regression: chaos composes with plain heavy traffic —
    AM-terminal failures count as failed jobs, never crash the replay."""
    plan = (FaultPlan(seed=3).crash(20.0).crash(35.0, node="@random")
            .restart(60.0).restart(70.0))
    report = run_load(SPEC, default_short_job_mix(), 15.0, 180.0,
                      conf=HadoopConfig(am_resource_fraction=0.3), seed=7,
                      fault_plan=plan)
    assert report.jobs_completed == report.jobs_submitted
    assert report.sojourn.count == (report.jobs_completed - report.killed
                                    - report.failed)


# -- CLI ---------------------------------------------------------------------------

def test_cli_trace_fault_plan_regression(capsys):
    """Regression: `repro trace` previously could not apply a fault plan."""
    rc = cli_main(["trace", "--rate", "10", "--minutes", "2", "--seed", "3",
                   "--mode", "stock", "--fault-plan", "crash", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs_completed"] == payload["jobs_submitted"] > 0


def test_cli_trace_slo_json_has_outcomes(capsys):
    rc = cli_main(["trace", "--rate", "20", "--minutes", "3", "--seed", "3",
                   "--mode", "stock", "--slo", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "slo" in payload
    assert {"attainment", "admitted", "rejected", "deadline_met",
            "deadline_missed"} <= set(payload["slo"])
    jobs = payload["jobs"]
    assert len(jobs) == payload["jobs_completed"]
    assert all("outcome" in j and "slo_class" in j for j in jobs)


def test_cli_trace_slo_autoscale_report(capsys):
    rc = cli_main(["trace", "--rate", "20", "--minutes", "3", "--seed", "3",
                   "--mode", "stock", "--slo", "--autoscale", "4", "8",
                   "--fault-plan", "churn", "--report"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slo" in out and "autoscaler" in out


def test_cli_trace_rejects_bad_serving_flags():
    with pytest.raises(SystemExit):
        cli_main(["trace", "--rate", "5", "--minutes", "1",
                  "--autoscale", "2", "4"])          # --autoscale sans --slo
    with pytest.raises(SystemExit):
        cli_main(["trace", "--rate", "5", "--minutes", "1",
                  "--fault-plan", "meteor"])


# -- Figure S1 snapshot gate -------------------------------------------------------

@pytest.fixture(scope="module")
def figure_s1():
    from repro.experiments.slosweep import figureS1_slo_sweep

    return figureS1_slo_sweep(jobs=4)


def test_figure_s1_matches_snapshot(figure_s1):
    with open(SNAPSHOT) as f:
        expected = json.load(f)[figure_s1.figure_id]
    assert set(figure_s1.series) == set(expected), "series set changed"
    for name, series in figure_s1.series.items():
        exp = expected[name]
        assert series.x == exp["x"], f"{name}: x-axis changed"
        for got, want in zip(series.y, exp["y"]):
            assert got == pytest.approx(want, abs=1e-5), (
                f"Figure S1/{name}: drifted ({got} != {want}); regenerate "
                f"tests/snapshots/slosweep.json if intentional")


def test_figure_s1_headline_claims_hold(figure_s1):
    """Headline acceptance: adm+scale >= 90% attainment, static < 50%,
    autoscaling cheaper than peak provisioning."""
    top = figure_s1.series["static attainment"].x[-1]
    assert figure_s1.series["adm+scale attainment"].at(top) >= 90.0
    assert figure_s1.series["static attainment"].at(top) < 50.0
    assert (figure_s1.series["adm+scale node-hours"].at(top)
            < figure_s1.series["peak-static node-hours"].at(top))
    for claim in figure_s1.claims:
        assert claim.holds, claim.description


def test_slo_point_task_is_picklable_and_runs():
    from repro.experiments.slosweep import SLOPointTask

    task = SLOPointTask("admission", 15.0, duration_s=90.0)
    clone = pickle.loads(pickle.dumps(task))
    report = clone.run()
    assert report.jobs_completed == report.jobs_submitted > 0
    assert report.slo["attainment"]["total"] >= 0


def test_control_loop_acts_on_its_instants_settled_state():
    """Regression: the autoscaler tick and the dispatch watchdog ran as
    ordinary events on the 5 s control grid, where churn restarts land too
    (45 s + 35 s down). Whether a pump saw the restarted node's slots then
    depended on queue order: two admitted jobs were dispatched at 80.0 s
    or at the next arrival, 80.55 s, depending on the tie-break. The loop
    now runs after every other event of its instant, so no permutation of
    same-instant events moves an observable."""
    from repro.analysis.sanitize import _run_serving_scenario, permuted_ties

    def observables():
        return _run_serving_scenario(telemetry=True, observables_only=True)[1:]

    reference = observables()
    for seed in (1, 4):
        with permuted_ties(seed):
            assert observables() == reference, f"tie seed {seed}"
