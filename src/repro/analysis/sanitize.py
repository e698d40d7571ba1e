"""Dynamic determinism sanitizer.

Static rules catch *patterns* of hash-order dependence; this module
catches the *effect*. It runs small but representative scenarios — a
wordcount job on a multi-rack cluster with the shared fabric active, a
serving-mode churn replay, and a 1,000-node heartbeat-wheel run —
twice, in separate interpreter processes launched with different
``PYTHONHASHSEED`` values, and compares digests of

* the exact sequence of processed events (class name + timestamp), and
* the headline job metrics (makespan, per-task times, bytes moved).

If any ``set``/``dict``-iteration order anywhere in the simulator leaks
into scheduling decisions, the two runs diverge and the digests differ.
A third in-process run with the same seed guards against cross-run
state (MR105 dynamic check): run #1 and run #3 share a process, so any
module-level counter or cache shifts the repeated digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from heapq import heappush
from typing import Callable, Iterator, Optional


def scenario_digest() -> dict[str, str]:
    """Run the reference scenarios twice in-process; return all digests.

    ``event_digest`` hashes the (class-name, time) sequence of every
    event the kernel processed; ``metrics_digest`` hashes the scenario's
    headline numbers. ``repeat_digest`` is the event digest of a second
    run in the same process — it must equal ``event_digest`` or some
    module-level state survived the first run. The ``serving_*`` keys
    repeat the exercise on the serving-mode scenario (admission +
    autoscaling replay under node churn), whose timer wheel — retry
    backoffs, provision delays, drain decisions — is a separate surface
    for hash-order leaks. The ``scale_*`` keys digest a 1,000-node
    heartbeat-wheel scenario (cohort ticks under a phase quantum, churn
    suspend/resume, O(1) totals) — the large-cluster machinery has its
    own dict/set surfaces that the 4-node scenarios never touch.
    """
    first = _run_scenario()
    second = _run_scenario()
    serving_first = _run_serving_scenario()
    serving_second = _run_serving_scenario()
    scale_first = _run_scale_scenario()
    scale_second = _run_scale_scenario()
    telemetry_first = _run_serving_scenario(telemetry=True)
    telemetry_second = _run_serving_scenario(telemetry=True)
    tuner_first = _run_tuner_scenario()
    tuner_second = _run_tuner_scenario()
    return {
        "event_digest": first[0],
        "metrics_digest": first[1],
        "repeat_digest": second[0],
        "repeat_metrics_digest": second[1],
        "serving_event_digest": serving_first[0],
        "serving_metrics_digest": serving_first[1],
        "serving_repeat_digest": serving_second[0],
        "serving_repeat_metrics_digest": serving_second[1],
        "scale_event_digest": scale_first[0],
        "scale_metrics_digest": scale_first[1],
        "scale_repeat_digest": scale_second[0],
        "scale_repeat_metrics_digest": scale_second[1],
        # The serving scenario again, telemetry on: the event digest must
        # equal the telemetry-off one (the scraper piggybacks on event pops
        # and adds zero events), and the OpenMetrics export must be
        # byte-stable across hash seeds and repeats.
        "telemetry_event_digest": telemetry_first[0],
        "telemetry_metrics_digest": telemetry_first[1],
        "telemetry_repeat_digest": telemetry_second[0],
        "telemetry_repeat_metrics_digest": telemetry_second[1],
        "telemetry_openmetrics_digest": telemetry_first[2],
        "telemetry_repeat_openmetrics_digest": telemetry_second[2],
        # Auto-mode learning: two consecutive replays sharing one history
        # store, digested end to end (events + decisions + store bytes).
        # The learned mode choices and the persisted store must be
        # byte-stable across hash seeds and in-process repeats.
        "tuner_event_digest": tuner_first[0],
        "tuner_metrics_digest": tuner_first[1],
        "tuner_repeat_digest": tuner_second[0],
        "tuner_repeat_metrics_digest": tuner_second[1],
    }


def _run_scenario() -> tuple[str, str]:
    from repro.config import a3_cluster
    from repro.core.submit import build_stock_cluster, run_stock_job
    from repro.experiments.figures import wordcount_input

    cluster = build_stock_cluster(a3_cluster(4), seed=7)
    env = cluster.env

    # Every processed kernel event, in dispatch order. Any hash-order
    # dependence in scheduling/placement reorders this sequence.
    event_h = hashlib.sha256()

    def record(when: float, event: object) -> None:
        event_h.update(f"{type(event).__name__}@{when!r};".encode())

    env.tracers.append(record)

    spec = wordcount_input(4, 10.0)(cluster)
    # Kill a non-gateway node mid-flight so the fabric/HDFS failure paths
    # (flow teardown order, re-replication target choice) are on the
    # digested path too, then run the job to completion.
    timer = env.timeout(2.0)
    timer.callbacks.append(lambda _ev: cluster.fail_node("dn3"))
    result = run_stock_job(cluster, spec, "distributed")

    metrics = {
        "elapsed": round(result.elapsed, 9),
        "am_overhead": round(result.am_overhead, 9),
        "tasks": sorted(
            (t.task_id, t.node_id, round(t.start_time, 9),
             round(t.finish_time, 9))
            for t in (*result.maps, *result.reduces)),
        "waves": result.num_waves,
    }
    metrics_h = hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode())
    return event_h.hexdigest(), metrics_h.hexdigest()


def _run_serving_scenario(telemetry: bool = False,
                          observables_only: bool = False) -> tuple[str, ...]:
    """Serving-mode digest: churn + admission + autoscaling replay.

    Small (≈30 arrivals) but crosses every serving code path that owns a
    timer or a queue: rejection retry backoff, shed batch jobs, degraded
    dispatch, node crash/rejoin, provisioning, and idle drains.

    With ``telemetry=True`` the same replay runs with the telemetry
    scraper installed and a third element is returned: the sha256 of the
    OpenMetrics export. The event digest lets the sanitizer prove scrape
    transparency (it must equal the telemetry-off digest).

    ``observables_only=True`` (the race sanitizer's view) drops the
    ``kernel_*`` self-metrics family from the export before hashing: the
    replay stops when its done-event fires, so *how many* same-instant
    events the kernel dispatched before stopping is a property of the tie
    order itself — the race sanitizer permutes exactly that, and only
    simulation observables are required to hold. The hash-seed sanitizer
    keeps the full export (it must be byte-stable across hash seeds).
    """
    from repro.config import (HadoopConfig, ServingConfig, TelemetryConfig,
                              a3_cluster)
    from repro.faults.plan import churn_plan
    from repro.trace import (build_trace_cluster, default_serving_mix,
                             poisson_trace, replay_load)

    serving = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                            initial_guess_s=12.0, autoscale=True,
                            min_nodes=3, max_nodes=6)
    conf = HadoopConfig(am_resource_fraction=0.3, serving=serving,
                        telemetry=TelemetryConfig() if telemetry else None)
    cluster = build_trace_cluster(a3_cluster(3), conf=conf, seed=7)

    event_h = hashlib.sha256()

    def record(when: float, event: object) -> None:
        event_h.update(f"{type(event).__name__}@{when!r};".encode())

    cluster.env.tracers.append(record)

    trace = poisson_trace(default_serving_mix(), 20.0, 90.0, seed=13)
    report = replay_load(cluster, trace, fault_plan=churn_plan(90.0))
    metrics_h = hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode())
    if telemetry:
        export = cluster.env.telemetry.openmetrics()
        if observables_only:
            export = "\n".join(line for line in export.splitlines()
                               if not line.startswith("kernel_"))
        openmetrics_h = hashlib.sha256(export.encode())
        return (event_h.hexdigest(), metrics_h.hexdigest(),
                openmetrics_h.hexdigest())
    return event_h.hexdigest(), metrics_h.hexdigest()


def _run_scale_scenario() -> tuple[str, str]:
    """1k-node digest: the wheel's cohort ticks and O(changed) scheduling.

    A thousand phase-staggered nodes beating under a 0.25 s quantum share
    tick events, so this crosses the wheel's beat heap, the ``_armed``
    instant set, the incremental RM totals, and the suspend/resume paths
    (one node crashes and rejoins mid-run) — none of which the 4-node
    scenarios reach at aggregation scale.
    """
    from repro.cluster import ResourceVector
    from repro.config import HadoopConfig, a3_cluster
    from repro.simcluster import SimCluster
    from repro.yarn import Application

    conf = HadoopConfig(nm_heartbeat_quantum_s=0.25)
    cluster = SimCluster(a3_cluster(1000), conf=conf)
    env = cluster.env
    rm = cluster.rm

    event_h = hashlib.sha256()

    def record(when: float, event: object) -> None:
        event_h.update(f"{type(event).__name__}@{when!r};".encode())

    env.tracers.append(record)

    finished: list[tuple[str, float]] = []

    def uber(ctx):
        yield ctx.env.timeout(2.0)
        finished.append((ctx.app.app_id, round(ctx.env.now, 9)))
        return None

    def submitter(env):
        for _ in range(10):
            rm.submit_application(Application(
                rm.next_app_id(), "scale-uber", ResourceVector(1024, 1), uber))
            yield env.timeout(0.4)

    def churn(env):
        yield env.timeout(1.3)
        cluster.fail_node("dn37")
        yield env.timeout(2.0)
        cluster.restart_node("dn37")

    env.process(submitter(env))
    env.process(churn(env))
    env.run(until=10.0)

    metrics = {
        "finished": sorted(finished),
        "heartbeats": rm.heartbeat_wheel.heartbeats_delivered,
        "ticks": rm.heartbeat_wheel.ticks,
        "events": env.events_processed,
        "used": [rm.total_used().memory_mb, rm.total_used().vcores],
    }
    metrics_h = hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode())
    return event_h.hexdigest(), metrics_h.hexdigest()


def _run_tuner_scenario() -> tuple[str, str]:
    """Auto-mode digest: two replays learning through one history store.

    Replays the same short-job trace twice on fresh clusters that share a
    single durable :class:`~repro.tuner.RunHistoryStore` in a fresh
    temporary directory (each scenario invocation gets its own store, so
    the in-process repeat sees the same cold start). The first replay
    explores, the second exploits what the first recorded — the digest
    covers every kernel event of both replays, both reports (including
    the per-mode decision counts), and the canonical bytes of the
    persisted store. Any hash-order dependence in the picker's argmin,
    the store's ring eviction, or the warm-start paths diverges here.
    """
    import tempfile

    from repro.config import HadoopConfig, TunerConfig, a3_cluster
    from repro.trace import (STRATEGY_AUTO, build_trace_cluster,
                             default_short_job_mix, poisson_trace,
                             replay_load)
    from repro.tuner import RunHistoryStore

    event_h = hashlib.sha256()

    def record(when: float, event: object) -> None:
        event_h.update(f"{type(event).__name__}@{when!r};".encode())

    trace = poisson_trace(default_short_job_mix(), 6.0, 120.0, seed=19)
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        conf = HadoopConfig(tuner=TunerConfig(
            history_db=os.path.join(tmp, "history.db")))
        for _ in range(2):
            cluster = build_trace_cluster(a3_cluster(3),
                                          strategy=STRATEGY_AUTO,
                                          conf=conf, seed=7)
            cluster.env.tracers.append(record)
            reports.append(replay_load(cluster, trace, STRATEGY_AUTO))
        with RunHistoryStore(conf.tuner.history_db) as store:
            store_digest = store.digest()
    metrics = {"replays": [r.to_dict() for r in reports],
               "store": store_digest}
    metrics_h = hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode())
    return event_h.hexdigest(), metrics_h.hexdigest()


def _child_digest(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root + os.pathsep + existing
                         if existing else src_root)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--digest"],
        capture_output=True, text=True, env=env, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(
            f"digest child (PYTHONHASHSEED={hash_seed}) failed:\n"
            f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sanitizer(seeds: tuple[int, int] = (1, 2),
                  echo: Optional[Callable[[str], None]] = None) -> int:
    """Compare scenario digests across two PYTHONHASHSEED values.

    Returns 0 when all digests agree (deterministic), 1 otherwise.
    """
    say = echo or (lambda _msg: None)
    say(f"determinism sanitizer: PYTHONHASHSEED={seeds[0]} vs {seeds[1]}")
    a = _child_digest(seeds[0])
    b = _child_digest(seeds[1])

    failures = []
    scenarios = (("", ""), ("serving ", "serving_"), ("scale ", "scale_"),
                 ("telemetry ", "telemetry_"), ("tuner ", "tuner_"))
    for run, digest in (("A", a), ("B", b)):
        for scenario, prefix in scenarios:
            if (digest[f"{prefix}event_digest"]
                    != digest[f"{prefix}repeat_digest"]):
                failures.append(
                    f"run {run}: repeated in-process {scenario}run diverged "
                    f"(cross-run state leak — see rule MR105)")
            if (digest[f"{prefix}metrics_digest"]
                    != digest[f"{prefix}repeat_metrics_digest"]):
                failures.append(
                    f"run {run}: repeated {scenario}run changed metrics")
        # Scrape transparency: installing telemetry must not add, remove,
        # or reorder a single kernel event relative to the identical
        # telemetry-off serving replay.
        if digest["telemetry_event_digest"] != digest["serving_event_digest"]:
            failures.append(
                f"run {run}: telemetry perturbed the serving event order "
                f"(the scraper must not schedule events)")
        if (digest["telemetry_openmetrics_digest"]
                != digest["telemetry_repeat_openmetrics_digest"]):
            failures.append(
                f"run {run}: repeated OpenMetrics export diverged")
    for scenario, prefix in scenarios:
        if a[f"{prefix}event_digest"] != b[f"{prefix}event_digest"]:
            failures.append(
                f"{scenario}event order depends on PYTHONHASHSEED "
                f"(hash-order leak — see rule MR102)")
        if a[f"{prefix}metrics_digest"] != b[f"{prefix}metrics_digest"]:
            failures.append(f"{scenario}metrics depend on PYTHONHASHSEED")
    if a["telemetry_openmetrics_digest"] != b["telemetry_openmetrics_digest"]:
        failures.append("OpenMetrics export depends on PYTHONHASHSEED")

    if failures:
        for line in failures:
            say(f"FAIL {line}")
        say(f"  A: {a}")
        say(f"  B: {b}")
        return 1
    say(f"OK event digest   {a['event_digest'][:16]}… identical across "
        f"seeds and repeats")
    say(f"OK metrics digest {a['metrics_digest'][:16]}… identical across "
        f"seeds and repeats")
    say(f"OK serving digest {a['serving_event_digest'][:16]}… identical "
        f"across seeds and repeats (churn + autoscale replay)")
    say(f"OK scale digest   {a['scale_event_digest'][:16]}… identical "
        f"across seeds and repeats (1k-node heartbeat wheel)")
    say(f"OK telemetry      event digest equals the telemetry-off replay "
        f"(scrape transparency); OpenMetrics sha "
        f"{a['telemetry_openmetrics_digest'][:16]}… stable across seeds")
    say(f"OK tuner digest   {a['tuner_event_digest'][:16]}… identical "
        f"across seeds and repeats (learning replays + history store)")
    return 0


# -- same-timestamp race sanitizer -----------------------------------------
#
# The kernel breaks (time, priority) ties by insertion order, which makes
# runs deterministic — but determinism is not the same as *robustness*: if
# a scheduling decision depends on which of two same-instant events
# happens to have been scheduled first, any innocent refactor that swaps
# two ``schedule()`` calls silently changes every figure. The race
# sanitizer makes that hazard a hard failure: it patches the kernel so
# the tie-break among events sharing a (timestamp, priority) class is a
# seeded random permutation instead of insertion order, runs the
# reference scenarios under two different permutations, and requires all
# observable metrics (job timings, placements, serving report, exported
# OpenMetrics) to be byte-identical to the unpermuted run. Causality is
# preserved: an event scheduled *while* its sibling is being dispatched
# was never in the queue at the same time, so only genuinely concurrent
# events are permuted.


@contextmanager
def permuted_ties(seed: int) -> Iterator[None]:
    """Patch the kernel so same-(time, priority) dispatch order is a
    seeded permutation rather than insertion order.

    The tie-break third element of each heap entry becomes
    ``(random_bits, insertion_counter)`` — still unique, so the event is
    never compared, but heap order now follows the random bits first.
    Every push goes through :meth:`Environment.schedule` or
    :meth:`Environment.schedule_at` (``Timeout`` included), so patching
    those two covers the whole kernel. Patched at class level so
    environments constructed inside the context are covered from their
    very first event (mixing int and tuple tie-breaks in one heap would
    not compare).
    """
    from repro.simulation.core import Environment
    from repro.simulation.events import NORMAL, Event

    orig_schedule = Environment.schedule
    orig_schedule_at = Environment.schedule_at

    def _tie(env: "Environment") -> tuple[int, int]:
        state = env.__dict__.get("_race_tie_state")
        if state is None:
            state = (random.Random(seed), itertools.count())
            env.__dict__["_race_tie_state"] = state
        rng, counter = state
        return (rng.getrandbits(32), next(counter))

    def schedule(self: "Environment", event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        heappush(self._queue, (self._now + delay, priority, _tie(self), event))

    def schedule_at(self: "Environment", event: Event, at: float,
                    priority: int = NORMAL) -> None:
        if at < self._now:
            raise ValueError(
                f"schedule_at({at}) lies in the past (now={self._now})")
        heappush(self._queue, (at, priority, _tie(self), event))

    Environment.schedule = schedule  # type: ignore[method-assign]
    Environment.schedule_at = schedule_at  # type: ignore[method-assign]
    try:
        yield
    finally:
        Environment.schedule = orig_schedule  # type: ignore[method-assign]
        Environment.schedule_at = orig_schedule_at  # type: ignore[method-assign]


def run_race_sanitizer(seeds: tuple[int, int] = (1, 2),
                       echo: Optional[Callable[[str], None]] = None) -> int:
    """Permute same-timestamp dispatch order; metrics must not move.

    Returns 0 when every scenario's observable metrics are identical
    across the unpermuted run and both permutation seeds, 1 otherwise.
    """
    say = echo or (lambda _msg: None)
    say(f"race sanitizer: permuting (time, priority) ties with seeds "
        f"{seeds[0]} and {seeds[1]}")

    def _metrics_only(run: Callable[[], tuple[str, ...]]) -> tuple[str, ...]:
        # Drop the event-order digest: the permutation reorders dispatch
        # within a tie class *by design*; only observables must hold.
        return run()[1:]

    scenarios: list[tuple[str, Callable[[], tuple[str, ...]]]] = [
        ("wordcount+node-fail", lambda: _metrics_only(_run_scenario)),
        ("serving+churn", lambda: _metrics_only(_run_serving_scenario)),
        ("telemetry", lambda: _metrics_only(
            lambda: _run_serving_scenario(telemetry=True,
                                          observables_only=True))),
        ("1k-scale", lambda: _metrics_only(_run_scale_scenario)),
    ]

    failures: list[str] = []
    for name, run in scenarios:
        reference = run()
        digests = {}
        for seed in seeds:
            with permuted_ties(seed):
                digests[seed] = run()
        for seed, got in digests.items():
            if got != reference:
                failures.append(
                    f"{name}: metrics moved under tie permutation "
                    f"(seed {seed}) — a scheduling decision depends on "
                    f"same-timestamp dispatch order")
        if all(got == reference for got in digests.values()):
            say(f"OK {name:<20} metrics {reference[0][:16]}… invariant "
                f"under tie permutation")

    if failures:
        for line in failures:
            say(f"FAIL {line}")
        return 1
    return 0

