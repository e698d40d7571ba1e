"""Performance benchmark harness: ``python -m repro bench``.

Times the three layers the short-job thesis depends on and writes the
numbers to ``BENCH_perf.json`` so every PR leaves a perf trajectory:

* **figure sweep** — the full paper-evaluation sweep, serial vs parallel
  (:mod:`repro.experiments.parallel`), with a byte-identity check between
  the two rendered outputs;
* **kernel** — discrete-event engine throughput (events/second);
* **fabric** — max-min fabric throughput (flows/second) plus two scaling
  probes on a fixed-width rolling window: per-flow cost at N and 4N total
  flows (``scaling_ratio``; near 1.0 means a flow change costs the same no
  matter how many flows passed through the fabric before it — no cost
  creep from timer churn or stale bookkeeping), and per-flow cost at N
  flows with ~2 000 idle links beside the two busy ones, the shape of a
  1 000-node ``ClusterNetwork`` (``link_scaling_ratio``, wide over narrow;
  near 1.0 means a flow change does not pay for idle links).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .cluster.fabric import SharedFabric
from .simulation import Environment

#: Figures exercised by ``--quick`` (CI smoke); the default is every figure.
QUICK_FIGURES = ("table2", "figure7", "figure9", "figure12")


# -- kernel micro-benchmark ----------------------------------------------------

def bench_kernel(num_events: int = 200_000, num_procs: int = 100) -> dict:
    """Raw event-loop throughput: many concurrent timeout-driven processes.

    Also samples the kernel heap every few thousand pops to report its
    peak ``pending`` size — the number the telemetry
    ``kernel_queue_pending`` gauge exports from a real replay. Both are
    exact: each process adds a start and an end event to
    ``events_processed``, and every sample sees the other
    ``num_procs - 1`` tickers pending.
    """
    env = Environment()

    def ticker(env: Environment, n: int):
        for _ in range(n):
            yield env.timeout(1.0)

    per_proc = max(1, num_events // num_procs)
    for _ in range(num_procs):
        env.process(ticker(env, per_proc))

    peak_queue = {"pending": 0}

    def queue_probe(t, ev) -> None:
        if env.events_processed % 2000:
            return
        pending = len(env._queue)
        if pending > peak_queue["pending"]:
            peak_queue["pending"] = pending

    env.tracers.append(queue_probe)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    events = per_proc * num_procs
    return {
        "events": events,
        "seconds": round(wall, 6),
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "events_processed": env.events_processed,
        "peak_queue": peak_queue,
    }


# -- fabric micro-benchmark ----------------------------------------------------

@dataclass
class _RollingRun:
    flows: int
    seconds: float
    timers_armed: int
    peak_heap: int
    live_timers_end: int


#: Idle links of the wide fabric probe: the NIC links of 1 000 nodes.
WIDE_IDLE_LINKS = 2000


def _rolling_window(num_flows: int, window: int = 16,
                    idle_links: int = 0) -> _RollingRun:
    """Push ``num_flows`` flows through a fixed-width window of concurrency.

    Each completion submits the next flow, so the *active* set stays at
    ``window`` while the *historical* total grows — exactly the regime where
    per-change cost creep (stale timers, rebuilt indexes) would show up as a
    super-linear wall clock. ``idle_links`` links that no flow uses are
    added first, where per-link cost in a change would show.
    """
    env = Environment()
    fabric = SharedFabric(env)
    for i in range(idle_links):
        fabric.add_link(f"idle{i}", 100.0)
    fabric.add_link("disk", 100.0)
    fabric.add_link("nic", 80.0)
    submitted = 0
    peak_heap = 0

    def submit_next() -> None:
        nonlocal submitted
        if submitted >= num_flows:
            return
        i = submitted
        submitted += 1
        path = ("disk",) if i % 3 else ("disk", "nic")
        flow = fabric.submit(path, 5.0 + (i % 7), cap=1.0 + (i % 3),
                             label=f"bench-{i}")
        flow.done.callbacks.append(lambda ev: submit_next())

    def heap_watch(t, ev) -> None:
        nonlocal peak_heap
        if len(env._queue) > peak_heap:
            peak_heap = len(env._queue)

    env.tracers.append(heap_watch)
    start = time.perf_counter()
    for _ in range(window):
        submit_next()
    env.run()
    wall = time.perf_counter() - start
    return _RollingRun(num_flows, wall, fabric.timers_armed, peak_heap,
                       1 if fabric.has_live_timer else 0)


def bench_fabric(num_flows: int = 4000, window: int = 16) -> dict:
    """Fabric throughput plus the historical-flows and idle-links probes."""
    small = _rolling_window(num_flows // 4, window)
    large = _rolling_window(num_flows, window)
    wide = _rolling_window(num_flows // 4, window, idle_links=WIDE_IDLE_LINKS)
    per_flow_small = small.seconds / small.flows
    per_flow_large = large.seconds / large.flows
    per_flow_wide = wide.seconds / wide.flows
    return {
        "flows": large.flows,
        "window": window,
        "seconds": round(large.seconds, 6),
        "flows_per_sec": round(large.flows / large.seconds) if large.seconds else None,
        "per_flow_us_small": round(per_flow_small * 1e6, 3),
        "per_flow_us_large": round(per_flow_large * 1e6, 3),
        #: ~1.0 = per-change cost independent of total historical flows.
        "scaling_ratio": round(per_flow_large / per_flow_small, 3),
        "per_flow_us_wide": round(per_flow_wide * 1e6, 3),
        #: ~1.0 = per-change cost independent of idle links (same N flows).
        "link_scaling_ratio": round(per_flow_wide / per_flow_small, 3),
        "timers_armed_per_flow": round(large.timers_armed / large.flows, 3),
        "peak_event_heap": large.peak_heap,
        "live_timers_end": large.live_timers_end,
    }


# -- cluster-scale benchmark ---------------------------------------------------

def bench_scale(num_nodes: int, sim_duration_s: float = 60.0,
                job_interval_s: float = 0.5, job_service_s: float = 5.0,
                quantum_s: float = 0.0, telemetry: bool = False) -> dict:
    """Heartbeat-driven replay at cluster scale (1k-10k NodeManagers).

    ``num_nodes`` NMs beat on the RM's shared heartbeat wheel for
    ``sim_duration_s`` simulated seconds while a steady stream of short
    uberized jobs (AM-only containers, MRapid's short-job regime) is
    submitted, allocated through the heartbeat-driven FIFO path, runs and
    finishes. Reports:

    * ``events_per_sec`` — kernel events popped per wall second;
    * ``logical_events_per_sec`` — kernel events *plus* heartbeats
      delivered: with a phase quantum whole cohorts of beats ride one
      kernel event, so kernel events alone undercount the work done;
    * ``jobs_per_sec`` — end-to-end job completions per wall second;
    * ``max_rss_mb`` — process peak RSS (bounded-memory check at 10k).
    """
    import resource as _resource

    from .cluster.resources import ResourceVector
    from .config import HadoopConfig, TelemetryConfig, a3_cluster
    from .simcluster import SimCluster
    from .yarn.records import Application

    telemetry_conf = TelemetryConfig(scrape_interval_s=1.0) if telemetry else None
    conf = HadoopConfig(nm_heartbeat_quantum_s=quantum_s,
                        telemetry=telemetry_conf)
    build_start = time.perf_counter()
    cluster = SimCluster(a3_cluster(num_nodes), conf=conf)
    build_s = time.perf_counter() - build_start
    env = cluster.env
    rm = cluster.rm
    tel = None
    if telemetry_conf is not None:
        from .telemetry import install_telemetry

        tel = install_telemetry(cluster, telemetry_conf)
    rm.retain_finished_apps = False  # bounded RSS over thousands of jobs
    finished = 0
    submitted = 0

    def uber_runner(ctx):
        nonlocal finished
        yield ctx.env.timeout(job_service_s)
        finished += 1
        return None

    def submitter():
        nonlocal submitted
        while env.now < sim_duration_s:
            app = Application(rm.next_app_id(), "bench-uber",
                              ResourceVector(1024, 1), uber_runner)
            rm.submit_application(app)
            submitted += 1
            yield env.timeout(job_interval_s)

    env.process(submitter(), name="bench-submitter")
    start = time.perf_counter()
    env.run(until=sim_duration_s + 10 * job_service_s)
    wall = time.perf_counter() - start

    events = env.events_processed
    wheel = rm.heartbeat_wheel
    heartbeats = wheel.heartbeats_delivered if wheel is not None else 0
    ticks = wheel.ticks if wheel is not None else 0
    logical = events + heartbeats
    max_rss_kb = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    extra: dict = {}
    if tel is not None:
        tel.finish()
        extra["telemetry"] = {
            "scrapes": tel.scraper.scrapes_done,
            "samples_skipped": tel.scraper.samples_skipped,
            "series": len(tel.scraper.all_series()),
            "retained_samples": tel.scraper.retained_samples(),
            "ring_bytes": tel.scraper.ring_bytes_estimate(),
        }
    return {
        "nodes": num_nodes,
        "sim_duration_s": sim_duration_s,
        "quantum_s": quantum_s,
        "build_s": round(build_s, 3),
        "seconds": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "heartbeats": heartbeats,
        "heartbeat_ticks": ticks,
        "logical_events_per_sec": round(logical / wall) if wall > 0 else None,
        "jobs_submitted": submitted,
        "jobs_finished": finished,
        "jobs_per_sec": round(finished / wall, 1) if wall > 0 else None,
        "max_rss_mb": round(max_rss_kb / 1024.0, 1),
        **extra,
    }


# -- telemetry-overhead benchmark ----------------------------------------------

def bench_telemetry(num_nodes: int = 1000, sim_duration_s: float = 30.0,
                    repeat: int = 7) -> dict:
    """Measured telemetry overhead: the 1k-node replay, off vs on.

    Runs the same heartbeat-driven scale workload with telemetry disabled
    (the default everywhere) and telemetry enabled at a 1 s scrape cadence,
    and reports the logical-events/s regression. The acceptance bound is
    < 10% at 1k-node scale; the scraper piggybacks on event pops, so the
    cost is pure instrument reads, not extra events.

    Each arm runs ``repeat`` times interleaved (off, on, off, on, ...) with
    the cyclic GC quiesced around each timed pair, and takes the best rate —
    wall-clock noise on a shared machine is strictly one-sided (slowdowns),
    so best-of-N converges on the true cost where a single shot can swing
    tens of percent either way.
    """
    import gc

    off = on = None
    off_lps = on_lps = 0.0
    for _ in range(max(1, repeat)):
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            o = bench_scale(num_nodes, sim_duration_s=sim_duration_s)
            t = bench_scale(num_nodes, sim_duration_s=sim_duration_s,
                            telemetry=True)
        finally:
            if gc_was_enabled:
                gc.enable()
        if off is None or (o["logical_events_per_sec"] or 0) > off_lps:
            off, off_lps = o, o["logical_events_per_sec"] or 0
        if on is None or (t["logical_events_per_sec"] or 0) > on_lps:
            on, on_lps = t, t["logical_events_per_sec"] or 0
    overhead = (off_lps - on_lps) / off_lps if off_lps else None
    section = dict(on.get("telemetry", {}))
    section.update({
        "nodes": num_nodes,
        "sim_duration_s": sim_duration_s,
        "logical_events_per_sec_off": off_lps,
        "logical_events_per_sec_on": on_lps,
        "overhead_fraction": round(overhead, 4) if overhead is not None else None,
        "events_identical": off["events"] == on["events"],
        "ring_rss_mb": round(section.get("ring_bytes", 0) / (1024.0 * 1024.0), 3),
    })
    return section


# -- figure-sweep benchmark ----------------------------------------------------

def _render_sweep(names: Sequence[str], jobs: int) -> tuple[dict[str, str], float]:
    """Run the named figures with ``jobs`` workers; rendered tables + wall."""
    from .experiments.figures import ALL_FIGURES
    from .experiments.parallel import get_default_jobs, set_default_jobs

    previous = get_default_jobs()
    set_default_jobs(jobs)
    try:
        start = time.perf_counter()
        tables = {name: ALL_FIGURES[name]().render_table() for name in names}
        wall = time.perf_counter() - start
    finally:
        set_default_jobs(previous)
    return tables, wall


def bench_sweep(figures: Optional[Sequence[str]] = None,
                jobs: Optional[int] = None, repeat: int = 1) -> dict:
    """Serial vs parallel full figure sweep with a byte-identity check."""
    from .experiments.figures import ALL_FIGURES
    from .experiments.parallel import resolve_jobs

    names = list(figures) if figures is not None else list(ALL_FIGURES)
    jobs = resolve_jobs(jobs)
    serial_tables: dict[str, str] = {}
    serial_wall = float("inf")
    parallel_wall = float("inf")
    parallel_tables: dict[str, str] = {}
    for _ in range(max(1, repeat)):
        serial_tables, wall = _render_sweep(names, jobs=1)
        serial_wall = min(serial_wall, wall)
    for _ in range(max(1, repeat)):
        parallel_tables, wall = _render_sweep(names, jobs=jobs)
        parallel_wall = min(parallel_wall, wall)
    divergent = [n for n in names if serial_tables[n] != parallel_tables[n]]
    return {
        "figures": names,
        "jobs": jobs,
        "repeat": repeat,
        "serial_s": round(serial_wall, 4),
        "parallel_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 3) if parallel_wall else None,
        "identical": not divergent,
        "divergent_figures": divergent,
    }


# -- entry point ---------------------------------------------------------------

def run_bench(quick: bool = False, jobs: Optional[int] = None, repeat: int = 1,
              output: str = "BENCH_perf.json") -> dict:
    """Run every benchmark, write ``output``, and return the report."""
    figures = QUICK_FIGURES if quick else None
    kernel_events = 50_000 if quick else 200_000
    fabric_flows = 1000 if quick else 4000
    telemetry_duration = 10.0 if quick else 30.0
    if quick:
        # CI smoke: the 1k point alone, shortened — enough to regress the
        # heartbeat wheel and the O(1) totals without minutes of wall time.
        scale = {"nodes_1k": bench_scale(1000, sim_duration_s=20.0)}
    else:
        scale = {
            # 1k with quantum 0: every node keeps its exact legacy phase,
            # one wheel tick per beat — stresses the per-beat path.
            "nodes_1k": bench_scale(1000),
            # 10k with a 0.25 s phase quantum: beats aggregate into cohort
            # ticks — the configuration large-cluster studies would run.
            "nodes_10k": bench_scale(10_000, quantum_s=0.25,
                                     job_interval_s=0.25),
        }
    report = {
        "schema": "repro-bench/1",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "sweep": bench_sweep(figures, jobs=jobs, repeat=repeat),
        "kernel": bench_kernel(kernel_events),
        "fabric": bench_fabric(fabric_flows),
        "scale": scale,
        "telemetry": bench_telemetry(1000, sim_duration_s=telemetry_duration),
    }
    if output:
        with open(output, "w") as f:
            json.dump(report, f, indent=2, sort_keys=False)
            f.write("\n")
    return report


def format_report(report: dict) -> str:
    sweep = report["sweep"]
    kernel = report["kernel"]
    fabric = report["fabric"]
    lines = [
        f"bench ({'quick' if report['quick'] else 'full'}) on "
        f"{report['cpu_count']} cpu(s)",
        f"  sweep   : serial {sweep['serial_s']:.2f}s  parallel "
        f"{sweep['parallel_s']:.2f}s  (x{sweep['speedup']:.2f}, "
        f"{sweep['jobs']} jobs)  identical={sweep['identical']}",
        f"  kernel  : {kernel['events_per_sec']:,} events/s "
        f"({kernel['events']} events in {kernel['seconds']:.2f}s)",
        f"  fabric  : {fabric['flows_per_sec']:,} flows/s  "
        f"scaling_ratio={fabric['scaling_ratio']:.2f}  "
        f"link_scaling_ratio={fabric['link_scaling_ratio']:.2f}  "
        f"timers/flow={fabric['timers_armed_per_flow']:.2f}  "
        f"peak_heap={fabric['peak_event_heap']}  "
        f"live_timers_end={fabric['live_timers_end']}",
    ]
    for name, point in report.get("scale", {}).items():
        lines.append(
            f"  {name:8}: {point['logical_events_per_sec']:,} logical ev/s "
            f"({point['events_per_sec']:,} kernel ev/s)  "
            f"jobs/s={point['jobs_per_sec']}  "
            f"heartbeats={point['heartbeats']:,}  "
            f"rss={point['max_rss_mb']}MB")
    tel = report.get("telemetry")
    if tel:
        lines.append(
            f"  telemetry: overhead {tel['overhead_fraction']:.1%} at "
            f"{tel['nodes']} nodes ({tel['logical_events_per_sec_off']:,} -> "
            f"{tel['logical_events_per_sec_on']:,} logical ev/s)  "
            f"{tel['scrapes']} scrapes x {tel['series']} series  "
            f"rings={tel['ring_rss_mb']}MB  "
            f"events_identical={tel['events_identical']}")
    return "\n".join(lines)
