"""Host-time gates: bounds on wall-clock cost that no exact counter pins.

The tier-1 suite pins the exact work counts of the same probes (kernel
events and heap size, fabric timers, heartbeat beats and ticks, telemetry
scrapes). The tests here time those probes and assert a bound with wide
slack for shared runners. Each bound guards a cost that can grow while
every count stays the same. Run them from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_host_gates.py -q
"""

from __future__ import annotations

import gc
import time

from repro.config import TelemetryConfig
from tests.test_cluster_fabric import RollingWindow
from tests.test_node_lifecycle import UberStream
from tests.test_simulation_core import TickerLoad


def timed_run(probe) -> float:
    """Wall seconds of ``probe.run()``; its set-up is not timed."""
    start = time.perf_counter()
    probe.run()
    return time.perf_counter() - start


def per_flow_s(num_flows: int, idle_links: int = 0) -> float:
    return timed_run(RollingWindow(num_flows, idle_links=idle_links)) / num_flows


def logical_events_per_s(stream: UberStream) -> float:
    """Kernel events plus beats delivered, per wall second of the run.

    With a phase quantum whole cohorts of beats ride one kernel event, so
    kernel events alone undercount the work done.
    """
    wall = timed_run(stream)
    _, events, beats, _ = stream.counts
    return (events + beats) / wall


def test_kernel_throughput():
    load = TickerLoad()
    rate = load.events / timed_run(load)
    assert rate > 10_000, f"kernel at {rate:.0f} ev/s"


def test_fabric_cost_flat_in_historical_flows():
    # Per-change cost must not grow with total flows served: 2 000 flows
    # against 500 through the same window.
    ratio = per_flow_s(2000) / per_flow_s(500)
    assert ratio < 1.5, f"per-flow cost grows with flows served: {ratio:.2f}x"


def test_fabric_cost_flat_in_idle_links():
    # A flow change must not pay for idle links: the window beside 2 000
    # idle links (a 1 000-node network's shape) costs about what it costs
    # alone; a per-link scan measured 4.9x.
    ratio = per_flow_s(250, idle_links=2000) / per_flow_s(250)
    assert ratio <= 3, f"per-flow cost grows with idle links: {ratio:.2f}x"


def test_thousand_node_stream_throughput_floor():
    # The 1k-node stream of the tier-1 wheel pins: 20 s at one job per
    # 0.5 s, quantum 0.
    rate = logical_events_per_s(UberStream(1000, 20.0, 0.5))
    assert rate >= 300_000, f"1k-node stream at {rate:.0f} logical ev/s"


def test_telemetry_overhead_at_thousand_nodes():
    # The 1k-node stream for 10 s, telemetry off and on at a 1 s scrape
    # cadence, interleaved seven times with the cyclic GC quiesced; best
    # rate of each arm, since wall-clock noise only ever slows a run down.
    # The acceptance bar is 10 %; 25 % absorbs shared-runner noise.
    off = on = 0.0
    for _ in range(7):
        gc.collect()
        gc.disable()
        try:
            off = max(off, logical_events_per_s(UberStream(1000, 10.0, 0.5)))
            on = max(on, logical_events_per_s(UberStream(
                1000, 10.0, 0.5,
                telemetry=TelemetryConfig(scrape_interval_s=1.0))))
        finally:
            gc.enable()
    overhead = (off - on) / off
    assert overhead < 0.25, f"telemetry overhead {overhead:.1%}"
