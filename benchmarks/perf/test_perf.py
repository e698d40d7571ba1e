"""Tests of the benchmark harness; run with ``pytest benchmarks/perf``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from layerclock import ROOT, LayerClock, instrument
from speedprobe import EXPONENT, REFERENCE_S, SpeedProbe

sys.path.insert(0, str(run.SRC))


def small_replay() -> run.Replay:
    """``mrapid_replay`` cut to 300 simulated seconds."""
    return run.Replay(11, nodes=16, strategy="mrapid-speculative",
                      mix="default_short_job_mix", jobs=75, duration_s=300.0)


def test_layer_clock_charges_each_interval_to_the_layer_on_top():
    now = [0.0]

    def advance(dt: float) -> None:
        now[0] += dt

    class Service:
        def outer(self) -> None:
            advance(2.0)
            self.inner()
            advance(4.0)

        def inner(self) -> None:
            advance(3.0)

    original = Service.outer
    clock = LayerClock(lambda: now[0])
    clock.wrap(Service, "outer", "a")
    clock.wrap(Service, "inner", "b")
    clock.start()
    advance(1.0)
    Service().outer()
    clock.enter("b")
    advance(0.5)
    clock.exit()
    advance(0.25)
    clock.flush()
    clock.restore()

    assert dict(clock.self_s) == {ROOT: 1.25, "a": 6.0, "b": 3.5}
    assert sum(clock.self_s.values()) == now[0]
    assert clock.calls == {"a": 1, "b": 2}
    assert clock.counts == {"Service.outer": 1, "Service.inner": 1}
    assert clock.balanced
    assert Service.outer is original


def test_speed_probe_scales_each_piece_by_the_local_probe_time():
    probe = SpeedProbe()
    # One probe per 10 ms: 1x the reference time until t = 1 s, 2x after,
    # with an interrupted probe that the local median ignores.
    for i in range(200):
        probe.at.append(i * 0.01)
        probe.took.append(REFERENCE_S * (1 if i < 100 else 2))
    probe.took[50] = REFERENCE_S * 40
    slow = 0.5 ** EXPONENT
    assert probe.scaled(0.1, 0.6) == pytest.approx(0.5)
    assert probe.scaled(1.2, 1.7) == pytest.approx(0.5 * slow)
    assert probe.scaled(0.5, 1.5) == pytest.approx(0.5 + 0.5 * slow)
    # Before the first probe and after the last, the nearest one stands in.
    assert probe.scaled(-0.5, -0.1) == pytest.approx(0.4)
    assert probe.scaled(2.5, 3.0) == pytest.approx(0.5 * slow)
    with pytest.raises(ValueError):
        SpeedProbe().scaled(0.0, 1.0)


def test_speed_probe_samples_while_entered_and_stops_after():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    count = len(probe.at)
    assert count >= 20
    assert list(probe.at) == sorted(probe.at)
    time.sleep(0.02)
    assert len(probe.at) == count


def test_traced_replay_reproduces_the_untraced_outcome():
    workload = small_replay()
    untraced, _ = workload.check(workload.run(workload.setup()))
    clock = LayerClock()
    instrument(clock)
    try:
        clock.start()
        traced, _ = workload.check(workload.run(workload.setup()))
        clock.flush()
    finally:
        clock.restore()
    assert traced == untraced
    assert clock.balanced
    assert clock.counts["events"] > 0


@pytest.fixture(scope="module")
def small_record() -> dict:
    record = run.measure(small_replay(), seconds=0.0, traced=True)
    assert record["correct"], record.get("error")
    return record


def test_emitted_metrics_are_the_ones_benchmark_json_declares(small_record):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    emitted = {"end_to_end": run.end_to_end(small_record),
               "per_layer": small_record["per_layer"]}
    for section, metrics in emitted.items():
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_exits_nonzero_without_the_source_tree(tmp_path: Path):
    bench = tmp_path / "benchmarks" / "perf"
    bench.mkdir(parents=True)
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
