"""Identity pins: every scenario of ``repro.analysis.scenarios`` against
``tests/snapshots/digests.json``.

``replay_load`` picks each job's submission path from the strategy, the
serving runtime's overload ladder and, for ``mrapid-auto``, the tuner;
the registry holds one small replay per path, the CLI commands built on
it, and the scenarios the hash-seed and race sanitizers run. A refactor
must leave every decision, sojourn and counter byte-identical. Each
scenario raises if it no longer exercises its path; the tests here add
the checks that need a spy on the simulator.
"""

import json

import pytest

from repro.analysis.scenarios import SCENARIOS
from repro.cluster import DiskDevice
from repro.serving.runtime import ServingRuntime
from repro.trace import TRACE_STRATEGIES

from .pins import assert_pinned, committed_digests


def _group(prefix):
    """The registry names under ``prefix/``, without it."""
    return sorted(name.split("/", 1)[1] for name in SCENARIOS
                  if name.startswith(prefix + "/"))


#: Scenario groups with a test of their own: here, in test_telemetry.py
#: (``telemetry-exports``), in test_observe.py (``profile``) and in
#: test_analysis.py (the sanitizer's child-run scenarios).
_OWN_TEST = {"strategy", "crash", "gray", "degraded", "shed",
             "attainment-floor", "ring", "warm", "metrics", "trace-json",
             "telemetry-exports", "profile", "scale-1k", "serving-churn",
             "tuner-store", "wordcount-node-failure"}


def test_every_scenario_is_pinned():
    """The digest file pins exactly the registry's scenarios with both
    digests; every other entry belongs to a test-local scenario."""
    assert {name for name, digest in committed_digests().items()
            if "self_cost" in digest} == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(
    name for name in SCENARIOS if name.split("/")[0] not in _OWN_TEST))
def test_scenario_is_pinned(name):
    assert_pinned(name)


def test_every_strategy_is_pinned():
    assert _group("strategy") == sorted(TRACE_STRATEGIES)


@pytest.mark.parametrize("strategy", _group("strategy"))
def test_strategy_replay_is_pinned(strategy):
    assert_pinned(f"strategy/{strategy}")


@pytest.mark.parametrize("strategy", _group("crash"))
def test_crash_replay_is_pinned(strategy):
    assert_pinned(f"crash/{strategy}")


@pytest.mark.parametrize("strategy", _group("gray"))
def test_gray_replay_is_pinned(strategy, monkeypatch):
    """Both of the gray plan's disk rate changes land while the victim
    disk has ops in flight."""
    in_flight = []
    set_slowdown = DiskDevice.set_slowdown

    def counting(disk, factor):
        in_flight.append(disk.active_ops)
        set_slowdown(disk, factor)

    monkeypatch.setattr(DiskDevice, "set_slowdown", counting)
    assert_pinned(f"gray/{strategy}")
    assert len(in_flight) == 2 and any(in_flight)


@pytest.mark.parametrize("strategy", _group("degraded"))
def test_degraded_serving_replay_is_pinned(strategy, monkeypatch):
    """Latency jobs forced to uber/U+, speculation and the tuner suspended
    for the dispatch — for some dispatches, not all."""
    hits = []
    degraded_mode_for = ServingRuntime.degraded_mode_for

    def counting(runtime, slo):
        degraded = degraded_mode_for(runtime, slo)
        hits.append(degraded)
        return degraded

    monkeypatch.setattr(ServingRuntime, "degraded_mode_for", counting)
    assert_pinned(f"degraded/{strategy}")
    assert any(hits) and not all(hits)


def test_latency_arrivals_shed_pending_batch_jobs():
    assert_pinned("shed")


def test_autoscaler_attainment_floor_is_pinned():
    assert_pinned("attainment-floor")


def test_shared_store_replays_fill_the_ring():
    assert_pinned("ring")


@pytest.mark.parametrize("case", _group("metrics"))
def test_metrics_cli_output_is_pinned(case):
    assert_pinned(f"metrics/{case}")


@pytest.mark.parametrize("flags", _group("trace-json"))
def test_trace_json_output_is_pinned(flags):
    assert_pinned(f"trace-json/{flags}")


def test_warm_started_replay_is_pinned(monkeypatch):
    """Besides the replays, pins every learned count and estimate the
    second replay left in HFSP, the admission size oracle and the picker."""
    from repro.tuner.picker import AutoModePicker
    from repro.yarn.hfsp import HFSPScheduler

    built = {}
    for cls in (HFSPScheduler, ServingRuntime, AutoModePicker):
        def capture(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            _init(self, *args, **kwargs)
            built[_cls] = self
        monkeypatch.setattr(cls, "__init__", capture)
    assert_pinned("warm")
    picker = built[AutoModePicker]
    store = picker.store
    learned = {
        "hfsp": {name: repr((stats.count, stats.mean_s))
                 for name, stats in sorted(built[HFSPScheduler].sizes.items())},
        "admission": {name: repr((stats.count, stats.ewma))
                      for name, stats
                      in sorted(built[ServingRuntime].controller.sizes.items())},
        "picker": {f"{sig}/{mode}": repr((stats.count, stats.ewma))
                   for sig in store.signatures()
                   for mode in picker.config.candidates
                   for stats in [store.stats(sig, mode)]},
    }
    assert_pinned("warm-learned", json.dumps(learned, sort_keys=True).encode())
