"""HeartbeatWheel: phase preservation, exact grid timing, wheel semantics.

The two regression tests at the top pin the scale-exposed bugfixes:

* rejoin keeps the node's *original* phase (the legacy per-node loop
  restarted from scratch, so a mass rejoin after churn synchronized
  previously staggered nodes into a thundering herd);
* beat k fires at exactly ``anchor + k*period`` (the legacy loop summed
  ``timeout(period)`` per beat, accruing one float rounding per tick).
"""

import math

import pytest

from repro.config import HadoopConfig, a3_cluster
from repro.simcluster import SimCluster
from repro.simulation.core import Environment
from repro.yarn.heartbeat import HeartbeatWheel


def make_wheel(period=1.0, quantum=0.0):
    env = Environment()
    beats = []
    wheel = HeartbeatWheel(env, period,
                           lambda node_id: beats.append((env.now, node_id)),
                           quantum=quantum)
    return env, wheel, beats


# -- regression: rejoin keeps the original phase (crash/restart) ---------------

def test_rejoin_resumes_on_original_phase_grid():
    """A node that crashes and rejoins at an off-grid time must fire its
    next beat at the next point of its *original* ``anchor + k*period``
    grid — not at ``restart_time + offset``."""
    conf = HadoopConfig(nm_heartbeat_s=1.0)
    cluster = SimCluster(a3_cluster(4), conf=conf)
    wheel = cluster.rm.heartbeat_wheel
    nm = cluster.rm.node_managers["dn1"]  # phase offset 0.317
    anchor = wheel.anchor_of("dn1")
    assert anchor == pytest.approx(0.317)

    cluster.env.run(until=5.5)
    nm.fail()
    assert wheel.next_fire("dn1") is None  # suspended while down
    cluster.env.run(until=7.6)  # rejoin at an off-grid instant
    nm.restart()
    # Pre-fix behaviour restarted the loop: first beat at 7.6 + 0.317.
    # Phase-preserving resume lands back on the original grid instead.
    assert wheel.next_fire("dn1") == anchor + 8 * 1.0
    before = cluster.rm.nodes["dn1"].last_heartbeat
    cluster.env.run(until=8.5)
    assert cluster.rm.nodes["dn1"].last_heartbeat == anchor + 8 * 1.0
    assert cluster.rm.nodes["dn1"].last_heartbeat != before


def test_beat_observes_settled_state_of_its_instant():
    """Regression: wheel ticks used to run at NORMAL priority, so a beat
    tied with (say) a same-instant submission observed the *pre-event*
    state or the *post-event* state depending on which landed on the
    kernel queue first — a same-timestamp race. DEFERRED ticks always see
    the instant's settled state, no matter the insertion order."""
    from repro.simulation.events import Event

    env = Environment()
    state = {"n": 0}
    seen = []
    wheel = HeartbeatWheel(env, 2.0,
                           lambda node_id: seen.append(state["n"]))
    # Register first: the tick for t=1.0 is armed *before* the mutation
    # event below is scheduled — the insertion order that lost pre-fix.
    wheel.register("dn0", offset=1.0)  # first beat at t=1.0
    bump = Event(env)
    bump._value = None
    bump.callbacks.append(lambda _ev: state.__setitem__("n", 1))
    env.schedule_at(bump, 1.0)  # NORMAL priority, same instant as the beat
    env.run(until=1.5)
    assert seen == [1], "the beat must see the settled state at t=1.0"


def test_mass_rejoin_does_not_synchronize_the_fleet():
    """All nodes crash and all restart at the same instant; their next
    beats must stay staggered on each node's own phase."""
    conf = HadoopConfig(nm_heartbeat_s=1.0)
    cluster = SimCluster(a3_cluster(4), conf=conf)
    wheel = cluster.rm.heartbeat_wheel
    cluster.env.run(until=10.5)
    for nm in cluster.node_managers:
        nm.fail()
    cluster.env.run(until=20.25)
    for nm in cluster.node_managers:
        nm.restart()
    fires = {nm.node_id: wheel.next_fire(nm.node_id)
             for nm in cluster.node_managers}
    assert len(set(fires.values())) == len(fires), (
        f"rejoined beats collapsed onto shared instants: {fires}")
    for node_id, fire in fires.items():
        frac = fire % 1.0
        assert frac == pytest.approx(wheel.anchor_of(node_id) % 1.0)


# -- regression: multiplicative beat times (no float-error accrual) -------------

def test_beats_land_exactly_on_multiplicative_grid():
    """With an inexact binary period (0.1 s), beat k must be *exactly*
    ``anchor + k*period`` — a single rounding. The legacy additive loop
    (``t += period`` per beat) drifts off that grid within ~100 beats."""
    env, wheel, beats = make_wheel(period=0.1)
    wheel.register("n0", offset=0.03)
    env.run(until=100.0)
    anchor = wheel.anchor_of("n0")
    assert len(beats) >= 990
    for k, (when, _) in enumerate(beats):
        assert when == anchor + k * 0.1, f"beat {k} off-grid: {when!r}"

    # The additive accrual this replaces does NOT stay on the grid —
    # the regression would be invisible if the two schemes agreed.
    additive = anchor
    diverged = False
    for k in range(1, len(beats)):
        additive += 0.1
        if additive != anchor + k * 0.1:
            diverged = True
            break
    assert diverged, "period chosen for this test must be float-inexact"


# -- wheel semantics ------------------------------------------------------------

def test_register_matches_legacy_first_beat_and_cadence():
    env, wheel, beats = make_wheel(period=2.0)
    wheel.register("a", offset=0.5)
    wheel.register("b", offset=3.7)  # offset % period ~= 1.7
    env.run(until=9.0)
    anchor_b = wheel.anchor_of("b")
    assert anchor_b == 3.7 % 2.0
    assert [b for b in beats if b[1] == "a"] == [
        (0.5, "a"), (2.5, "a"), (4.5, "a"), (6.5, "a"), (8.5, "a")]
    assert [b for b in beats if b[1] == "b"] == [
        (anchor_b + k * 2.0, "b") for k in range(4)]


def test_duplicate_register_rejected():
    _, wheel, _ = make_wheel()
    wheel.register("a")
    with pytest.raises(ValueError):
        wheel.register("a")
    # A batch naming a node twice, or one already on, registers none.
    for batch in ([("b", 0.1), ("b", 0.2)], [("b", 0.1), ("a", 0.2)]):
        with pytest.raises(ValueError):
            wheel.register_all(batch)
        assert not wheel.is_active("b")
    wheel.register_all([("b", 0.1), ("c", 0.2)])
    assert wheel.is_active("b") and wheel.is_active("c")


def test_suspend_is_idempotent_and_resume_noops_when_active():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.25)
    env.run(until=2.0)
    wheel.suspend("a")
    wheel.suspend("a")
    env.run(until=5.0)
    assert all(when < 2.0 for when, _ in beats)
    wheel.resume("a")
    wheel.resume("a")  # already beating: no duplicate entries
    env.run(until=7.0)
    delivered = [when for when, _ in beats if when >= 5.0]
    assert delivered == [5.25, 6.25]


def test_resume_exactly_on_grid_point_fires_immediately():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.0)
    env.run(until=1.5)
    wheel.suspend("a")
    env.run(until=3.0)  # now == grid point 3.0
    wheel.resume("a")
    assert wheel.next_fire("a") == 3.0
    env.run(until=3.1)
    assert (3.0, "a") in beats


def test_unregister_stops_beats_for_good():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.5)
    env.run(until=1.0)
    wheel.unregister("a")
    env.run(until=4.0)
    assert beats == [(0.5, "a")]
    with pytest.raises(KeyError):
        wheel.resume("a")


def test_quantum_aggregates_cohorts_into_shared_ticks():
    env, wheel, beats = make_wheel(period=1.0, quantum=0.5)
    for i in range(40):
        wheel.register(f"n{i}", offset=i * 0.317)
    env.run(until=10.0)
    # Anchors snap to the 0.5 s grid, so 40 nodes share at most 3 distinct
    # phases (0.0/0.5/1.0) — far fewer ticks than heartbeats.
    anchors = {wheel.anchor_of(f"n{i}") for i in range(40)}
    assert all(math.isclose(a / 0.5, round(a / 0.5)) for a in anchors)
    assert len(anchors) <= 3
    assert wheel.heartbeats_delivered > 300
    assert wheel.ticks < wheel.heartbeats_delivered / 10


def test_suspend_during_delivery_cancels_the_successor_beat():
    env = Environment()
    beats = []
    wheel = None

    def deliver(node_id):
        beats.append((env.now, node_id))
        if len(beats) == 2:
            wheel.suspend(node_id)

    wheel = HeartbeatWheel(env, 1.0, deliver)
    wheel.register("a", offset=0.5)
    env.run(until=6.0)
    assert beats == [(0.5, "a"), (1.5, "a")]


def test_invalid_period_and_quantum_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        HeartbeatWheel(env, 0.0, lambda n: None)
    with pytest.raises(ValueError):
        HeartbeatWheel(env, 1.0, lambda n: None, quantum=-0.1)
