"""The heartbeat wheel's sleep/wake contract.

A wheel given a ``busy`` predicate sleeps through beats that have nothing
to place; the reference wheel (``busy=None``) delivers every beat. The
differential property below drives both with the same random membership
changes and work arrivals and requires them to agree on everything an
observer can see: the working beats, ``heartbeats_delivered`` and every
node's latest beat time. The replay differentials below do the same for
the RM's own predicate, which also sleeps through beats the AM limit
leaves with nothing to place.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceVector
from repro.config import HadoopConfig, ServingConfig, a3_cluster
from repro.faults.plan import churn_plan
from repro.simcluster import SimCluster
from repro.simulation.core import Environment
from repro.simulation.events import Event
from repro.trace import (build_trace_cluster, default_serving_mix,
                         default_short_job_mix, poisson_trace, replay_load)
from repro.yarn import Application
from repro.yarn.heartbeat import HeartbeatWheel

from .pins import assert_pinned

NODES = 5


def at(env, when, fn):
    """Run ``fn()`` at exactly ``when`` as an ordinary (NORMAL) event."""
    event = Event(env)
    event._value = None
    event.callbacks.append(lambda _ev: fn())
    env.schedule_at(event, when)


class World:
    """One wheel plus a work queue that working beats drain.

    ``spawns[i]`` is the work the i-th working beat enqueues, as
    ``(delay, units)`` — a delay of 0 re-enqueues on the beat's own
    instant, after the wheel may already have fallen asleep in it.
    """

    def __init__(self, period, quantum, elide, spawns):
        self.env = Environment()
        self.period = period
        self.pending = 0
        self.working = []
        self.reads = []
        self.spawns = spawns
        self.wheel = HeartbeatWheel(
            self.env, period, self.deliver, quantum=quantum,
            busy=(lambda: self.pending > 0) if elide else None)
        self.registered = []
        self.gone = set()

    def deliver(self, node_id):
        if self.pending == 0:
            return  # reference wheel only: an idle beat is a no-op
        self.pending -= 1
        self.working.append((self.env.now, node_id))
        self.read()
        delay, units = self.spawns[(len(self.working) - 1) % len(self.spawns)]
        if units:
            at(self.env, self.env.now + delay, lambda: self.enqueue(units))

    def enqueue(self, units):
        self.pending += units
        self.wheel.wake()

    def read(self):
        wheel = self.wheel
        now = self.env.now
        self.reads.append((
            now, wheel.heartbeats_delivered,
            tuple(wheel.last_beat(n) for n in self.registered),
            wheel.silent_nodes(now, 1.5 * self.period),
            tuple(wheel.next_fire(n) if wheel.is_active(n) else None
                  for n in self.registered)))

    def apply(self, op, arg, node):
        wheel, node_id = self.wheel, f"n{node}"
        if op == "register":
            if node_id not in self.registered:
                wheel.register(node_id, offset=arg)
                self.registered.append(node_id)
        elif node_id not in self.registered or node_id in self.gone:
            return
        elif op == "suspend":
            wheel.suspend(node_id)
        elif op == "resume":
            wheel.resume(node_id)
        elif op == "unregister":
            wheel.unregister(node_id)
            self.gone.add(node_id)


_OPS = st.tuples(
    st.sampled_from(["register", "suspend", "resume", "unregister",
                     "enqueue", "enqueue_on_grid", "read", "read_on_grid"]),
    st.floats(0.0, 30.0, allow_nan=False),  # when
    st.integers(0, NODES - 1),              # node
    st.floats(0.0, 7.0, allow_nan=False),   # offset, or grid steps
    st.integers(1, 3))                      # work units


def run_world(period, quantum, elide, ops, spawns, horizon=40.0,
              world_type=World):
    world = world_type(period, quantum, elide, spawns)
    env = world.env
    for node in range(2):
        world.apply("register", node * 0.37, node)
    for op, when, node, arg, units in ops:
        if op == "enqueue":
            at(env, when, lambda u=units: world.enqueue(u))
        elif op in ("enqueue_on_grid", "read_on_grid"):
            # Work arriving exactly on one of a node's beat instants: the
            # beat due there must still see it (its tick is DEFERRED). A
            # read there must not yet count that beat.
            def on_grid(node=node, steps=int(arg), u=units,
                        act=(lambda u: world.enqueue(u)) if op[0] == "e"
                        else (lambda u: world.read())):
                wheel, node_id = world.wheel, f"n{node}"
                if wheel.is_active(node_id):
                    anchor = wheel.anchor_of(node_id)
                    k = round((wheel.next_fire(node_id) - anchor) / period)
                    at(env, anchor + (k + steps) * period, lambda: act(u))
            at(env, when, on_grid)
        elif op == "read":
            at(env, when, world.read)
        else:
            at(env, when, lambda o=op, a=arg, n=node: world.apply(o, a, n))
    env.run(until=horizon)
    world.read()
    return world


@settings(max_examples=150, deadline=None)
@given(period=st.sampled_from([1.0, 0.1, 0.75, 3.0]),
       quantum=st.sampled_from([0.0, 0.0, 0.25, 0.5]),
       ops=st.lists(_OPS, max_size=40),
       spawns=st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.05, 1.3]),
                                 st.integers(0, 2)),
                       min_size=1, max_size=6))
def test_sleeping_wheel_is_observably_identical_to_reference(
        period, quantum, ops, spawns):
    reference = run_world(period, quantum, False, ops, spawns)
    elided = run_world(period, quantum, True, ops, spawns)
    assert elided.working == reference.working
    assert elided.reads == reference.reads
    # The point of the exercise: the sleeping wheel delivers no idle beat.
    assert elided.wheel.ticks <= reference.wheel.ticks


def test_work_on_a_grid_point_is_served_by_that_beat():
    env = Environment()
    work = []
    served = []

    def deliver(node_id):
        served.append((env.now, node_id, work.pop()))

    wheel = HeartbeatWheel(env, 1.0, deliver, busy=lambda: bool(work))
    wheel.register("a", offset=0.25)
    env.run(until=3.0)
    assert wheel.asleep and served == []
    at(env, 5.25, lambda: (work.append("job"), wheel.wake()))
    env.run(until=6.0)
    assert served == [(5.25, "a", "job")]
    assert wheel.heartbeats_delivered == 6  # 0.25 .. 5.25, all counted
    assert wheel.last_beat("a") == 5.25


def test_wake_on_the_instant_the_wheel_fell_asleep():
    """A working beat enqueues more work on its own instant, after the
    next beat of that tick already put the wheel to sleep. The beats of
    that instant were all made: none may be delivered again."""
    env = Environment()
    work = [1]
    served = []

    def deliver(node_id):
        work.pop()
        served.append((env.now, node_id))
        if len(served) == 1:
            at(env, env.now, lambda: (work.append(1), wheel.wake()))

    wheel = HeartbeatWheel(env, 1.0, deliver, busy=lambda: bool(work))
    for node_id in ("a", "b", "c"):
        wheel.register(node_id, offset=0.5)
    env.run(until=0.75)
    assert wheel.heartbeats_delivered == 3
    assert served == [(0.5, "a")]  # "b" found nothing and slept
    env.run(until=2.0)
    # Woken at 0.5, after both beats of 0.5: next working beat is 1.5.
    assert served == [(0.5, "a"), (1.5, "a")]
    assert wheel.last_beat("b") == wheel.last_beat("c") == 1.5


def test_asleep_reads_at_a_non_finite_instant_raise():
    """Regression: after ``run(until=inf)`` with the wheel asleep, the grid
    arithmetic read at t = inf. ``silent_nodes`` and ``wake()`` never
    returned (the grid index never settled), and ``beats_before`` and
    ``last_beat`` raised ``OverflowError``. Every read now refuses a
    non-finite instant with ``ValueError``."""
    env = Environment()
    wheel = HeartbeatWheel(env, 1.0, lambda _node: None, busy=lambda: False)
    wheel.register("a", offset=0.25)
    wheel.register("b", offset=0.5)
    env.run(until=3.0)
    assert wheel.asleep and wheel.beats_before(3.0) == 6
    for t in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            wheel.silent_nodes(t, 3.0)
        with pytest.raises(ValueError):
            wheel.beats_before(t)
    env.run(until=float("inf"))
    assert env.now == float("inf") and wheel.asleep
    for read in (lambda: wheel.beats_before(env.now),
                 lambda: wheel.heartbeats_delivered,
                 lambda: wheel.silent_nodes(env.now, 3.0),
                 lambda: wheel.last_beat("a"),
                 lambda: wheel.next_fire("b"),
                 wheel.wake):
        with pytest.raises(ValueError):
            read()


def test_idle_cluster_cost_does_not_grow_with_size():
    """1 000 idle NodeManagers for 100 simulated seconds: the wheel sleeps
    after its first beat, so the kernel does almost nothing. Every beat
    still counts (100 per node) and every node reports a fresh beat."""
    cluster = SimCluster(a3_cluster(1000), conf=HadoopConfig())
    cluster.env.run(until=100.0)
    assert cluster.env.events_processed < 100
    wheel = cluster.rm.heartbeat_wheel
    assert wheel.heartbeats_delivered == 100 * 1000
    assert all(99.0 <= state.last_heartbeat < 100.0
               for state in cluster.rm.nodes.values())


def test_submission_wakes_the_wheel_and_the_job_runs():
    cluster = SimCluster(a3_cluster(8), conf=HadoopConfig())
    rm = cluster.rm
    cluster.env.run(until=50.0)
    assert rm.heartbeat_wheel.asleep

    def am(ctx):
        yield ctx.env.timeout(1.0)
        return "ok"

    app = rm.submit_application(
        Application("app_w", "t", ResourceVector(1536, 1), am))
    assert not rm.heartbeat_wheel.asleep
    assert cluster.env.run(until=app.finished) == "ok"
    cluster.env.run(until=60.0)
    assert rm.heartbeat_wheel.asleep


def test_asleep_reads_on_beat_instants_match_reference():
    """Asleep, the wheel computes grid indices with ``ceil()``, which on an
    exact beat instant lands one grid point high for some nodes. The
    reads must settle that exactly, or a scrape on a beat instant would
    count a beat too many: hold 200 nodes to the always-delivering wheel
    at reads placed exactly on beat instants."""
    nodes = [f"n{i}" for i in range(200)]
    wheels = []
    for busy in (None, lambda: False):
        env = Environment()
        wheel = HeartbeatWheel(env, 0.1, lambda node_id: None, busy=busy)
        for i, node_id in enumerate(nodes):
            wheel.register(node_id, offset=(i * 0.0317) % 0.1)
        wheels.append((env, wheel))
    instants = sorted(wheels[0][1].anchor_of(node_id) + k * 0.1
                      for node_id in nodes[:60] for k in (7, 123, 456))
    reads = []
    for env, wheel in wheels:
        reads.append([])
        for t in instants:
            at(env, t, lambda env=env, wheel=wheel, out=reads[-1]: out.append(
                (wheel.beats_before(env.now),
                 wheel.silent_nodes(env.now, 0.15))))
        env.run(until=instants[-1] + 1.0)
    asleep = wheels[1][1]
    assert asleep.asleep and asleep.ticks == 1
    assert reads[1] == reads[0]


def _stall_guard(env, horizon):
    """Fail a replay that outlives ``horizon``: a wheel asleep while an AM
    could be placed strands that job, and the serving control loops would
    otherwise keep the run going forever."""
    yield env.timeout(horizon)
    raise AssertionError(f"replay still running at t={horizon}")


def _resize(cluster, removed):
    """Add a node at t=30 and, 60 s later, decommission the first idle one:
    the AM limit rises, then falls."""
    yield cluster.env.timeout(30.0)
    cluster.add_node()
    yield cluster.env.timeout(60.0)
    idle = [nm.node_id for nm in cluster.node_managers if not nm.running]
    if idle:
        cluster.remove_node(idle[0])
        removed.append(idle[0])


def _replay(scheduler, am_fraction, always_deliver, serving=False,
            resize=False):
    """One load replay; with ``always_deliver`` the RM's wheel is the
    never-sleeping reference. Returns the report, what the wheel's beats
    look like to an observer, and its tick count."""
    if serving:
        conf = HadoopConfig(am_resource_fraction=am_fraction,
                            serving=ServingConfig(
                                latency_deadline_s=75.0, slots_per_node=2,
                                initial_guess_s=12.0, autoscale=True,
                                min_nodes=2, max_nodes=4))
        trace = poisson_trace(default_serving_mix(), 45.0, 300.0, seed=13)
        plan = churn_plan(300.0)
    else:
        conf = HadoopConfig(am_resource_fraction=am_fraction)
        trace = poisson_trace(default_short_job_mix(), 40.0, 150.0, seed=11)
        plan = None
    cluster = build_trace_cluster(a3_cluster(3 if serving else 4),
                                  scheduler=scheduler, conf=conf, seed=7)
    wheel = cluster.rm.heartbeat_wheel
    if always_deliver:
        wheel._busy = None
    cluster.env.process(_stall_guard(cluster.env, 5000.0))
    removed = []
    if resize:
        cluster.env.process(_resize(cluster, removed))
    report = replay_load(cluster, trace, fault_plan=plan)
    beats = (wheel.heartbeats_delivered,
             {node_id: state.last_heartbeat
              for node_id, state in cluster.rm.nodes.items()}, removed)
    return report.to_dict(), beats, wheel.ticks


@pytest.mark.parametrize("scheduler", ["fifo", "capacity", "hfsp"])
@pytest.mark.parametrize("am_fraction", [0.1, 0.3, 1.0])
def test_rm_wheel_matches_always_delivering_wheel(scheduler, am_fraction):
    """The RM's wheel sleeps through every beat the AM limit leaves with
    nothing to place, and wakes when an AM container is released. Real
    replays must not notice: the same report, beat count and last beats
    as the wheel that delivers every beat."""
    reference = _replay(scheduler, am_fraction, True)
    sleeping = _replay(scheduler, am_fraction, False)
    assert sleeping[:2] == reference[:2]
    assert sleeping[2] <= reference[2]
    if am_fraction == 0.1:
        # AM-limited: almost every beat finds the limit reached. The
        # counts are deterministic: about 8 930 ticks delivering every
        # beat, 266-268 asleep.
        assert sleeping[2] * 5 <= reference[2]


def test_churn_autoscaling_replay_matches_always_delivering_wheel():
    """Churn kills and requeues AMs, and the autoscaler adds and drains
    nodes, while AMs wait at the AM limit."""
    reference = _replay("fifo", 0.3, True, serving=True)
    sleeping = _replay("fifo", 0.3, False, serving=True)
    assert sleeping[:2] == reference[:2]
    assert sleeping[2] < reference[2]


def test_resized_replay_matches_always_delivering_wheel():
    """A node added while AMs wait at the AM limit raises the limit; a
    decommissioned one lowers it."""
    reference = _replay("fifo", 0.1, True, resize=True)
    sleeping = _replay("fifo", 0.1, False, resize=True)
    assert reference[1][2], "no idle node to decommission"
    assert sleeping[:2] == reference[:2]
    assert sleeping[2] * 5 <= reference[2]


class SuspendingWorld(World):
    """A world whose every third working beat suspends its own node from
    inside the delivery, after the wheel queued that node's successor
    beat, and resumes it 0.6 periods later."""

    def deliver(self, node_id):
        before = len(self.working)
        super().deliver(node_id)
        if len(self.working) > before and len(self.working) % 3 == 0:
            self.wheel.suspend(node_id)
            node = int(node_id[1:])
            at(self.env, self.env.now + 0.6 * self.period,
               lambda: self.apply("resume", 0.0, node))


#: Explicit worlds whose outcome is pinned: ``(world type, period,
#: quantum, ops, spawns)`` with ``ops`` as in :func:`run_world`. Between
#: them they cover suspends that retire a queued beat while the wheel is
#: awake, from inside a delivery and from an ordinary event (the
#: cancelled entry must never be delivered), unregisters, a wake on the
#: instant the wheel fell asleep (a working beat spawns work on its own
#: instant after the next beat there slept) and ``quantum > 0``.
_PINNED_WORLDS = {
    "suspend-awake+wake-at-sleep": (SuspendingWorld, 1.0, 0.0, [
        ("register", 0.0, 2, 0.0, 1),      # n2 shares n0's anchor 0.0
        ("enqueue", 2.0, 0, 0.0, 1),       # n0 works at 2.0, n2 sleeps
        ("enqueue", 4.1, 0, 0.0, 3),
        ("suspend", 5.0, 2, 0.0, 1),       # n2's 5.0 beat is queued
        ("read", 5.0, 0, 0.0, 1),
        ("resume", 7.5, 2, 0.0, 1),
        ("enqueue", 7.5, 0, 0.0, 2),
        ("suspend", 8.0, 0, 0.0, 1),
        ("resume", 8.0, 0, 0.0, 1),
        ("read_on_grid", 9.0, 1, 2.0, 1),
        ("unregister", 12.0, 1, 0.0, 1),
        ("enqueue", 13.0, 0, 0.0, 2),
        ("read", 20.0, 0, 0.0, 1),
    ], [(0.0, 1), (1.3, 2), (0.05, 0), (0.0, 0)]),
    "quantum+unregister-awake": (World, 0.75, 0.25, [
        ("register", 0.0, 2, 0.1, 1),
        ("register", 0.3, 3, 0.6, 1),
        ("enqueue", 1.0, 0, 0.0, 3),
        ("unregister", 1.5, 3, 0.0, 1),    # while awake: its beat is queued
        ("enqueue_on_grid", 2.0, 2, 1.0, 2),
        ("suspend", 3.0, 0, 0.0, 1),
        ("enqueue", 3.0, 0, 0.0, 3),
        ("resume", 6.2, 0, 0.0, 1),
        ("register", 6.2, 4, 2.5, 1),
        ("read", 7.0, 0, 0.0, 1),
        ("enqueue", 9.0, 0, 0.0, 1),
        ("unregister", 15.0, 2, 0.0, 1),   # asleep
        ("read_on_grid", 16.0, 4, 3.0, 1),
    ], [(0.0, 2), (0.0, 0), (1.3, 1), (0.05, 1)]),
}

@pytest.mark.parametrize("name", sorted(_PINNED_WORLDS))
def test_pinned_worlds(name):
    """Each world's working beats, reads and tick count."""
    world_type, period, quantum, ops, spawns = _PINNED_WORLDS[name]
    world = run_world(period, quantum, True, ops, spawns,
                      world_type=world_type)
    assert_pinned(f"heartbeat-world/{name}", repr(
        (world.working, world.reads, world.wheel.ticks)).encode())


def _reference_grid_indices(anchors, t, period):
    """The column pass a sleeping wheel's beat count was defined by: the
    minimal k >= 0 with ``anchor + k*period >= t``, per anchor."""
    k = np.maximum(np.ceil((t - anchors) / period), 0.0)
    while True:
        low = anchors + k * period < t
        if not low.any():
            break
        k += low
    while True:
        high = (k > 0) & (anchors + (k - 1) * period >= t)
        if not high.any():
            break
        k -= high
    return k


def _reference_beats_before(wheel, t, period):
    """``counted + sum(grid index at t over the active slots) - active_k``."""
    anchors = np.array(wheel._anchor, dtype=np.float64)
    active = np.array([token is not None for token in wheel._token])
    grid = int(_reference_grid_indices(anchors, t, period)[active].sum())
    return wheel._counted + grid - wheel._active_k


_SLEEP_OPS = st.tuples(
    st.sampled_from(["register", "register", "suspend", "resume",
                     "unregister", "read", "read_on_beat", "jump"]),
    st.floats(0.0, 9.0, allow_nan=False),   # time step
    st.integers(0, 11),                     # node
    st.one_of(st.floats(0.0, 5.0, allow_nan=False),
              st.sampled_from([0.0, 0.25, 0.5])),  # offset (ties)
    st.integers(0, 3))                      # grid steps back


@settings(max_examples=200, deadline=None)
@given(period=st.sampled_from([0.1, 0.75, 1.0, 3.0]),
       quantum=st.sampled_from([0.0, 0.0, 0.05, 0.5]),
       offsets=st.lists(st.one_of(st.floats(0.0, 5.0, allow_nan=False),
                                  st.sampled_from([0.0, 0.1, 0.25])),
                        min_size=1, max_size=8),
       ops=st.lists(_SLEEP_OPS, max_size=30))
def test_asleep_beat_count_matches_the_column_pass(period, quantum, offsets,
                                                   ops):
    """A sleeping wheel's ``beats_before(t)`` equals the column pass over
    its anchors for every read: tied and random anchors, membership
    changes while asleep, reads exactly on beat instants and reads near
    t = 1e6 s, where ``anchor + k*period`` rounds."""
    env = Environment()
    wheel = HeartbeatWheel(env, period, lambda node_id: None,
                           quantum=quantum, busy=lambda: False)
    nodes = {}
    for i, offset in enumerate(offsets):
        wheel.register(f"n{i}", offset=offset)
        nodes[f"n{i}"] = True
    env.run(until=period + quantum + 0.01)
    assert wheel.asleep
    last_change = env.now

    def read(t):
        # A read at the instant of a change sees it: a node registered
        # there has not made its first beat yet.
        if t >= last_change:
            assert wheel.beats_before(t) == _reference_beats_before(
                wheel, t, period), (t, env.now)

    for op, step, node, offset, back in ops:
        env.run(until=env.now + step + (1e6 if op == "jump" else 0.0))
        node_id = f"n{node}"
        if op == "register":
            if node_id not in nodes:
                wheel.register(node_id, offset=offset)
                nodes[node_id] = True
                last_change = env.now
        elif op in ("suspend", "resume", "unregister"):
            if not nodes.get(node_id):
                continue
            getattr(wheel, op)(node_id)
            nodes[node_id] = op != "unregister"
            last_change = env.now
        elif op == "read_on_beat":
            for other in nodes:
                if nodes[other] and wheel.is_active(other):
                    anchor = wheel.anchor_of(other)
                    k = int(_reference_grid_indices(
                        np.array([anchor]), env.now, period)[0])
                    read(anchor + max(k - back, 0) * period)
        read(env.now)
        read(env.now - step / 2)
    assert wheel.asleep


@pytest.mark.parametrize("quantum", [0.0, 0.25])
def test_wake_queues_only_the_beats_of_its_first_tick(quantum):
    """Waking a sleeping 10 000-node wheel queues the beats due at the
    first tick and no other: every other node stays on paper until the
    ticks reach it. The count is still exact when they do."""
    env = Environment()
    wheel = HeartbeatWheel(env, 1.0, lambda node_id: None, quantum=quantum,
                           busy=lambda: False)
    nodes = [f"dn{i}" for i in range(10_000)]
    for i, node_id in enumerate(nodes):
        wheel.register(node_id, (i * 0.317) % 1.0)
    env.run(until=50.4)
    assert wheel.asleep
    wheel.wake()
    fires = [wheel.next_fire(node_id) for node_id in nodes]
    first = min(fires)
    assert sorted(wheel._queue) == [
        (first, slot, wheel._token[slot])
        for slot, fire in enumerate(fires) if fire == first]
    assert wheel._armed == {first}
    env.run(until=53.0)
    assert wheel.asleep and wheel.ticks == 2
    assert wheel.heartbeats_delivered == _reference_beats_before(
        wheel, 53.0, 1.0)


_MEMBERSHIP_OPS = st.lists(st.tuples(
    st.sampled_from(["register", "suspend", "resume", "unregister", "wake",
                     "read"]),
    st.floats(0.0, 4.0, allow_nan=False),   # time step
    st.integers(0, 15),                     # node
    st.floats(0.0, 3.0, allow_nan=False)),  # offset
    max_size=40)


@settings(max_examples=100, deadline=None)
@given(quantum=st.sampled_from([0.0, 0.25]), ops=_MEMBERSHIP_OPS)
def test_membership_columns_kept_in_place_match_a_rebuild(quantum, ops):
    """The anchors and active mask, and the phase index's weights, are
    kept in place through registers, suspends, resumes and unregisters,
    awake and asleep; after any sequence they equal a fresh rebuild."""
    from repro.yarn.heartbeat import _PhaseIndex

    env = Environment()
    wheel = HeartbeatWheel(env, 1.0, lambda node_id: None, quantum=quantum,
                           busy=lambda: False)
    for op, step, node, offset in ops:
        env.run(until=env.now + step)
        node_id = f"n{node}"
        if op == "register":
            if node_id not in wheel._slot:
                wheel.register(node_id, offset)
        elif op == "wake":
            wheel.wake()
        elif op == "read":
            wheel.beats_before(env.now)
        elif node_id in wheel._slot:
            getattr(wheel, op)(node_id)
    kept = wheel._phases
    anchors, active = wheel._columns()
    assert anchors.tolist() == wheel._anchor
    assert active.tolist() == [token is not None for token in wheel._token]
    if kept is not None:
        fresh = _PhaseIndex(np.array(wheel._anchor), active, 1.0)
        assert kept.mults.tolist() == fresh.mults.tolist()
        assert kept.below.tolist() == fresh.below.tolist()
        assert (kept.size, kept.wholes_sum) == (fresh.size, fresh.wholes_sum)
