"""Tests for max-min fair sharing: FairShareDevice and SharedFabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FairShareDevice, FlowKilled, SharedFabric
from repro.simulation import Environment


def test_single_flow_runs_at_full_capacity():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    flow = dev.execute(50.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(5.0)


def test_two_equal_flows_share_capacity():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    f1 = dev.execute(50.0)
    f2 = dev.execute(50.0)
    env.run()
    assert f1.done.value == pytest.approx(10.0)
    assert f2.done.value == pytest.approx(10.0)


def test_flow_cap_limits_rate():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    flow = dev.execute(10.0, cap=2.0)  # alone, but capped at 2 units/s
    env.run(until=flow.done)
    assert env.now == pytest.approx(5.0)


def test_cpu_pool_semantics_n_tasks_c_cores():
    """4 tasks on 2 cores, each 10 cpu-seconds -> all done at t=20."""
    env = Environment()
    cpu = FairShareDevice(env, capacity=2.0)
    flows = [cpu.execute(10.0, cap=1.0) for _ in range(4)]
    env.run()
    for f in flows:
        assert f.done.value == pytest.approx(20.0)


def test_under_subscription_leaves_headroom():
    """2 capped tasks on a 4-capacity device run at their cap, not 2.0 each."""
    env = Environment()
    dev = FairShareDevice(env, capacity=4.0)
    f1 = dev.execute(10.0, cap=1.0)
    f2 = dev.execute(10.0, cap=1.0)
    env.run()
    assert f1.done.value == pytest.approx(10.0)
    assert f2.done.value == pytest.approx(10.0)


def test_staggered_arrival_reallocates():
    """Flow B arriving halfway slows flow A from its arrival onwards."""
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    f1 = dev.execute(100.0)  # alone: would finish at 10

    def late(env):
        yield env.timeout(5.0)
        f2 = dev.execute(25.0)
        yield f2.done
        return env.now

    p = env.process(late(env))
    env.run()
    # At t=5 f1 has 50 left; both run at 5 units/s. f2 (25 units) ends at 10.
    assert p.value == pytest.approx(10.0)
    # f1 then has 25 left and finishes alone at 10 + 25/10 = 12.5.
    assert f1.done.value == pytest.approx(12.5)


def test_departure_speeds_up_survivor():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    short = dev.execute(20.0)  # shared: 5 units/s -> done at 4
    long = dev.execute(100.0)
    env.run()
    assert short.done.value == pytest.approx(4.0)
    # long did 20 units by t=4, then 80 remaining at 10/s -> 12.
    assert long.done.value == pytest.approx(12.0)


def test_zero_size_flow_completes_immediately():
    env = Environment()
    dev = FairShareDevice(env, capacity=1.0)
    flow = dev.execute(0.0)
    env.run()
    assert flow.done.value == pytest.approx(0.0)


def test_kill_flow_fails_event_and_frees_capacity():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    victim = dev.execute(1000.0)
    other = dev.execute(50.0)

    def killer(env):
        yield env.timeout(2.0)
        dev.kill(victim)

    env.process(killer(env))
    env.run()
    assert not victim.done.ok
    assert isinstance(victim.done.value, FlowKilled)
    # other: 2s at 5/s = 10 done, then 40 left at 10/s -> t=6.
    assert other.done.value == pytest.approx(6.0)


def test_kill_completed_flow_is_noop():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    flow = dev.execute(10.0)
    env.run()
    dev.kill(flow)
    assert flow.done.ok


def test_invalid_inputs_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        FairShareDevice(env, capacity=0)
    dev = FairShareDevice(env, capacity=1.0)
    with pytest.raises(ValueError):
        dev.execute(-1.0)
    with pytest.raises(ValueError):
        dev.execute(1.0, cap=0)
    fabric = SharedFabric(env)
    fabric.add_link("l", 1.0)
    with pytest.raises(ValueError):
        fabric.add_link("l", 2.0)
    with pytest.raises(KeyError):
        fabric.submit(("missing",), 1.0)


def test_multilink_bottleneck():
    """A flow crossing two links is limited by the tighter one."""
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("fast", 100.0)
    fabric.add_link("slow", 10.0)
    flow = fabric.submit(("fast", "slow"), 50.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(5.0)


def test_maxmin_respects_unshared_capacity():
    """Flows: A on link1 only, B on link1+link2 where link2 is tight.

    B is bottlenecked to 2 by link2; A should soak the rest of link1 (8),
    which is the max-min allocation, not an equal 5/5 split.
    """
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("l1", 10.0)
    fabric.add_link("l2", 2.0)
    a = fabric.submit(("l1",), 80.0)
    b = fabric.submit(("l1", "l2"), 20.0)
    env.run()
    assert b.done.value == pytest.approx(10.0)  # 20 units at 2/s
    assert a.done.value == pytest.approx(10.0)  # 80 units at 8/s


def test_utilization_reporting():
    env = Environment()
    dev = FairShareDevice(env, capacity=4.0)
    dev.execute(100.0, cap=1.0)
    env.run(until=0.5)
    assert dev.utilization() == pytest.approx(0.25)
    assert dev.active_count == 1


def test_set_capacity_reallocates():
    env = Environment()
    dev = FairShareDevice(env, capacity=10.0)
    flow = dev.execute(100.0)

    def upgrade(env):
        yield env.timeout(5.0)  # 50 done
        dev.set_capacity(25.0)

    env.process(upgrade(env))
    env.run()
    assert flow.done.value == pytest.approx(7.0)  # 50 left at 25/s


# -- property-based invariants ------------------------------------------------

@st.composite
def flow_specs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    sizes = draw(st.lists(st.floats(min_value=0.5, max_value=100.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=n, max_size=n))
    caps = draw(st.lists(st.one_of(st.none(),
                                   st.floats(min_value=0.1, max_value=5.0,
                                             allow_nan=False, allow_infinity=False)),
                         min_size=n, max_size=n))
    return list(zip(sizes, caps))


@given(flow_specs(), st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_property_all_work_completes_and_capacity_never_exceeded(specs, capacity):
    env = Environment()
    dev = FairShareDevice(env, capacity=capacity)
    samples = []

    def sampler(t, ev):
        used = sum(f.rate for f in dev.active_flows)
        samples.append(used)

    env.tracers.append(sampler)
    flows = [dev.execute(size, cap=cap) for size, cap in specs]
    env.run()
    for flow in flows:
        assert flow.done.triggered and flow.done.ok
    for used in samples:
        assert used <= capacity * (1 + 1e-6)


@given(flow_specs(), st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_property_completion_no_earlier_than_ideal(specs, capacity):
    """No flow can finish faster than running alone at min(cap, capacity)."""
    env = Environment()
    dev = FairShareDevice(env, capacity=capacity)
    flows = [(dev.execute(size, cap=cap), size, cap) for size, cap in specs]
    env.run()
    for flow, size, cap in flows:
        best_rate = min(capacity, cap) if cap is not None else capacity
        ideal = size / best_rate
        assert flow.done.value >= ideal - 1e-6


@given(st.lists(st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
                min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_property_equal_flows_finish_together(sizes):
    """Identical flows started together must finish at the same instant."""
    env = Environment()
    dev = FairShareDevice(env, capacity=7.0)
    size = sizes[0]
    flows = [dev.execute(size) for _ in sizes]
    env.run()
    finish_times = {round(f.done.value, 6) for f in flows}
    assert len(finish_times) == 1


@given(st.floats(min_value=0.5, max_value=80.0),
       st.floats(min_value=0.5, max_value=80.0))
@settings(max_examples=40, deadline=None)
def test_property_work_conservation_two_flows(s1, s2):
    """Total busy time equals total work / capacity when always backlogged."""
    env = Environment()
    capacity = 4.0
    dev = FairShareDevice(env, capacity=capacity)
    f1 = dev.execute(s1)
    f2 = dev.execute(s2)
    env.run()
    makespan = max(f1.done.value, f2.done.value)
    # Device is busy the whole time with at least one flow; the sum of work
    # equals capacity x busy time only while both are active, afterwards the
    # single survivor gets full capacity, so makespan is exactly:
    total = s1 + s2
    shorter = min(s1, s2)
    both_phase_end = 2 * shorter / capacity
    expected = both_phase_end + (max(s1, s2) - shorter) / capacity
    assert makespan == pytest.approx(expected, rel=1e-6)
    assert makespan >= total / capacity - 1e-9


@st.composite
def chaos_script(draw):
    """A random interleaving of submits and kills with think-time gaps."""
    ops = []
    n = draw(st.integers(2, 12))
    for i in range(n):
        kind = draw(st.sampled_from(["submit", "kill", "wait"]))
        if kind == "submit":
            ops.append(("submit", draw(st.floats(0.5, 30.0)),
                        draw(st.one_of(st.none(), st.floats(0.2, 3.0)))))
        elif kind == "kill":
            ops.append(("kill", draw(st.integers(0, 10)), None))
        else:
            ops.append(("wait", draw(st.floats(0.1, 5.0)), None))
    return ops


@given(chaos_script(), st.floats(min_value=2.0, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_property_fabric_survives_random_kill_interleavings(script, capacity):
    """Any submit/kill/wait interleaving: non-killed flows all complete,
    capacity is never exceeded, and the run terminates."""
    env = Environment()
    dev = FairShareDevice(env, capacity=capacity)
    flows = []
    killed = set()

    def driver(env):
        for kind, arg, cap in script:
            if kind == "submit":
                flows.append(dev.execute(arg, cap=cap))
            elif kind == "kill":
                if flows:
                    victim = flows[arg % len(flows)]
                    if not victim.done.triggered:
                        dev.kill(victim)
                        killed.add(id(victim))
            else:
                yield env.timeout(arg)
        if False:
            yield env.timeout(0)

    env.process(driver(env))
    over = []
    env.tracers.append(lambda t, e: over.append(
        sum(f.rate for f in dev.active_flows)))
    env.run()
    for flow in flows:
        assert flow.done.triggered
        if id(flow) in killed:
            assert not flow.done.ok
        else:
            assert flow.done.ok
    assert all(u <= capacity * (1 + 1e-6) for u in over)


# -- wake-up timer discipline --------------------------------------------------

def _count_armed_timers(env):
    """Monkeypatch env.timeout so every timer the fabric arms is recorded."""
    armed = []
    orig_timeout = env.timeout

    def counting_timeout(delay, value=None):
        armed.append(env.now + delay)
        return orig_timeout(delay, value)

    env.timeout = counting_timeout
    return armed


def test_drift_wakeup_does_not_arm_duplicate_timer():
    """Regression: when a wake-up fires but numerical drift left a hair of
    work, exactly one follow-up timer may be armed — the drift re-arm must
    not double up with the one retiming already scheduled."""
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("l", 10.0)
    armed = _count_armed_timers(env)
    flow = fabric.submit(("l",), 100.0)  # arms the wake-up at t=10
    # Inject drift: at t=10 the flow will still have 100 units left, so the
    # wake-up finds nothing finished and must retime to t=20 — once.
    flow.remaining = 200.0
    env.run()
    assert flow.done.value == pytest.approx(20.0)
    assert armed == [pytest.approx(10.0), pytest.approx(20.0)]


def test_submissions_coalesce_to_a_single_live_timer():
    """A burst of submissions leaves one live timer, not one per change.

    Four equal flows submitted back-to-back: the first submit arms a timer;
    the later submits only push the wanted wake-up later, which reuses the
    armed timer (it re-arms itself once when it fires early). Total timers:
    2, where the per-change scheme armed 4."""
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("l", 10.0)
    armed = _count_armed_timers(env)
    flows = [fabric.submit(("l",), 40.0) for _ in range(4)]
    assert len(armed) == 1  # the burst coalesced onto the first timer
    env.run()
    for f in flows:
        assert f.done.value == pytest.approx(16.0)
    assert len(armed) == 2
    assert not fabric.has_live_timer


def test_kill_of_earliest_flow_supersedes_timer():
    """Killing the flow whose completion the timer tracks arms an earlier
    replacement and the superseded timer is ignored when it fires."""
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("l", 10.0)
    short = fabric.submit(("l",), 10.0)   # with sharing: done at t=2... killed
    long = fabric.submit(("l",), 100.0)

    def killer(env):
        yield env.timeout(1.0)
        fabric.kill(short)

    env.process(killer(env))
    env.run()
    assert not short.done.ok
    # long: 1s at 5/s = 5 done, 95 left at 10/s -> 1 + 9.5 = 10.5.
    assert long.done.value == pytest.approx(10.5)
    assert not fabric.has_live_timer


def test_flows_on_and_utilization_use_maintained_index():
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("a", 10.0)
    fabric.add_link("b", 10.0)
    f1 = fabric.submit(("a",), 30.0)
    f2 = fabric.submit(("a", "b"), 30.0)
    assert fabric.flows_on("a") == [f1, f2]  # submission order
    assert fabric.flows_on("b") == [f2]
    assert fabric.flows_on("missing") == []
    assert fabric.utilization("a") == pytest.approx(1.0)
    assert fabric.utilization("b") == pytest.approx(0.5)
    env.run()
    assert fabric.flows_on("a") == []
    assert fabric.utilization("a") == 0.0


def test_retired_flows_leave_no_bookkeeping_behind():
    """Completion and kill both fully unregister flows (members, caps)."""
    env = Environment()
    fabric = SharedFabric(env)
    fabric.add_link("l", 10.0)
    done = [fabric.submit(("l",), 5.0, cap=2.0) for _ in range(3)]
    victim = fabric.submit(("l",), 500.0, cap=1.0)

    def killer(env):
        yield env.timeout(1.0)
        fabric.kill(victim)

    env.process(killer(env))
    env.run()
    for f in done:
        assert f.done.ok
    assert not fabric.active_flows
    assert fabric._busy == [] and fabric._busy_caps == {}  # cap links too
    assert all(not members for members in fabric._link_members.values())
