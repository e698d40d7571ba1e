"""Unit tests for the discrete-event kernel: clock, events, processes."""

import pytest

from repro.simulation import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(3.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [3.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_early():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_inf_without_a_sampler():
    """The stop entry sits at ``inf``; popping it must not call the empty
    telemetry sampler slot."""
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(2)
        log.append(env.now)

    env.process(proc(env))
    env.run(until=float("inf"))
    assert log == [2]
    assert env.now == float("inf")
    assert env.events_processed == 4  # init, timeout, process end, stop


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "payload"

    p = env.process(proc(env))
    assert env.run(until=p) == "payload"
    assert env.now == 2


def test_run_until_event_never_fires_raises():
    env = Environment()
    ev = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_fire_in_time_order_with_fifo_ties():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "b", 2))
    env.process(proc(env, "a", 1))
    env.process(proc(env, "a2", 1))
    env.run()
    assert order == ["a", "a2", "b"]


def test_process_waits_on_process():
    env = Environment()
    trace = []

    def child(env):
        yield env.timeout(5)
        trace.append(("child-done", env.now))
        return 99

    def parent(env):
        value = yield env.process(child(env))
        trace.append(("parent-got", value, env.now))

    env.process(parent(env))
    env.run()
    assert trace == [("child-done", 5.0), ("parent-got", 99, 5.0)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env):
        value = yield ev
        got.append((env.now, value))

    def firer(env):
        yield env.timeout(4)
        ev.succeed("hi")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert got == [(4.0, "hi")]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_failed_event_throws_into_process():
    env = Environment()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(env, ev))

    def firer(env):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("child blew up")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child blew up"]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(env, target):
        yield env.timeout(3)
        target.interrupt(cause="preempted")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [(3.0, "preempted")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(2)
        log.append(env.now)

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [3.0]


def test_all_of_waits_for_every_event():
    env = Environment()
    got = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield t1 & t2
        got.append((env.now, sorted(result.values())))

    env.process(proc(env))
    env.run()
    assert got == [(5.0, ["a", "b"])]


def test_any_of_fires_on_first():
    env = Environment()
    got = []

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield t1 | t2
        got.append((env.now, list(result.values())))

    env.process(proc(env))
    env.run()
    assert got == [(1.0, ["fast"])]
    assert env.now == 5.0  # the slow timeout still drains


def test_all_of_empty_triggers_immediately():
    env = Environment()
    cond = AllOf(env, [])
    env.run()
    assert cond.triggered and cond.value == {}


def test_any_of_propagates_failure():
    env = Environment()
    caught = []

    def proc(env):
        ok = env.timeout(10)
        bad = env.event()
        bad.fail(RuntimeError("bad"))
        try:
            yield AnyOf(env, [ok, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["bad"]


def test_process_return_value_via_stopiteration():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return {"answer": 42}

    p = env.process(proc(env))
    env.run()
    assert p.value == {"answer": 42}
    assert not p.is_alive


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()


def test_determinism_same_seed_same_trace():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, name):
            for i in range(3):
                yield env.timeout(1.5)
                trace.append((env.now, name, i))

        for name in ("x", "y", "z"):
            env.process(worker(env, name))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_tracer_sees_every_event():
    env = Environment()
    seen = []
    env.tracers.append(lambda t, ev: seen.append(t))

    def proc(env):
        yield env.timeout(1)
        yield env.timeout(2)

    env.process(proc(env))
    env.run()
    assert seen[-1] == 3.0
    assert len(seen) >= 3  # initialize + two timeouts (+ process end)


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7)

    env.process(proc(env))
    env.step()  # consume Initialize
    assert env.peek() == 7.0


# -- Environment.schedule_at ----------------------------------------------------

def test_schedule_at_lands_on_exact_timestamp():
    env = Environment()
    seen = []

    def sleeper(env):
        yield env.timeout(0.05)

    env.process(sleeper(env))
    event = env.event()
    event._value = None
    event.callbacks.append(lambda ev: seen.append(env.now))
    # 0.1 + 0.2 != 0.3 in floats; schedule_at must not round-trip the time.
    env.schedule_at(event, 0.3)
    env.run()
    assert seen == [0.3]


def test_schedule_at_rejects_past_times():
    env = Environment()

    def advance(env):
        yield env.timeout(10.0)

    env.process(advance(env))
    env.run()
    with pytest.raises(ValueError):
        env.schedule_at(env.event(), 5.0)


def test_events_processed_counter_advances():
    env = Environment()

    def ticker(env):
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    assert env.events_processed >= 5


class TickerLoad:
    """``procs`` processes of ``timeouts`` 1 s timeouts each; every 2 000th
    pop samples the kernel heap. Set up here, so a caller can time
    :meth:`run` alone."""

    def __init__(self, procs=100, timeouts=500):
        self.env = Environment()
        self.events = procs * timeouts
        self.peak_pending = 0
        for _ in range(procs):
            self.env.process(self._ticker(timeouts))
        self.env.tracers.append(self._probe)

    def _ticker(self, timeouts):
        for _ in range(timeouts):
            yield self.env.timeout(1.0)

    def _probe(self, t, ev):
        if self.env.events_processed % 2000 == 0:
            self.peak_pending = max(self.peak_pending, len(self.env._queue))

    def run(self):
        self.env.run()
        return self


def test_ticker_load_counts_are_exact():
    """100 processes x 500 timeouts: each process adds a start and an end
    event to ``events_processed``, and every sample sees the other 99
    tickers pending on the heap."""
    load = TickerLoad().run()
    assert load.env.events_processed - load.events == 200
    assert load.peak_pending == 99


# -- run() and step() share one dispatch loop ------------------------------------

def _kernel_scenario(seed, fail_at=None):
    """A seeded mix of timeouts, triggered events, conditions, interrupts
    and a 1.5 s sampler grid; ``fail_at`` adds an event nobody handles.

    Returns the environment and its log: every popped ``(time, event
    type)`` seen through ``env.tracers`` and every sampler call, in order.
    """
    import random

    rng = random.Random(seed)
    env = Environment()
    log = []
    env.tracers.append(lambda t, ev: log.append((t, type(ev).__name__)))

    def sample(when):
        log.append(("sample", when))
        env.sample_next = (when // 1.5 + 1) * 1.5

    env.sampler = sample
    env.sample_next = 0.0

    def worker(env, name):
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("timeout", "timeout", "event", "all", "any", "zero"))
            if kind == "timeout":
                yield env.timeout(rng.choice((0.5, 1.0, rng.uniform(0.0, 3.0))))
            elif kind == "event":
                ev = env.event()
                env.process(trigger(env, ev, rng.uniform(0.0, 2.0)))
                yield ev
            elif kind == "all":
                yield env.all_of([env.timeout(rng.uniform(0.0, 2.0)) for _ in range(3)])
            elif kind == "any":
                yield env.any_of([env.timeout(rng.uniform(0.0, 2.0)) for _ in range(3)])
            else:
                yield env.timeout(0)
        return name

    def trigger(env, ev, delay):
        yield env.timeout(delay)
        ev.succeed(delay)

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            yield env.timeout(0.25)

    def interrupter(env, victim):
        yield env.timeout(rng.uniform(0.0, 4.0))
        victim.interrupt("wake")

    def failer(env):
        yield env.timeout(fail_at)
        raise RuntimeError(f"unhandled at {env.now}")

    for i in range(12):
        env.process(worker(env, i))
    env.process(interrupter(env, env.process(sleeper(env))))
    if fail_at is not None:
        env.process(failer(env))
    return env, log


def _drive(env, by_steps):
    if not by_steps:
        env.run()
        return
    while env.peek() < float("inf"):
        env.step()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_and_step_dispatch_identically(seed):
    """``run()`` and a loop of ``step()`` calls pop the same events in the
    same order, call the sampler at the same times and count the same
    events."""
    results = []
    for by_steps in (False, True):
        env, log = _kernel_scenario(seed)
        _drive(env, by_steps)
        results.append((log, env.events_processed, env.now))
    assert results[0] == results[1]
    log = results[0][0]
    assert sum(1 for entry in log if entry[0] == "sample") >= 3
    assert {"Timeout", "Process", "Initialize", "AllOf", "AnyOf", "Event"} <= {
        kind for _, kind in log}


def test_run_and_step_raise_the_same_unhandled_failure():
    """An unhandled failed event stops both paths at the same event with
    the same exception."""
    results = []
    for by_steps in (False, True):
        env, log = _kernel_scenario(4, fail_at=2.0)
        with pytest.raises(RuntimeError) as info:
            _drive(env, by_steps)
        results.append((str(info.value), log, env.events_processed, env.now))
    assert results[0] == results[1]
    assert results[0][0] == "unhandled at 2.0"
