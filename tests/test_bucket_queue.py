"""BucketQueue ≡ heapq observational equivalence + kernel scheduling edges."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.bucketq import FAR_HORIZON, BucketQueue
from repro.simulation.core import Environment


# -- property: identical pop order to a flat heap -------------------------------

#: One scripted operation: (kind, delay, priority).
#: kind 0-2 = push (weighted towards pushes), 3 = pop, 4 = cancel-newest,
#: 5 = cancel-unknown. ``delay`` is relative to the last popped time, which
#: mirrors the kernel's now+delay monotonic-push invariant.
_OPS = st.tuples(st.integers(0, 5),
                 st.floats(0.0, 50.0, allow_nan=False),
                 st.integers(0, 1))


@given(st.lists(_OPS, max_size=200), st.floats(0.01, 7.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_bucket_queue_matches_flat_heap(ops, width):
    bq = BucketQueue(width=width)
    heap = []
    tombstones = set()
    eid = 0
    now = 0.0
    live_eids = []

    def reference_pop():
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] in tombstones:
                tombstones.discard(entry[2])
                continue
            return entry
        return None

    for kind, delay, priority in ops:
        if kind <= 2:  # push
            entry = (now + delay, priority, eid, f"ev{eid}")
            bq.push(entry)
            heapq.heappush(heap, entry)
            live_eids.append(eid)
            eid += 1
        elif kind == 3:  # pop
            expected = reference_pop()
            if expected is None:
                with pytest.raises(IndexError):
                    bq.pop()
            else:
                got = bq.pop()
                assert got == expected
                now = got[0]
        elif kind == 4 and live_eids:  # cancel a known (maybe popped) eid
            victim = live_eids[len(live_eids) // 2]
            bq.cancel(victim)
            tombstones.add(victim)
        else:  # cancel an eid that never existed
            bq.cancel(eid + 1_000_000)
            tombstones.add(eid + 1_000_000)

        peek = bq.peek_time()
        head = min((e for e in heap if e[2] not in tombstones), default=None)
        assert peek == (head[0] if head is not None else None)

    # Drain: remaining live entries come out in exact heap order.
    while True:
        expected = reference_pop()
        if expected is None:
            break
        assert bq.pop() == expected
    with pytest.raises(IndexError):
        bq.pop()


# -- property: a bulk load, then the same ops, still matches heapq -------------

#: Loaded entries: (time, priority); some land on far-horizon times.
_LOADED = st.lists(st.tuples(
    st.one_of(st.floats(0.0, 40.0, allow_nan=False),
              st.sampled_from([0.0, 0.5, 1.0, FAR_HORIZON, float("inf")])),
    st.integers(0, 1)), max_size=120)


@given(_LOADED, st.lists(_OPS, max_size=150), st.floats(0.01, 7.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_bulk_load_then_ops_match_flat_heap(loaded, ops, width):
    heap = sorted((t, prio, eid, f"load{eid}") for eid, (t, prio) in enumerate(loaded))
    bq = BucketQueue(width=width)
    bq.load(list(heap))  # a sorted list is already a heap
    assert len(bq) == len(heap)
    tombstones = set()
    eid = len(heap)
    now = 0.0

    def reference_pop():
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] in tombstones:
                tombstones.discard(entry[2])
                continue
            return entry
        return None

    for kind, delay, priority in ops:
        if kind <= 2:  # push, never before the last popped time
            entry = (now + delay, priority, eid, f"ev{eid}")
            bq.push(entry)
            heapq.heappush(heap, entry)
            eid += 1
        elif kind == 3:  # pop
            expected = reference_pop()
            if expected is None:
                with pytest.raises(IndexError):
                    bq.pop()
            else:
                got = bq.pop()
                assert got == expected
                now = got[0]
        elif kind == 4 and eid:  # cancel a loaded or pushed (maybe popped) eid
            victim = int(delay * 7) % eid
            bq.cancel(victim)
            tombstones.add(victim)
        peek = bq.peek_time()
        head = min((e for e in heap if e[2] not in tombstones), default=None)
        assert peek == (head[0] if head is not None else None)

    while (expected := reference_pop()) is not None:
        assert bq.pop() == expected
    with pytest.raises(IndexError):
        bq.pop()


def test_loaded_and_pushed_far_entries_share_the_overflow_bucket():
    bq = BucketQueue()
    bq.load([(5.0, 1, 0, "near"), (FAR_HORIZON, 1, 1, "horizon"),
             (float("inf"), 0, 2, "inf-a")])
    bq.push((float("inf"), 1, 3, "inf-b"))
    bq.push((FAR_HORIZON, 0, 4, "horizon-0"))
    assert [bq.pop()[3] for _ in range(5)] == [
        "near", "horizon-0", "horizon", "inf-a", "inf-b"]


def test_load_needs_an_empty_queue():
    bq = BucketQueue()
    bq.push((1.0, 0, 0, "a"))
    with pytest.raises(ValueError):
        bq.load([(2.0, 0, 1, "b")])


# -- targeted edges -------------------------------------------------------------

def test_far_horizon_entries_share_overflow_bucket():
    bq = BucketQueue()
    bq.push((float("inf"), 1, 2, "inf-b"))
    bq.push((FAR_HORIZON, 1, 1, "horizon"))
    bq.push((float("inf"), 0, 3, "inf-a"))
    bq.push((5.0, 1, 0, "near"))
    assert [bq.pop()[3] for _ in range(4)] == ["near", "horizon", "inf-a", "inf-b"]


def test_cancelled_entries_are_never_returned_but_count_until_drained():
    bq = BucketQueue()
    bq.push((1.0, 1, 0, "a"))
    bq.push((2.0, 1, 1, "b"))
    bq.cancel(0)
    assert len(bq) == 2  # space is reclaimed lazily
    assert bq.peek_time() == 2.0
    assert bq.pop()[3] == "b"
    assert len(bq) == 0


def test_width_must_be_positive():
    with pytest.raises(ValueError):
        BucketQueue(width=0.0)


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
