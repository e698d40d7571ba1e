"""Both allocators against reference implementations, bit for bit.

``SharedFabric`` runs progressive filling over the busy links only, in the
order the links were added. :class:`FullScanFabric` below is the
specification it must match: each filling round walks *every* link ever
added (idle ones included) in that order, with a private cap link for each
capped flow at the position where the flow arrived. Both fabrics get the
same random submits, kills, completions, capacity changes and mid-run link
additions on their own environments, stepped in lockstep; after every
change each flow's rate, remaining work and ``eta()`` must be identical.

``FairShareDevice`` is a one-link progressive fill without the link
machinery, so its specification is a ``SharedFabric`` whose only link is
the device; ``DiskDevice``'s is :class:`FabricDisk`, a disk driven on such
a fabric. Completion values and order and the number of timers armed must
match as well.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import DiskDevice, FairShareDevice, SharedFabric
from repro.simulation import Environment

#: The allocator's tolerance for treating two fair shares as equal.
EPS = 1e-9


class FullScanFabric(SharedFabric):
    """Same flows and timers; the allocation scans every link."""

    def __init__(self, env):
        super().__init__(env)
        #: Real link ids and capped flows (standing for their cap link),
        #: in the order they were added.
        self.order = []

    def add_link(self, link_id, capacity):
        super().add_link(link_id, capacity)
        self.order.append(link_id)

    def _reallocate(self):
        flows = self.active_flows
        # A flow's cap link is added when the flow is registered, which
        # is just before the allocation it triggers.
        self.order += [f for f in flows if f.cap is not None and f not in self.order]
        live = set(flows)
        cap_left, members = {}, {}
        for key in self.order:
            if isinstance(key, str):
                cap_left[key] = self.capacity(key)
                members[key] = [f for f in flows if key in f.path]
            else:
                cap_left[key] = key.cap
                members[key] = [key] if key in live else []

        unfrozen = set(flows)
        rates = {}
        while unfrozen:
            share_min, chosen = math.inf, None
            for key in self.order:
                active = [f for f in members[key] if f in unfrozen]
                if active and cap_left[key] / len(active) < share_min - EPS:
                    share_min, chosen = cap_left[key] / len(active), active
            if chosen is None:
                break
            for flow in chosen:
                rates[flow] = share_min
                unfrozen.discard(flow)
                for key in flow.path + ((flow,) if flow.cap is not None else ()):
                    cap_left[key] = max(0.0, cap_left[key] - share_min)

        earliest, now = math.inf, self.env.now
        for flow in flows:
            flow.rate = rates.get(flow, 0.0)
            if flow.rate > EPS:
                earliest = min(earliest, now + flow.remaining / flow.rate)
        if math.isinf(earliest):
            self._wakeup_at = math.inf
        else:
            self._request_wakeup(earliest)


#: Capacities and caps. Values from a short list make equal and nearly
#: equal fair shares, and so bottleneck tie-breaks, common; inexact ones
#: (0.1, 1/3) make the order of the subtractions show in the last bits.
_RATE = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.6, 1 / 3, 2 / 3, 1.0, 2.0]),
                  st.floats(0.1, 20.0))

_OP = st.one_of(
    st.tuples(st.just("submit"), st.lists(st.integers(0, 99), max_size=3, unique=True),
              st.floats(0.1, 50.0), st.one_of(st.none(), _RATE)),
    st.tuples(st.just("kill"), st.integers(0, 99)),
    st.tuples(st.just("set_capacity"), st.integers(0, 99), _RATE),
    st.tuples(st.just("add_link"), _RATE),
    st.tuples(st.just("wait"), st.floats(0.0, 4.0)),
)


def assert_same(pairs, env):
    for fast, reference in pairs:
        assert fast.done.triggered == reference.done.triggered
        assert fast.rate == reference.rate
        assert fast.remaining == reference.remaining
        assert fast.eta() == reference.eta()
    assert env[0].now == env[1].now


def step_until(envs, pairs, until):
    """Step both environments in lockstep through ``until``."""
    while envs[0].peek() <= until and envs[0].peek() < math.inf:
        assert envs[0].peek() == envs[1].peek()
        envs[0].step()
        envs[1].step()
        assert_same(pairs, envs)


@given(capacities=st.lists(_RATE, min_size=1, max_size=12),
       ops=st.lists(_OP, max_size=40))
@example(  # a tie on two busy links, the later-added one busy first
    capacities=[1.0] * 6,
    ops=[("submit", [4], 9.0, None), ("submit", [4], 9.0, None),
         ("submit", [1, 4], 9.0, None), ("submit", [1], 9.0, None),
         ("submit", [1], 9.0, None), ("submit", [], 5.0, 1 / 3),
         ("wait", 4.0)])
@settings(max_examples=120, deadline=None)
def test_busy_link_allocator_matches_full_scan(capacities, ops):
    envs = (Environment(), Environment())
    fabrics = (SharedFabric(envs[0]), FullScanFabric(envs[1]))
    links = [f"l{i}" for i in range(len(capacities))]
    for fabric in fabrics:
        for link, capacity in zip(links, capacities):
            fabric.add_link(link, capacity)
    pairs = []

    for op in ops:
        if op[0] == "submit":
            _, picks, size, cap = op
            path = tuple(dict.fromkeys(links[p % len(links)] for p in picks))
            pairs.append(tuple(f.submit(path, size, cap=cap) for f in fabrics))
        elif op[0] == "kill" and pairs:
            for fabric, flow in zip(fabrics, pairs[op[1] % len(pairs)]):
                fabric.kill(flow)
        elif op[0] == "set_capacity":
            link = links[op[1] % len(links)]
            for fabric in fabrics:
                fabric.set_capacity(link, op[2])
        elif op[0] == "add_link":
            links.append(f"l{len(links)}")
            for fabric in fabrics:
                fabric.add_link(links[-1], op[1])
        elif op[0] == "wait":
            for env in envs:
                env.timeout(op[1])
            step_until(envs, pairs, envs[0].now + op[1])
        assert_same(pairs, envs)

    step_until(envs, pairs, math.inf)
    busy = fabrics[0]._busy
    assert [entry[0] for entry in busy] == sorted(entry[0] for entry in busy)
    assert {key for _, key, _ in busy} == set(fabrics[0]._busy_caps) == {
        key for flow in fabrics[0].active_flows for key in flow.links}


class FabricDisk(DiskDevice):
    """A disk on a one-link ``SharedFabric``, driven the way ``DiskDevice``
    drove one before it got its own queue: ``set_capacity`` for the op
    count with the new op, then ``submit``, and the capacity for the ops
    left is restored from the op's ``done`` callback."""

    def __init__(self, env):
        super().__init__(env, read_mb_s=50.0, write_mb_s=30.0, seek_penalty=0.3)
        self.fabric = SharedFabric(env)
        self.fabric.add_link("disk", 1.0)

    def _resize(self, n_ops):
        self.fabric.set_capacity("disk", self._capacity_for(n_ops))

    def set_slowdown(self, factor):
        self.slowdown = float(factor)
        self._resize(max(1, self.fabric.flow_count()))

    def fail_active(self):
        victims = self.fabric.active_flows
        for flow in victims:
            self.fabric.kill(flow)
        return len(victims)

    def _submit(self, device_seconds, label):
        self._resize(self.fabric.flow_count() + 1)
        flow = self.fabric.submit(("disk",), device_seconds, cap=1.0, label=label)
        flow.done.callbacks.append(
            lambda _ev: self._resize(max(1, self.fabric.flow_count())))
        return flow

    def kill(self, flow):
        self.fabric.kill(flow)


#: Sizes from a short list make equal sizes, and so coinciding
#: completions, common; zero-size work completes without an allocation.
_SIZE = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 10.0]), st.floats(0.1, 30.0))

_QUEUE_OP = st.one_of(
    st.tuples(st.just("submit"), _SIZE,
              st.one_of(st.none(), st.just(1.0), _RATE), st.booleans()),
    st.tuples(st.just("kill"), st.integers(0, 99)),
    st.tuples(st.just("set_capacity"), _RATE),
    st.tuples(st.just("set_slowdown"), st.sampled_from([0.5, 1.0, 2.0, 6.0])),
    st.tuples(st.just("fail_active")),
    st.tuples(st.just("wait"), st.floats(0.0, 4.0)),
)


@pytest.mark.parametrize("queue", ["device", "disk"])
@given(capacity=_RATE, ops=st.lists(_QUEUE_OP, max_size=40))
@example(  # two kills, then a read before their ``done`` callbacks run: the
    # disk capacity for the ops left rises, and the rise arms a timer
    capacity=1.0,
    ops=[("submit", 10.0, None, True)] * 3
    + [("wait", 0.3), ("kill", 0), ("kill", 1), ("submit", 10.0, None, True),
       ("wait", 4.0)])
@example(  # a later, lower cap takes over the bottleneck, which changes
    # the order of the subtractions from the device's headroom
    capacity=1.0,
    ops=[("submit", 10.0, 0.3, True), ("submit", 10.0, 0.1, True),
         ("submit", 10.0, None, True), ("wait", 4.0)])
@settings(max_examples=150, deadline=None)
def test_processor_sharing_queues_match_one_link_fabric(queue, capacity, ops):
    """``FairShareDevice`` against a one-link ``SharedFabric``, and
    ``DiskDevice`` against :class:`FabricDisk`: identical rates, remaining
    work, ETAs, completion values and order, and timers armed."""
    envs = (Environment(), Environment())
    if queue == "device":
        servers = (FairShareDevice(envs[0], capacity), SharedFabric(envs[1]))
        servers[1].add_link("device", capacity)
        timed = servers
    else:
        servers = (DiskDevice(envs[0], read_mb_s=50.0, write_mb_s=30.0,
                              seek_penalty=0.3), FabricDisk(envs[1]))
        timed = (servers[0], servers[1].fabric)
    pairs = []
    completions = ([], [])

    def submit(side, size, cap, read):
        server = servers[side]
        if queue == "disk":
            flow = server.read(size) if read else server.write(size)
        elif side == 0:
            flow = server.execute(size, cap=cap)
        else:
            flow = server.submit(("device",), size, cap=cap)
        index = len(pairs)
        flow.done.callbacks.append(lambda ev: completions[side].append(
            (index, ev.ok, ev.value if ev.ok else None, envs[side].now)))
        return flow

    def check():
        assert_same(pairs, envs)
        assert completions[0] == completions[1]
        assert timed[0].timers_armed == timed[1].timers_armed

    def run_until(until):
        while envs[0].peek() <= until and envs[0].peek() < math.inf:
            step_until(envs, pairs, envs[0].peek())
            check()

    for op in ops:
        if op[0] == "submit":
            _, size, cap, read = op
            pairs.append(tuple(submit(side, size, cap, read) for side in (0, 1)))
        elif op[0] == "kill" and pairs:
            for server, flow in zip(servers, pairs[op[1] % len(pairs)]):
                server.kill(flow)
        elif op[0] == "set_capacity" and queue == "device":
            servers[0].set_capacity(op[1])
            servers[1].set_capacity("device", op[1])
        elif op[0] in ("set_slowdown", "fail_active") and queue == "disk":
            results = [getattr(server, op[0])(*op[1:]) for server in servers]
            assert results[0] == results[1]
        elif op[0] == "wait":
            for env in envs:
                env.timeout(op[1])
            run_until(envs[0].now + op[1])
        check()

    run_until(math.inf)
    assert envs[1].peek() == math.inf
    assert len(completions[0]) == len(pairs)
