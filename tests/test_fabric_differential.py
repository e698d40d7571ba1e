"""The busy-link allocator against a full-scan reference, bit for bit.

``SharedFabric`` runs progressive filling over the busy links only, in the
order the links were added. :class:`FullScanFabric` below is the
specification it must match: each filling round walks *every* link ever
added (idle ones included) in that order, with a private cap link for each
capped flow at the position where the flow arrived. Both fabrics get the
same random submits, kills, completions, capacity changes and mid-run link
additions on their own environments, stepped in lockstep; after every
change each flow's rate, remaining work and ``eta()`` must be identical.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import SharedFabric
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
