"""Fair sharing of capacity among concurrent flows.

This is the performance heart of the simulator. A *flow* is a fixed amount
of work served at an allocated rate, optionally rate-capped (e.g. a map task
can use at most 1 core no matter how idle the node is). Two servers
allocate those rates; everything else about a flow — charging elapsed
work, the completion timer, completion and kill — is one piece of code,
:class:`_FlowServer`, that both share.

* :class:`SharedFabric` holds *links* (a NIC at 120 MB/s, a rack uplink,
  the core switch) and flows that traverse one or more of them. Whenever
  the flow set changes it recomputes a max-min fair allocation by
  progressive filling over the busy links. Only :class:`ClusterNetwork`
  builds one.
* :class:`FairShareDevice` is one processor-sharing queue: a disk or a
  CPU pool. Its flows share one capacity, so the allocation is a one-link
  progressive fill over a plain list of flows.

Three properties keep the hot path cheap and deterministic:

* **Incremental state, busy links only.** A fabric's link membership
  (which flows touch which links, including the private per-flow cap
  links) is maintained across ``submit``/``kill``/completion instead of
  being rebuilt inside every reallocation, and so is the list of *busy*
  links — those with at least one member — sorted by the order the links
  were added. Progressive filling walks only that list, dividing each
  link's headroom by its count of unfrozen members, so a filling round
  costs O(busy links) plus the members of the link that wins it,
  independent of how many idle links the fabric holds (a 1 000-node
  ``ClusterNetwork`` has ~2 000 links, almost all idle at any instant).
  Visiting the busy links in the order the links were added keeps the
  tie-break between equal shares (the first link wins) a function of the
  links alone, not of which links happen to be idle or when they became
  busy. ``flows_on`` and
  ``utilization`` read the maintained index directly. All flow iteration
  is in submission order — never ``id()``-hash order — so an allocation is
  bit-for-bit reproducible across processes.

* **Devices skip the link machinery.** A device performs the float
  operations a one-link ``SharedFabric`` would, in the same order, so its
  rates are bit-identical to one; it just keeps no link index, cap links
  or capacity map to do it. Its common cases skip the generic
  charge/allocate/retime chain with those same operations: work arriving
  at an idle device, the completion of its only flow and a capacity
  change while idle.

* **One live timer.** Completions use a generation-tagged wake-up timer and
  at most one is live per server: if the wanted wake-up moves *later* the
  existing timer is kept and simply re-armed when it fires early; only a
  wake-up moving *earlier* arms a new timer (superseding the old one by
  generation). The event heap therefore never accumulates per-change stale
  timers, and a wake-up can never run the allocator twice.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional

from ..simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment

_EPS = 1e-9


class Flow:
    """A fixed quantity of work being served by a fabric or a device.

    ``done`` is an event that fires when the work completes; its value is the
    completion time. Killed flows fail their event (pre-defused so callers
    that already finished waiting are unaffected).
    """

    __slots__ = ("fabric", "path", "size", "cap", "remaining", "rate", "last_update",
                 "done", "label", "seq", "links", "submitted_at")

    def __init__(self, fabric: "_FlowServer", path: tuple[str, ...], size: float,
                 cap: Optional[float], label: str) -> None:
        #: The server (fabric or device) serving this flow.
        self.fabric = fabric
        self.path = path
        self.size = float(size)
        self.cap = cap
        self.remaining = float(size)
        self.rate = 0.0
        self.last_update = fabric.env.now
        self.submitted_at = fabric.env.now
        self.done: Event = fabric.env.event()
        self.label = label
        #: Monotonic submission number; all fabric iteration orders key on it.
        self.seq = 0
        #: ``path``, plus the key of the private cap link when the flow has
        #: a cap: its ``seq``, which no real link id equals (set on
        #: registration).
        self.links: tuple[object, ...] = path

    def eta(self) -> float:
        """Projected completion time under the current allocation."""
        if self.done.triggered:
            return self.fabric.env.now
        if self.rate <= 0:
            return math.inf
        return self.last_update + self.remaining / self.rate

    def __repr__(self) -> str:
        return f"<Flow {self.label} remaining={self.remaining:.3f} rate={self.rate:.3f}>"


class FlowKilled(Exception):
    """Failure value delivered to a killed flow's ``done`` event."""


class _FlowServer:
    """Flows served at allocated rates, completed by one live wake-up timer.

    Subclasses own membership (``_register``/``_retire``, over the
    submission-ordered ``_flows``) and allocation (``_reallocate``, which
    sets every live flow's rate and then calls :meth:`_retime`).
    """

    #: Live flows in submission order.
    _flows: Collection[Flow]

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # Wake-up management: at most one *live* timer per server.
        self._wakeup_at = math.inf   # when the allocator wants to run next
        self._timer_at = math.inf    # deadline of the live timer (inf = none)
        self._timer_gen = 0          # identity of the live timer
        #: Total timers ever armed (observability / benchmarks).
        self.timers_armed = 0
        #: Activity observer: called with True when the first flow arrives
        #: and with False when the last one completes or is killed.
        self.on_busy: Optional[Callable[[bool], None]] = None

    def _register(self, flow: Flow) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _retire(self, flow: Flow) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _reallocate(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- flows ----------------------------------------------------------------
    def _start(self, path: tuple[str, ...], size: float, cap: Optional[float],
               label: str) -> Flow:
        if size < 0:
            raise ValueError("size must be non-negative")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive when given")
        flow = Flow(self, path, size, cap, label)
        if size <= _EPS:
            flow.remaining = 0.0
            flow.done.succeed(self.env.now)
            return flow
        self._advance()
        self._register(flow)
        if self.on_busy is not None and len(self._flows) == 1:
            self.on_busy(True)
        self._reallocate()
        return flow

    def _remove(self, flow: Flow) -> None:
        self._retire(flow)
        if not self._flows and self.on_busy is not None:
            self.on_busy(False)

    def kill(self, flow: Flow) -> None:
        """Abort a flow; its ``done`` event fails with :class:`FlowKilled`."""
        if flow.done.triggered:
            return
        self._advance()
        self._remove(flow)
        flow.done.fail(FlowKilled(flow.label))
        flow.done.defuse()
        self._reallocate()

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        """Live flows in submission order.

        Deliberately *not* a set: ``Flow`` hashes by identity, so set
        iteration order would follow allocation addresses and fault
        handlers that walk the active flows (node/link kills) would tear
        them down in a process-dependent order.
        """
        return tuple(self._flows)

    def flow_count(self) -> int:
        """Live-flow count without materializing :attr:`active_flows`."""
        return len(self._flows)

    # -- engine ---------------------------------------------------------------
    def _advance(self) -> None:
        """Charge elapsed work to every flow at its current rate."""
        now = self.env.now
        for flow in self._flows:
            if flow.rate > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * (now - flow.last_update))
            flow.last_update = now

    def _retime(self) -> None:
        """Request a wake-up at the earliest completion under the new rates."""
        earliest_t = math.inf
        now = self.env.now
        for flow in self._flows:
            if flow.rate > _EPS:
                t = now + flow.remaining / flow.rate
                if t < earliest_t:
                    earliest_t = t
        if math.isinf(earliest_t):
            self._wakeup_at = math.inf
        else:
            self._request_wakeup(earliest_t)

    # -- wake-up timers --------------------------------------------------------
    def _request_wakeup(self, at: float) -> None:
        """Ask for the allocator to run at ``at``, coalescing timers.

        A live timer that already fires at or before ``at`` is reused (it
        re-arms itself if it turns out to be early); only an *earlier* wanted
        wake-up arms a fresh timer, superseding the live one by generation.
        """
        self._wakeup_at = at
        if self._timer_at <= at + _EPS:
            return
        self._arm(at)

    def _arm(self, at: float) -> None:
        self._timer_gen += 1
        self.timers_armed += 1
        gen = self._timer_gen
        self._timer_at = at
        timer = self.env.timeout(max(0.0, at - self.env.now))
        timer.callbacks.append(lambda ev: self._on_wakeup(gen))

    @property
    def has_live_timer(self) -> bool:
        return not math.isinf(self._timer_at)

    def _on_wakeup(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a newer (earlier) timer
        self._timer_at = math.inf
        if not self._flows or math.isinf(self._wakeup_at):
            return
        if self.env.now + _EPS < self._wakeup_at:
            # Fired early: the wanted wake-up moved later (e.g. a submit
            # diluted everyone's rate) since this timer was armed. Re-arm
            # once at the current target — still at most one live timer, and
            # exactly one allocator run per effective wake-up.
            self._arm(self._wakeup_at)
            return
        self._wakeup_at = math.inf
        self._advance()
        for flow in [f for f in self._flows if f.remaining <= _EPS]:
            self._finish(flow)
        # Retiming covers the numerical-drift case too: if nothing finished
        # exactly, _reallocate re-requests a wake-up at the refreshed ETA, so
        # no second (duplicate) drift timer is ever armed.
        self._reallocate()

    def _finish(self, flow: Flow) -> None:
        """Retire a flow whose work is done and fire its ``done`` event."""
        self._remove(flow)
        flow.remaining = 0.0
        flow.done.succeed(self.env.now)
        tracer = self.env.tracer
        if tracer is not None:
            from ..observe.tracer import CLUSTER
            device = (flow.label.split(":", 1)[0] if ":" in flow.label
                      else "net")
            tracer.async_complete(flow.label, "flow", CLUSTER,
                                  f"fabric:{device}", flow.submitted_at,
                                  size=flow.size)
            tracer.counter("fabric:flows_completed").inc()


class SharedFabric(_FlowServer):
    """A set of capacity links shared max-min fairly by flows."""

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        #: One counter numbers the links as they are added and the flows as
        #: they are submitted. A link's number is its *rank*, which orders
        #: the busy links; a capped flow's private cap link ranks at the
        #: flow's own number, i.e. where the flow arrived.
        self._seq = 0
        #: link id -> (rank, capacity).
        self._links: dict[str, tuple[int, float]] = {}
        #: Active flows in submission order (dict used as an ordered set).
        self._flows: dict[Flow, None] = {}
        #: Busy link id -> member flows in submission order (ordered set);
        #: a link leaves the map when its last member leaves.
        self._link_members: dict[str, dict[Flow, None]] = {}
        #: ``(rank, key, members)`` of every busy link, sorted by rank; a
        #: private cap link's key is its flow's ``seq``.
        self._busy: list[tuple[int, object, dict[Flow, None]]] = []
        #: key -> capacity of every busy link: the allocator's starting
        #: headroom, copied whole (a C-level copy, not a Python loop).
        self._busy_caps: dict[object, float] = {}

    # Bound here as well, so that wrapping them on this class (as
    # ``benchmarks/perf/layerclock.py`` does) instruments the network alone.
    kill = _FlowServer.kill
    _on_wakeup = _FlowServer._on_wakeup

    # -- topology -----------------------------------------------------------
    def add_link(self, link_id: str, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError(f"link {link_id!r} capacity must be positive, got {capacity}")
        if link_id in self._links:
            raise ValueError(f"duplicate link {link_id!r}")
        self._seq += 1
        self._links[link_id] = (self._seq, float(capacity))

    def set_capacity(self, link_id: str, capacity: float) -> None:
        """Change a link's capacity (e.g. a degraded NIC); reallocates."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if link_id not in self._links:
            raise KeyError(link_id)
        self._advance()
        self._links[link_id] = (self._links[link_id][0], float(capacity))
        if link_id in self._busy_caps:
            self._busy_caps[link_id] = float(capacity)
        self._reallocate()

    def capacity(self, link_id: str) -> float:
        return self._links[link_id][1]

    @property
    def links(self) -> Iterable[str]:
        return self._links.keys()

    # -- flows ----------------------------------------------------------------
    def submit(self, path: Iterable[str], size: float, cap: Optional[float] = None,
               label: str = "flow") -> Flow:
        """Start serving ``size`` units of work across ``path``.

        Returns the :class:`Flow`; yield ``flow.done`` to wait. Zero-size
        work completes immediately (the event still goes through the queue so
        ordering stays deterministic). A path names each link at most once:
        the allocator counts a flow once per link it crosses.
        """
        path = tuple(path)
        for link in path:
            if link not in self._links:
                raise KeyError(f"unknown link {link!r}")
        if len(set(path)) != len(path):
            raise ValueError(f"path {path!r} names a link more than once")
        return self._start(path, size, cap, label)

    def flows_on(self, link_id: str) -> list[Flow]:
        return list(self._link_members.get(link_id, ()))

    def utilization(self, link_id: str) -> float:
        """Fraction of a link's capacity currently allocated."""
        capacity = self._links[link_id][1]
        return sum(f.rate for f in self._link_members.get(link_id, ())) / capacity

    # -- membership bookkeeping ----------------------------------------------
    def _register(self, flow: Flow) -> None:
        """Add a flow to the maintained link-membership index."""
        self._seq += 1
        flow.seq = self._seq
        self._flows[flow] = None
        link_members = self._link_members
        for link in flow.path:
            members = link_members.get(link)
            if members is None:
                members = link_members[link] = {}
                rank, self._busy_caps[link] = self._links[link]
                insort(self._busy, (rank, link, members))
            members[flow] = None
        if flow.cap is not None:
            # The newest rank: the cap link goes last.
            flow.links = flow.path + (flow.seq,)
            self._busy.append((flow.seq, flow.seq, {flow: None}))
            self._busy_caps[flow.seq] = flow.cap

    def _retire(self, flow: Flow) -> None:
        """Remove a flow (completed or killed) from the maintained index."""
        self._flows.pop(flow, None)
        link_members = self._link_members
        busy = self._busy
        for link in flow.path:
            members = link_members.get(link)
            if members is None:
                continue
            members.pop(flow, None)
            if not members:
                del link_members[link]
                del busy[bisect_left(busy, (self._links[link][0],))]
                del self._busy_caps[link]
        if flow.cap is not None:
            del busy[bisect_left(busy, (flow.seq,))]
            del self._busy_caps[flow.seq]

    # -- engine ---------------------------------------------------------------
    def _reallocate(self) -> None:
        """Progressive-filling max-min fair allocation, then retiming."""
        if not self._flows:
            self._wakeup_at = math.inf
            return

        busy = self._busy
        cap_left = dict(self._busy_caps)
        # Unfrozen members per busy link: a link's fair share is its
        # headroom over this count, so a filling round lists no members;
        # only the winning link's are walked, to freeze them.
        unfrozen_on = {key: len(members) for _, key, members in busy}
        unfrozen = len(self._flows)
        rates: dict[Flow, float] = {}
        while unfrozen:
            # Fair headroom per still-active busy link, in link order (the
            # first of equal shares wins).
            bottleneck_share = math.inf
            bottleneck: Optional[dict[Flow, None]] = None
            for _, key, members in busy:
                n = unfrozen_on[key]
                if n:
                    share = cap_left[key] / n
                    if share < bottleneck_share - _EPS:
                        bottleneck_share = share
                        bottleneck = members
            if bottleneck is None:  # flows on no link and with no cap
                break
            # Membership is in flow submission order.
            for flow in bottleneck:
                if flow in rates:
                    continue
                rates[flow] = bottleneck_share
                unfrozen -= 1
                for link in flow.links:
                    cap_left[link] = max(0.0, cap_left[link] - bottleneck_share)
                    unfrozen_on[link] -= 1

        for flow in self._flows:
            flow.rate = rates.get(flow, 0.0)
        self._retime()


class FairShareDevice(_FlowServer):
    """A processor-sharing queue: a disk or a CPU pool.

    ``capacity`` is in work-units/second. ``execute(size, cap=...)`` submits
    work and returns the flow. A CPU pool models a node's cores: capacity =
    number of cores, each task capped at 1.0 (a thread cannot use more than
    one core), so n tasks on c cores each progress at min(1, c/n) — exactly
    the contention the paper's U+ mode banks on.
    """

    def __init__(self, env: "Environment", capacity: float, name: str = "device") -> None:
        if capacity <= 0:
            raise ValueError(f"device {name!r} capacity must be positive, got {capacity}")
        super().__init__(env)
        self.name = name
        self._capacity = float(capacity)
        self._flows: list[Flow] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (e.g. a throttled core count); reallocates.

        An idle device only stores it: with no flows there is nothing to
        charge or allocate, and no wake-up is wanted.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not self._flows:
            self._capacity = float(capacity)
            return
        self._advance()
        self._capacity = float(capacity)
        self._reallocate()

    def execute(self, size: float, cap: Optional[float] = None, label: str = "work",
                capacity: Optional[float] = None) -> Flow:
        """Start serving ``size`` units of work; yield ``flow.done`` to wait.

        ``capacity``, when given, becomes the device capacity first. Where
        it does not rise, the change rides on the submit's own
        reallocation: lower rates can only push the next wake-up later,
        which the live timer already covers, so a separate
        :meth:`set_capacity` would arm nothing. A rise, or a zero-size
        submit (which does not reallocate), takes the separate step.
        """
        if capacity is not None:
            if capacity <= 0:
                raise ValueError("capacity must be positive")
            if capacity > self._capacity or size <= _EPS:
                self.set_capacity(capacity)
            else:
                self._capacity = float(capacity)
        return self._start((), size, cap, f"{self.name}:{label}")

    @property
    def active_count(self) -> int:
        return len(self._flows)

    def utilization(self) -> float:
        """Fraction of the capacity currently allocated."""
        if not self._flows:
            return 0.0
        return sum(f.rate for f in self._flows) / self._capacity

    def _start(self, path: tuple[str, ...], size: float, cap: Optional[float],
               label: str) -> Flow:
        if self._flows or size <= _EPS or (cap is not None and cap <= 0):
            return _FlowServer._start(self, path, size, cap, label)
        # Work arriving at an idle device: the one-flow fill is the
        # capacity (``capacity / 1``), or the cap when it is lower.
        flow = Flow(self, path, size, cap, label)
        self._flows.append(flow)
        if self.on_busy is not None:
            self.on_busy(True)
        rate = self._capacity
        if cap is not None and cap < rate - _EPS:
            rate = cap
        flow.rate = rate
        if rate > _EPS:
            self._request_wakeup(self.env.now + flow.remaining / rate)
        else:
            self._wakeup_at = math.inf
        return flow

    def _on_wakeup(self, gen: int) -> None:
        flows = self._flows
        if (len(flows) != 1 or gen != self._timer_gen
                or self.env.now + _EPS < self._wakeup_at):
            _FlowServer._on_wakeup(self, gen)
            return
        # The due wake-up of the only flow: once charged it is done (or
        # has drifted), and an empty device has nothing to reallocate.
        self._timer_at = self._wakeup_at = math.inf
        self._advance()
        flow = flows[0]
        if flow.remaining <= _EPS:
            self._finish(flow)
        else:
            self._reallocate()

    def _register(self, flow: Flow) -> None:
        self._flows.append(flow)

    def _retire(self, flow: Flow) -> None:
        self._flows.remove(flow)

    def _reallocate(self) -> None:
        """One-link progressive filling, then retiming.

        The same float operations, in the same order, as
        :meth:`SharedFabric._reallocate` on a fabric whose only link is
        this device: the device link ranks first, so each round starts
        from the fair share ``left / m`` and each still-unfrozen capped
        flow's private cap link, in submission order, takes over when its
        cap is below the best share so far by more than ``_EPS``. A cap
        link freezes its flow at its cap and charges the device;
        otherwise every remaining flow gets the fair share.
        """
        flows = self._flows
        if not flows:
            self._wakeup_at = math.inf
            return
        left = self._capacity
        pending = flows
        while pending:
            share = left / len(pending)
            winner = None
            for flow in pending:
                cap = flow.cap
                if cap is not None and cap < share - _EPS:
                    share = cap
                    winner = flow
            if winner is None:
                for flow in pending:
                    flow.rate = share
                break
            winner.rate = share
            left = max(0.0, left - share)
            pending = [f for f in pending if f is not winner]
        self._retime()
