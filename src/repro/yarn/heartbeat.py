"""Batched, phase-staggered NodeManager heartbeat wheel that sleeps when idle.

Before this module each NodeManager ran its own kernel process::

    yield timeout(offset % period)
    while True:
        rm.node_heartbeat(node_id)
        yield timeout(period)

which costs one generator resume + one Timeout allocation + one queue push
per node per period — the dominant event source on a 10,000-node cluster —
and has two latent bugs this module fixes:

* **Float-error accrual.** Summing ``timeout(period)`` per tick makes the
  k-th beat ``fl(...fl(fl(t0 + p) + p)... )``: k roundings, so at large sim
  times neighbouring nodes' beat order can flip across runs/platforms (the
  MR104 float-time class). The wheel schedules beat *k* at the exact grid
  point ``anchor + k*period`` — one rounding, independent of k — and lands
  the kernel event on that timestamp exactly via ``schedule_at``.
* **Phase loss on rejoin.** ``NodeManager.restart`` used to spawn a fresh
  loop, so a node crashed at ``t`` rejoined with its first beat at
  ``t_restart + offset`` — after a churn plan's mass rejoin, previously
  staggered nodes re-synchronize into a thundering herd. The wheel keeps
  each node's *anchor* forever: a resumed node fires at the next grid point
  of its **original** phase.

One wheel serves every node of an RM. It keeps the pending beats in its
own queue, ordered by (fire instant, registration order), and arms one
kernel tick at a time: at the earliest pending instant. A tick delivers
every beat due at its instant, in registration order. Ticks are
``DEFERRED`` events, so a beat at time t runs after every NORMAL and
CONTROL event queued for instant t, however early or late its tick was
queued: the beat order does not depend on when a tick is armed. (The
only other ``DEFERRED`` event, the MRapid proxy's warm-AM serve, touches
no RM state.) Dead (``fail``) and drained nodes are *suspended*: their
queued beat is cancelled and no beat is delivered until ``resume``.

**Sleep/wake contract.** On a short-job cluster almost every beat has
nothing to place. The owner passes a ``busy`` predicate, evaluated before
each beat is delivered. The RM's is "could a beat place anything?": a
container ask is queued, or a queued AM fits under the AM limit
(maximum-am-resource-percent). An overloaded cluster at its AM limit
thus sleeps too, though its AM queue is full:

* The first beat that finds ``busy()`` false puts the wheel to sleep. That
  beat, and every other beat due at the same instant, is counted but not
  delivered, and no further tick is armed.
* Asleep, the wheel schedules nothing, but the nodes keep beating on
  paper: :attr:`heartbeats_delivered` and :meth:`last_beat` report the
  beats every active node made at grid instants before the read time.
* :meth:`wake` — called wherever ``busy()`` can turn true: the RM calls
  it when it enqueues an AM or leaves an ask queued, when an AM container
  is released while AMs wait, and when a node is added — fast-forwards
  every active node to its next grid point at or after now, counting the
  beats it skipped, and arms the earliest. A beat on the instant of the
  wake is still delivered, and, being ``DEFERRED``, it sees the work.

The owner guarantees that a beat which finds ``busy()`` false would have
been a no-op apart from recording the beat, and that ``busy()`` cannot
turn true without a ``wake()``. With ``busy=None`` the wheel
never sleeps and delivers every beat — the reference the sleeping wheel
is tested against (same working beats, same counts, same beat times).

``quantum > 0`` (``HadoopConfig.nm_heartbeat_quantum_s``) snaps anchors
onto a coarse phase grid so thousands of nodes share fire times and one
aggregate tick serves whole cohorts. The default 0.0 keeps every node's
exact legacy phase (byte-identical figure snapshots); the scale benchmarks
opt in.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..simulation.events import DEFERRED, Event

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment

#: ``last`` of a node that has not beaten yet.
_NEVER = -math.inf


def _finite(t: float) -> float:
    """``t`` itself; the beat grid has no index at inf or NaN (after
    ``run(until=inf)`` the clock reads inf)."""
    if not math.isfinite(t):
        raise ValueError(f"heartbeat grid read at non-finite t={t}")
    return t


class HeartbeatWheel:
    """Aggregated heartbeat timer for all NodeManagers of one RM.

    Per-node state is columnar, one slot per registration (slots are never
    reused, so the slot is also the tie-break between same-instant beats):
    the node's *anchor* (its first-ever beat; it never changes, so resume()
    lands back on the same grid), ``k`` (beats counted so far; the next
    fire is ``anchor + k*period``), ``last`` (instant of the latest counted
    beat) and ``token`` (cancellation id of the queued beat, ``None`` while
    suspended).
    """

    def __init__(self, env: "Environment", period: float,
                 deliver: Callable[[str], None], quantum: float = 0.0,
                 busy: Optional[Callable[[], bool]] = None) -> None:
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive, got {period}")
        if quantum < 0:
            raise ValueError(f"heartbeat quantum cannot be negative, got {quantum}")
        self._env = env
        self._period = period
        self._quantum = quantum
        self._deliver = deliver
        self._busy = busy
        self._slot: dict[str, int] = {}
        #: Slot -> node id; ``None`` once unregistered.
        self._ids: list[Optional[str]] = []
        self._anchor: list[float] = []
        self._k: list[int] = []
        self._last: list[float] = []
        self._token: list[Optional[int]] = []
        #: Heap of queued beats ``(fire, slot, token)`` while awake: every
        #: active slot exactly once, plus the beats of suspended slots,
        #: whose tokens sit in ``_cancelled`` until they reach the top.
        #: Both are emptied on falling asleep; wake() rebuilds the heap.
        self._queue: list[tuple[float, int, int]] = []
        self._cancelled: set[int] = set()
        self._tokens = count()
        self._asleep = False
        #: Instants with a tick on the kernel queue — normally just the
        #: earliest pending one (a register/resume can add an earlier one).
        self._armed: set[float] = set()
        #: Beats delivered, plus beats slept through up to the last
        #: fast-forward; :meth:`beats_before` adds the rest while asleep.
        self._counted = 0
        #: Sum of ``k`` over the active slots, and the instant the wheel
        #: last fell asleep: beats_before() needs no per-slot ``k`` then.
        self._active_k = 0
        self._slept_at = -math.inf
        #: ids, anchors, active and registered masks as arrays, for bulk
        #: reads; rebuilt after a membership change.
        self._arrays: Optional[tuple[np.ndarray, ...]] = None
        #: Every anchor indexed by phase, for :meth:`beats_before` while
        #: asleep: sorted on the first read after a registration, weighed
        #: by the active mask on the first read after any membership change.
        self._phases: Optional[_PhaseIndex] = None
        #: The latest anchor ever registered: no node beats before it.
        self._latest_anchor = -math.inf
        self.ticks = 0

    # -- membership ---------------------------------------------------------
    def register(self, node_id: str, offset: float = 0.0) -> None:
        """Start heartbeating ``node_id``; first beat at ``now + offset%period``.

        Matches the legacy per-process semantics exactly: a node registered
        at time t with phase offset o beats at ``t + o%p, +p, +2p, ...``.
        """
        if node_id in self._slot:
            raise ValueError(f"node {node_id!r} already on the heartbeat wheel")
        anchor = self._env.now + (offset % self._period)
        if self._quantum > 0:
            # Snap to the quantum grid, always forward (never before now).
            anchor = math.ceil(anchor / self._quantum) * self._quantum
        slot = len(self._ids)
        self._slot[node_id] = slot
        self._ids.append(node_id)
        self._anchor.append(anchor)
        self._k.append(0)
        self._last.append(_NEVER)
        self._token.append(None)
        self._phases = None
        self._latest_anchor = max(self._latest_anchor, anchor)
        self._schedule(slot)

    def unregister(self, node_id: str) -> None:
        """Forget ``node_id`` entirely (decommission)."""
        slot = self._slot.pop(node_id, None)
        if slot is None:
            return
        if self._token[slot] is not None:
            self._stop(slot)
        self._ids[slot] = None
        self._arrays = None

    def suspend(self, node_id: str) -> None:
        """Stop delivering beats (node died or was drained). Idempotent."""
        slot = self._slot.get(node_id)
        if slot is not None and self._token[slot] is not None:
            self._stop(slot)

    def resume(self, node_id: str) -> None:
        """Resume beats on the node's *original* phase grid.

        The next beat is the earliest ``anchor + k*period >= now`` — not
        ``now + offset`` — so a mass rejoin after churn keeps the fleet's
        stagger instead of synchronizing into a thundering herd.
        """
        slot = self._slot.get(node_id)
        if slot is None:
            raise KeyError(f"node {node_id!r} is not on the heartbeat wheel")
        if self._token[slot] is not None:
            return  # already beating
        self._k[slot] = self._grid_index(self._anchor[slot], self._env.now)
        self._schedule(slot)

    def wake(self) -> None:
        """Work was enqueued: deliver beats again, from now on.

        Every active node is fast-forwarded to its next grid point at or
        after now (the beats it skipped are counted), and the earliest of
        those instants is armed. One pass over the columns: the grid rule
        runs as array arithmetic (``anchor + k*period`` in float64 is the
        same number as in Python), and the emptied queue becomes the
        ``(fire, slot, token)`` entries sorted by key, a valid heap — no
        per-node fast-forward or push runs in Python. Cheap no-op while
        awake.
        """
        if not self._asleep:
            return
        self._asleep = False
        _, anchors, active, _ = self._membership_arrays()
        period = self._period
        ks = np.array(self._k, dtype=np.float64)
        grid = np.where(active, np.maximum(
            self._grid_indices(anchors, self._env.now), ks), ks)
        skipped = int((grid - ks).sum())
        if skipped:
            self._counted += skipped
            self._active_k += skipped
            self._last = np.where(grid > ks, anchors + (grid - 1) * period,
                                  self._last).tolist()
            self._k = grid.astype(np.int64).tolist()
        slots = active.nonzero()[0]
        fires = anchors[slots] + grid[slots] * period
        order = fires.argsort(kind="stable")
        slots = slots[order].tolist()
        self._queue = list(zip(fires[order].tolist(), slots,
                               map(self._token.__getitem__, slots)))
        self._arm_head()

    # -- introspection -------------------------------------------------------
    @property
    def asleep(self) -> bool:
        return self._asleep

    @property
    def heartbeats_delivered(self) -> int:
        """Beats made so far, delivered or slept through."""
        return self.beats_before(self._env.now)

    def beats_before(self, t: float) -> int:
        """Beats made at instants before ``t``.

        ``t`` lies between the last processed event and now — a scrape's
        grid timestamp, for instance: every delivered beat precedes it.
        """
        if not self._asleep or t <= self._slept_at:
            return self._counted
        # Past the instant it fell asleep, every active slot has at least
        # its k beats at instants before t, so the slept-through beats are
        # sum(grid index at t) - sum(k) over the active slots.
        return self._counted + self._grid_sum(t) - self._active_k

    def silent_nodes(self, t: float, quiet_s: float) -> list[str]:
        """Nodes whose latest beat before ``t`` is more than ``quiet_s`` old
        (``t - last > quiet_s``), in registration order; a node that never
        beat counts as having beaten at 0.0, as ``NodeState.last_heartbeat``
        reports it. One pass over the columns: a staleness probe on a
        10k-node cluster asks about every node."""
        ids, anchors, active, registered = self._membership_arrays()
        lasts = np.array(self._last, dtype=np.float64)
        if self._asleep:
            ks = np.array(self._k, dtype=np.float64)
            grid = self._grid_indices(anchors, t)
            lasts = np.where(active & (grid > ks),
                             anchors + (grid - 1) * self._period, lasts)
        lasts = np.where(lasts > _NEVER, lasts, 0.0)
        return ids[registered & (t - lasts > quiet_s)].tolist()

    def last_beat(self, node_id: str) -> Optional[float]:
        """Instant of the node's latest beat; ``None`` for a node that never
        beat or is not on the wheel."""
        slot = self._slot.get(node_id)
        if slot is None:
            return None
        last = self._last_before(slot, self._env.now)
        return last if last > _NEVER else None

    def is_active(self, node_id: str) -> bool:
        slot = self._slot.get(node_id)
        return slot is not None and self._token[slot] is not None

    def anchor_of(self, node_id: str) -> float:
        return self._anchor[self._slot[node_id]]

    def next_fire(self, node_id: str) -> Optional[float]:
        """Next beat time for an active node, ``None`` while suspended."""
        slot = self._slot[node_id]
        if self._token[slot] is None:
            return None
        anchor, k = self._anchor[slot], self._k[slot]
        if self._asleep:
            k = max(k, self._grid_index(anchor, self._env.now))
        return anchor + k * self._period

    # -- grid arithmetic -----------------------------------------------------
    def _grid_index(self, anchor: float, t: float) -> int:
        """The minimal k >= 0 with ``anchor + k*period >= t``.

        Scalar twin of :meth:`_grid_indices`: Python floats are IEEE
        doubles and ``k * period`` converts k exactly, so every comparison
        is the one the array pass makes.
        """
        period = self._period
        k = max(math.ceil((_finite(t) - anchor) / period), 0)
        while anchor + k * period < t:
            k += 1
        while k > 0 and anchor + (k - 1) * period >= t:
            k -= 1
        return k

    def _grid_indices(self, anchors: np.ndarray, t: float) -> np.ndarray:
        """:meth:`_grid_index` of every anchor (as floats)."""
        period = self._period
        k = np.maximum(np.ceil((_finite(t) - anchors) / period), 0.0)
        # ceil() on floats can land one grid point off; settle on the
        # minimal k exactly.
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

    def _grid_sum(self, t: float) -> int:
        """Sum of the active slots' grid indices at ``t``.

        With a = period * (w + f), w whole and f in [0, 1), and t likewise
        split into n and f_t, an anchor before t has grid index
        ``ceil((t - a) / period) = n - w + [f < f_t]``. Summed over the
        phase-sorted index that is whole periods plus one bisect. The
        identity is exact in real numbers; in floats only an anchor whose
        phase lies within rounding distance of f_t (mod 1) can disagree,
        so those are re-counted with the exact grid predicate. A read at or
        before the latest registered anchor, where the identity may not
        hold, takes the column pass.
        """
        _, anchors, active, _ = self._membership_arrays()
        if t <= self._latest_anchor:
            return int(self._grid_indices(anchors, t)[active].sum())
        index = self._phases
        if index is None:
            index = self._phases = _PhaseIndex(anchors, self._period)
        if index.active is not active:
            index.weigh(active)
        periods = _finite(t) / self._period
        n = math.floor(periods)
        f_t = periods - n
        # The float phases and the grid predicate's two roundings each
        # stray from their real values by at most 2**-53 * |t/period|
        # periods: 2**-48 per period leaves an eightfold margin on the sum.
        tol = (abs(periods) + 2.0) * 2.0 ** -48
        phases = index.phases
        lo, hi = bisect_left(phases, f_t - tol), bisect_right(phases, f_t + tol)
        total = (index.size * n - index.wholes_sum
                 + int(index.below[bisect_left(phases, f_t, lo, hi)]))
        for i in index.near(lo, hi, f_t, tol):
            mult = int(index.mults[i])
            if mult:
                guess = n - int(index.wholes[i]) + (phases[i] < f_t)
                exact = self._grid_index(float(index.anchors[i]), t)
                total += mult * (exact - guess)
        return total

    def _last_before(self, slot: int, t: float) -> float:
        """Instant of the slot's latest beat before ``t`` (``_NEVER``: none)."""
        last = self._last[slot]
        if self._asleep and self._token[slot] is not None:
            k = self._grid_index(self._anchor[slot], t)
            if k > self._k[slot]:
                last = self._anchor[slot] + (k - 1) * self._period
        return last

    def _membership_arrays(self) -> tuple[np.ndarray, ...]:
        """ids, anchors, and the active and registered masks as arrays."""
        if self._arrays is None:
            ids = np.array(self._ids, dtype=object)
            self._arrays = (
                ids, np.array(self._anchor, dtype=np.float64),
                np.array([token is not None for token in self._token],
                         dtype=bool),
                np.not_equal(ids, None))
        return self._arrays

    def _fast_forward(self, slot: int, k: int) -> None:
        """Count the beats ``slot`` made asleep, at instants before now;
        ``k`` is its grid index at now."""
        skipped = k - self._k[slot]
        if skipped > 0:
            self._counted += skipped
            self._active_k += skipped
            self._last[slot] = self._anchor[slot] + (k - 1) * self._period
            self._k[slot] = k

    # -- timer machinery -----------------------------------------------------
    def _schedule(self, slot: int) -> None:
        """Activate ``slot`` with its next beat at ``anchor + k*period``."""
        token = self._token[slot] = next(self._tokens)
        self._active_k += self._k[slot]
        self._arrays = None
        if self._asleep:
            return  # beats on paper until wake()
        fire = self._anchor[slot] + self._k[slot] * self._period
        heappush(self._queue, (fire, slot, token))
        if not any(t <= fire for t in self._armed):
            self._arm(fire)

    def _stop(self, slot: int) -> None:
        """Deactivate ``slot``; its beats so far stay counted."""
        if self._asleep:
            self._fast_forward(
                slot, self._grid_index(self._anchor[slot], self._env.now))
        else:
            self._cancelled.add(self._token[slot])
        self._token[slot] = None
        self._active_k -= self._k[slot]
        self._arrays = None

    def _head(self) -> Optional[float]:
        """Fire time of the earliest live queued beat; drops the cancelled
        beats ahead of it."""
        queue, cancelled = self._queue, self._cancelled
        while queue:
            if not cancelled or queue[0][2] not in cancelled:
                return queue[0][0]
            cancelled.discard(heappop(queue)[2])
        return None

    def _arm_head(self) -> None:
        head = self._head()
        if head is not None and not any(t <= head for t in self._armed):
            self._arm(head)

    def _arm(self, when: float) -> None:
        """Put a tick on the kernel queue for beat instant ``when``."""
        self._armed.add(when)
        tick = Event(self._env)
        tick._value = None  # pre-triggered, like a Timeout
        tick.callbacks.append(self._make_fire(when))
        # DEFERRED: a beat at time t reports the node's *settled* state at
        # t. Submissions, releases and completions stamped t must be
        # visible to it no matter which order their events were queued in.
        self._env.schedule_at(tick, when, priority=DEFERRED)

    def _make_fire(self, when: float) -> Callable[[Event], None]:
        def fire(_event: Event) -> None:
            self._fire(when)

        return fire

    def _fire(self, now: float) -> None:
        self.ticks += 1
        busy = self._busy
        while not self._asleep:
            slot = self._count_due(now)
            if slot is None:
                break
            if busy is not None and not busy():
                # Asleep from here; the rest of this instant's beats are
                # idle too, so count them now.
                while self._count_due(now) is not None:
                    pass
                self._queue = []
                self._cancelled = set()
                self._asleep = True
                self._slept_at = now
                break
            # Queue the successor before delivering: if the delivery
            # suspends the node, suspend() cancels the successor.
            heappush(self._queue,
                     (self._anchor[slot] + self._k[slot] * self._period,
                      slot, self._token[slot]))
            self._deliver(self._ids[slot])
        # Discarded only now: a resume() during a delivery that lands on
        # this very instant is served by the loop above, not a second tick.
        self._armed.discard(now)
        if not self._asleep:
            self._arm_head()

    def _count_due(self, now: float) -> Optional[int]:
        """Pop and count the next beat due at ``now``; its slot, or None."""
        due = self._head()
        if due is None or due > now:
            return None
        slot = heappop(self._queue)[1]
        self._k[slot] += 1
        self._last[slot] = now
        self._counted += 1
        self._active_k += 1
        return slot


class _PhaseIndex:
    """Every slot's anchor, sorted by phase within the period.

    Each anchor ``a`` is split into whole periods ``w = floor(a/period)``
    and a phase ``f = a/period - w``. Equal anchors (a quantum cohort)
    have equal phases, so sorted by phase a cohort is one run, split only
    where a different anchor has the very same phase; each run is one
    entry. :meth:`weigh` gives each entry its number of active slots and
    ``below[i]`` the active slots of the first i entries, so the active
    anchors with phase below f are ``below[bisect_left(phases, f)]``.
    Suspending or resuming a node re-weighs the entries; only a new anchor
    re-sorts them. ``phases`` is a list, which ``bisect`` searches
    fastest; a read touches one or two entries of the other columns.
    """

    __slots__ = ("entry_of", "anchors", "wholes", "phases", "active",
                 "mults", "below", "size", "wholes_sum")

    def __init__(self, anchors: np.ndarray, period: float) -> None:
        periods = anchors / period
        wholes = np.floor(periods)
        phases = periods - wholes
        # The stable sort is the one wake() already uses; the default one
        # would map another ~0.3 MB of numpy's sort code into the process.
        order = phases.argsort(kind="stable")
        ordered = anchors[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        #: Slot -> its entry.
        self.entry_of = np.empty(len(order), dtype=np.intp)
        self.entry_of[order] = first.cumsum() - 1
        entries = order[first]
        self.anchors = anchors[entries]
        self.wholes = wholes[entries].astype(np.int64)
        self.phases = phases[entries].tolist()
        self.active: Optional[np.ndarray] = None

    def weigh(self, active: np.ndarray) -> None:
        """Count the slots of ``active`` (the wheel's active mask) only."""
        self.active = active
        self.mults = np.bincount(self.entry_of[active],
                                 minlength=len(self.anchors))
        self.below = np.concatenate(([0], self.mults.cumsum()))
        self.size = int(self.below[-1])
        self.wholes_sum = int(self.wholes @ self.mults)

    def near(self, lo: int, hi: int, f: float, tol: float) -> list[int]:
        """Entries whose phase lies within ``tol`` of ``f``, mod 1, given
        ``lo, hi``: the entries' bounds for ``f - tol`` and ``f + tol``."""
        phases = self.phases
        if 2 * tol >= 1:
            return list(range(len(phases)))
        near = list(range(lo, hi))
        if f - tol < 0:
            near += range(bisect_left(phases, f - tol + 1), len(phases))
        if f + tol >= 1:
            near += range(bisect_right(phases, f + tol - 1))
        return near
