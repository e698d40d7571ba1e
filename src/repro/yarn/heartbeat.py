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
  is released while AMs wait, and when a node is added — counts the beats
  slept through in one sum over the phase index and arms the earliest
  beat at or after now. It touches no other node: a *walk* over the
  phase index, in time order from the phase of the wake, lets each node
  into the beat queue only when the ticks reach its first beat. Until
  then its beat count and latest beat stay on paper, read off the grid at
  the wake instant as an asleep node's are at the read time. A beat on
  the instant of the wake is still delivered, and, being ``DEFERRED``, it
  sees the work.

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


def _grid_index(anchor: float, t: float, period: float) -> int:
    """The minimal k >= 0 with ``anchor + k*period >= t``.

    Scalar twin of :func:`_grid_indices`: Python floats are IEEE doubles
    and ``k * period`` converts k exactly, so every comparison is the one
    the array pass makes.
    """
    k = max(math.ceil((_finite(t) - anchor) / period), 0)
    while anchor + k * period < t:
        k += 1
    while k > 0 and anchor + (k - 1) * period >= t:
        k -= 1
    return k


def _grid_indices(anchors: np.ndarray, t: float, period: float) -> np.ndarray:
    """:func:`_grid_index` of every anchor (as floats)."""
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


def _split(t: float, period: float) -> tuple[int, float, float]:
    """``t`` in whole periods and a phase in [0, 1), and how far, in
    periods, a float phase or grid point near ``t`` may stray from its
    real value.

    The float phases and the grid predicate's two roundings each stray by
    at most 2**-53 * |t/period| periods: 2**-48 per period leaves an
    eightfold margin.
    """
    periods = _finite(t) / period
    whole = math.floor(periods)
    return whole, periods - whole, (abs(periods) + 2.0) * 2.0 ** -48


class HeartbeatWheel:
    """Aggregated heartbeat timer for all NodeManagers of one RM.

    Per-node state is columnar, one slot per registration (slots are never
    reused, so the slot is also the tie-break between same-instant beats):
    the node's *anchor* (its first-ever beat; it never changes, so resume()
    lands back on the same grid), ``k`` (beats counted so far; the next
    fire is ``anchor + k*period``), ``last`` (instant of the latest counted
    beat) and ``token`` (cancellation id of the queued beat, ``None`` while
    suspended). An active node's ``k`` and ``last`` may lag: it also made
    every beat before the latest wake, on paper (:meth:`_paper_k`).
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
        #: The wake in which the slot's beat was last queued; a slot whose
        #: number is not ``_epoch`` is on paper until the walk reaches it.
        self._queued: list[int] = []
        self._epoch = 0
        #: Anchors and the active mask as arrays, for bulk reads: written
        #: in place for the first ``_columned`` slots, and extended by the
        #: slots registered since on the next bulk read (:meth:`_columns`).
        self._anchors = np.zeros(0)
        self._active = np.zeros(0, dtype=bool)
        self._columned = 0
        #: Heap of queued beats ``(fire, slot, token)`` while awake: every
        #: active slot the walk has reached exactly once, plus the beats of
        #: suspended slots, whose tokens sit in ``_cancelled`` until they
        #: reach the top. All three are dropped on falling asleep.
        self._queue: list[tuple[float, int, int]] = []
        self._cancelled: set[int] = set()
        self._walk: Optional[_Walk] = None
        self._tokens = count()
        self._asleep = False
        #: Instants with a tick on the kernel queue — normally just the
        #: earliest pending one (a register/resume can add an earlier one).
        self._armed: set[float] = set()
        #: Beats delivered, plus beats slept through up to the latest
        #: wake; :meth:`beats_before` adds the rest while asleep.
        self._counted = 0
        #: Sum of the active slots' beat counts, paper ones included, the
        #: instant the wheel last fell asleep and the latest wake.
        self._active_k = 0
        self._slept_at = -math.inf
        self._woke_at = env.now
        #: Every anchor indexed by phase, weighed by the active mask: sorted
        #: on the first read after a registration, re-weighed in place.
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
        self._queued.append(-1)
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
        self._k[slot] = _grid_index(self._anchor[slot], self._env.now,
                                    self._period)
        self._schedule(slot)

    def wake(self) -> None:
        """Work was enqueued: deliver beats again, from now on.

        The beats slept through are counted in one sum over the phase
        index (:meth:`_grid_sum`), and the walk starts at the phase of now:
        only the nodes whose first beat at or after now is the earliest
        enter the beat queue, and that instant is armed. Every other node
        stays on paper until the ticks reach it. Cheap no-op while awake.
        """
        if not self._asleep:
            return
        now = self._env.now
        if now > self._slept_at:
            # Every active slot's count is at most its grid index at now.
            skipped = self._grid_sum(now) - self._active_k
            self._counted += skipped
            self._active_k += skipped
        # Woken on the instant it fell asleep, every active slot has
        # counted its beats before now already (those of now, too, if it
        # was due then), so none is skipped.
        self._woke_at = now
        self._asleep = False
        self._epoch += 1
        self._walk = _Walk(self._index(), now, self._period)
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
        ids, period = self._ids, self._period
        anchors, active = self._columns()
        ks = np.array(self._k, dtype=np.float64)
        grid = _grid_indices(anchors, t if self._asleep else self._woke_at,
                             period)
        lasts = np.where(active & (grid > ks),
                         anchors + (grid - 1) * period,
                         np.array(self._last, dtype=np.float64))
        lasts = np.where(lasts > _NEVER, lasts, 0.0)
        return [ids[slot] for slot in np.flatnonzero(t - lasts > quiet_s).tolist()
                if ids[slot] is not None]

    def last_beat(self, node_id: str) -> Optional[float]:
        """Instant of the node's latest beat; ``None`` for a node that never
        beat or is not on the wheel."""
        slot = self._slot.get(node_id)
        if slot is None:
            return None
        last = self._last[slot]
        if self._token[slot] is not None:
            k = self._paper_k(slot)
            if k > self._k[slot]:
                last = self._anchor[slot] + (k - 1) * self._period
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
        return self._anchor[slot] + max(self._k[slot], self._paper_k(slot)) \
            * self._period

    # -- grid arithmetic -----------------------------------------------------
    def _paper_k(self, slot: int) -> int:
        """The active slot's beats on paper: before now while asleep, before
        the latest wake until the walk reaches it; 0 once it has."""
        if self._asleep:
            return _grid_index(self._anchor[slot], self._env.now, self._period)
        if self._queued[slot] == self._epoch:
            return 0
        return _grid_index(self._anchor[slot], self._woke_at, self._period)

    def _grid_sum(self, t: float) -> int:
        """Sum of the active slots' grid indices at ``t``.

        With a = period * (w + f), w whole and f in [0, 1), and t likewise
        split into n and f_t, an anchor before ``t + period`` has grid
        index ``max(ceil((t - a) / period), 0) = n - w + [f < f_t]``.
        Summed over the phase-sorted index that is whole periods plus one
        bisect. The identity is exact in real numbers; in floats only an
        anchor whose phase lies within rounding distance of f_t (mod 1)
        can disagree, so those are re-counted with the exact grid
        predicate. A read while some anchor lies a period or more ahead,
        where the identity does not hold, takes the column pass.
        """
        period = self._period
        if self._latest_anchor >= t + period:
            anchors, active = self._columns()
            return int(_grid_indices(anchors, t, period)[active].sum())
        index = self._index()
        n, f_t, tol = _split(t, period)
        phases = index.phases
        lo, hi = bisect_left(phases, f_t - tol), bisect_right(phases, f_t + tol)
        total = (index.size * n - index.wholes_sum
                 + int(index.below[bisect_left(phases, f_t, lo, hi)]))
        for i in index.near(lo, hi, f_t, tol):
            mult = int(index.mults[i])
            if mult:
                guess = n - index.wholes[i] + (phases[i] < f_t)
                exact = _grid_index(index.anchors[i], t, period)
                total += mult * (exact - guess)
        return total

    def _index(self) -> "_PhaseIndex":
        if self._phases is None:
            self._phases = _PhaseIndex(*self._columns(), self._period)
        return self._phases

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Every slot's anchor and active flag, as arrays."""
        n, done = len(self._ids), self._columned
        if done < n:
            if n > len(self._anchors):
                self._anchors = _grown(self._anchors, n)
                self._active = _grown(self._active, n)
            self._anchors[done:n] = self._anchor[done:]
            self._active[done:n] = [token is not None
                                    for token in self._token[done:]]
            self._columned = n
        return self._anchors[:n], self._active[:n]

    def _advance(self, slot: int, k: int) -> int:
        """Write the beats ``slot`` made on paper into its ``k`` and
        ``last``, up to grid index ``k``; returns how many."""
        skipped = k - self._k[slot]
        if skipped <= 0:
            return 0
        self._last[slot] = self._anchor[slot] + (k - 1) * self._period
        self._k[slot] = k
        return skipped

    # -- timer machinery -----------------------------------------------------
    def _schedule(self, slot: int) -> None:
        """Activate ``slot`` with its next beat at ``anchor + k*period``."""
        token = self._token[slot] = next(self._tokens)
        if slot < self._columned:
            self._active[slot] = True
        self._active_k += self._k[slot]
        if self._phases is not None:
            self._phases.weigh(slot, 1)
        if self._asleep:
            return  # beats on paper until wake()
        fire = self._anchor[slot] + self._k[slot] * self._period
        heappush(self._queue, (fire, slot, token))
        self._queued[slot] = self._epoch
        if not any(t <= fire for t in self._armed):
            self._arm(fire)

    def _stop(self, slot: int) -> None:
        """Deactivate ``slot``; its beats so far stay counted."""
        anchor, period = self._anchor[slot], self._period
        # Its beats before the latest wake are counted already; those
        # since, asleep, are not.
        self._advance(slot, _grid_index(anchor, self._woke_at, period))
        if self._asleep:
            skipped = self._advance(
                slot, _grid_index(anchor, self._env.now, period))
            self._counted += skipped
            self._active_k += skipped
        elif self._queued[slot] == self._epoch:
            self._cancelled.add(self._token[slot])
        self._token[slot] = None
        if slot < self._columned:
            self._active[slot] = False
        self._active_k -= self._k[slot]
        if self._phases is not None:
            self._phases.weigh(slot, -1)

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
        """Queue every beat due by the earliest one, and arm that instant.

        The walk lets in each phase-index entry whose first beat since the
        wake is not after the queue's head: afterwards every node still on
        paper beats strictly later than every instant the ticks serve.
        """
        head = self._head()
        walk = self._walk
        while walk is not None:
            due = walk.due()
            if due is None:
                walk = self._walk = None
            elif head is not None and due > head:
                break
            else:
                self._admit(walk)
                head = self._head()
        if head is not None and not any(t <= head for t in self._armed):
            self._arm(head)

    def _admit(self, walk: "_Walk") -> None:
        """Queue the first beat since the wake of every slot of the walk's
        next entry that is active and still on paper."""
        slots, anchor, k = walk.take()
        period, epoch = self._period, self._epoch
        for slot in slots:
            token = self._token[slot]
            if token is None or self._queued[slot] == epoch:
                continue
            self._advance(slot, k)
            heappush(self._queue, (anchor + self._k[slot] * period, slot, token))
            self._queued[slot] = epoch

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
                # idle too, so count them now. Nodes the walk has not
                # reached stay on paper.
                while self._count_due(now) is not None:
                    pass
                self._queue = []
                self._cancelled = set()
                self._walk = None
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


def _grown(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` with room for ``size`` slots, or twice as many as now."""
    grown = np.zeros(max(2 * len(column), size), dtype=column.dtype)
    grown[:len(column)] = column
    return grown


class _PhaseIndex:
    """Every slot's anchor, sorted by phase within the period.

    Each anchor ``a`` is split into whole periods ``w = floor(a/period)``
    and a phase ``f = a/period - w``. Equal anchors (a quantum cohort)
    have equal phases, so sorted by phase a cohort is one run, split only
    where a different anchor has the very same phase; each run is one
    entry, and ``slots(i)`` are its slots in registration order.
    ``mults[i]`` is the entry's number of active slots and ``below[i]``
    the active slots of the first i entries, so the active anchors with
    phase below f are ``below[bisect_left(phases, f)]``. Suspending or
    resuming a node re-weighs its entry in place (:meth:`weigh`); only a
    new anchor re-sorts them. ``phases`` is a list, which ``bisect``
    searches fastest.
    """

    __slots__ = ("order", "starts", "entry_of", "anchors", "wholes", "phases",
                 "mults", "below", "size", "wholes_sum")

    def __init__(self, anchors: np.ndarray, active: np.ndarray,
                 period: float) -> None:
        periods = anchors / period
        wholes = np.floor(periods)
        phases = periods - wholes
        # Stable, so that each entry's slots stay in registration order;
        # the default sort would also map another ~0.3 MB of numpy's sort
        # code into the process.
        order = phases.argsort(kind="stable")
        ordered = anchors[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        entry_of = np.empty(len(order), dtype=np.intp)
        entry_of[order] = first.cumsum() - 1
        starts = first.nonzero()[0]
        entries = order[starts]
        self.order: list[int] = order.tolist()
        self.starts: list[int] = starts.tolist() + [len(order)]
        #: Slot -> its entry.
        self.entry_of: list[int] = entry_of.tolist()
        self.anchors: list[float] = anchors[entries].tolist()
        whole = wholes[entries].astype(np.int64)
        self.wholes: list[int] = whole.tolist()
        self.phases: list[float] = phases[entries].tolist()
        self.mults = np.bincount(entry_of[active], minlength=len(entries))
        self.below = np.concatenate(([0], self.mults.cumsum()))
        self.size = int(self.below[-1])
        self.wholes_sum = int(whole @ self.mults)

    def slots(self, i: int) -> list[int]:
        return self.order[self.starts[i]:self.starts[i + 1]]

    def weigh(self, slot: int, delta: int) -> None:
        """Count ``slot`` in (``delta`` 1) or out (-1) of the active ones."""
        i = self.entry_of[slot]
        self.mults[i] += delta
        self.below[i + 1:] += delta
        self.size += delta
        self.wholes_sum += delta * self.wholes[i]

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


class _Walk:
    """One wake's walk over the phase index: each entry's first beat at or
    after the wake instant, in time order.

    Sorted by phase, starting at the phase of the wake, the entries' first
    beats since the wake rise with their position, except where rounding
    blurs it: within ``tol`` of the start either side of a whole period
    may hold, and further on two entries' beats may swap only when their
    phases lie within ``tol`` of each other. So :meth:`due` computes the
    exact first beat of entries in position order, into a small heap,
    until the next position lies beyond the heap's earliest by more than
    that; an anchor registered a period or more ahead only beats later
    than its position says.
    """

    __slots__ = ("index", "woke_at", "period", "tol", "base", "start", "pos",
                 "pending")

    def __init__(self, index: _PhaseIndex, woke_at: float, period: float) -> None:
        self.index = index
        self.woke_at = woke_at
        self.period = period
        _, phase, self.tol = _split(woke_at, period)
        # The walk starts tol before the wake's phase, mod 1.
        self.base = phase if phase >= self.tol else phase + 1.0
        self.start = bisect_left(index.phases, self.base - self.tol)
        #: Positions walked, and their entries' first beats not yet taken
        #: as ``(fire, entry, k)``.
        self.pos = 0
        self.pending: list[tuple[float, int, int]] = []

    def due(self) -> Optional[float]:
        """The earliest first beat of the entries not yet taken; ``None``
        once every entry is."""
        phases, pending, period = self.index.phases, self.pending, self.period
        size = len(phases)
        while self.pos < size:
            entry = self.start + self.pos
            # Phase past the wake's, in periods.
            ahead = (phases[entry] - self.base if entry < size
                     else phases[entry - size] + 1.0 - self.base)
            if pending and ahead > ((pending[0][0] - self.woke_at) / period
                                    + 2.0 * self.tol):
                break
            entry %= size
            anchor = self.index.anchors[entry]
            k = _grid_index(anchor, self.woke_at, period)
            heappush(pending, (anchor + k * period, entry, k))
            self.pos += 1
        return pending[0][0] if pending else None

    def take(self) -> tuple[list[int], float, int]:
        """The earliest entry's slots, anchor and grid index at the wake."""
        _, entry, k = heappop(self.pending)
        return self.index.slots(entry), self.index.anchors[entry], k
