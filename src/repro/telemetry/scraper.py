"""Sim-time scraper: samples the registry into bounded ring buffers.

The obvious implementation — a simulation process that wakes every
``scrape_interval_s`` — would *add events to the kernel queue*, shifting
event ids and breaking the guarantee that enabling telemetry leaves runs
byte-identical. Instead the scraper piggybacks on the kernel's pop path:
as each event is popped at time ``when``, any scrape grid points
``anchor + k*interval`` in ``(last, when]`` are sampled and attributed to
their *grid* timestamp. The hook runs before the event's callbacks, so
the registry state it reads is exactly the simulation's step-function
value at every grid point since the previous event — no event is ever
scheduled, so the event sequence (and therefore every digest and
snapshot) is provably identical with telemetry on or off.

The hook itself is the kernel's dedicated ``env.sampler`` slot rather than
the generic ``env.tracers`` list: the kernel's dispatch loop compares the
popped time against ``env.sample_next`` inline, so between grid points an
enabled scraper costs one float compare per event — no function call at
all.

Grid timestamps are computed multiplicatively (``anchor + k * interval``,
never ``+= interval``) so thousand-scrape runs do not accrue float error —
the same lesson the heartbeat wheel learned in PR 7.

Idle gaps are bounded: if the kernel sleeps across more than
``catchup_limit`` grid points, only the first ``catchup_limit`` are sampled
and the rest are counted in :attr:`Scraper.samples_skipped` (the step-function
values in a gap are all equal anyway; only counters pulled mid-gap would
have been interesting, and nothing changes them while no events run).

A scrape costs what it reads. Each instrument's reader is bound once,
with its ring's two ``append`` methods, so a scrape is one call and two
appends per instrument — no property, no key building, no dict lookup.
Instruments registered after :meth:`Scraper.install` (``attach_serving``
adds the serving stack's) are bound at the next scrape, in registration
order, so rings are still created in registry order. Alert rules read a
ring in O(log retention) (:meth:`RingSeries.value_at_or_before` bisects)
or O(N) for its last N samples, never in O(retention).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import islice
from math import isinf, nan
from typing import TYPE_CHECKING, Callable, Optional

from .instruments import LabelSet, TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment


class RingSeries:
    """One bounded time series: parallel (time, value) rings."""

    __slots__ = ("name", "labels", "times", "values")

    def __init__(self, name: str, labels: LabelSet, maxlen: int) -> None:
        self.name = name
        self.labels = labels
        self.times: deque[float] = deque(maxlen=maxlen)
        self.values: deque[float] = deque(maxlen=maxlen)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def value_at_or_before(self, t: float) -> Optional[float]:
        """Latest sample value with timestamp <= ``t`` (None if none).

        Bisects ``times``, which never decrease: grid points only increase,
        and :meth:`Scraper.final_scrape` only appends past the last sample.
        On a non-decreasing ring the bisect returns exactly what a scan from
        the oldest sample would, in O(log retention).
        """
        i = bisect_right(self.times, t)
        return self.values[i - 1] if i else None

    def last_values(self, n: int) -> list[float]:
        """The last ``n`` sample values (oldest first), in O(n)."""
        values = self.values
        return [values[i] for i in range(-min(n, len(values)), 0)]

    def time_weighted_mean(self, until: Optional[float] = None) -> float:
        """Mean of the step function from the first sample to ``until``
        (the last sample by default); 0.0 on an empty ring."""
        times, values = self.times, self.values
        if not times:
            return 0.0
        end = times[-1] if until is None else until
        total = 0.0
        for t0, t1, value in zip(times, islice(times, 1, None), values):
            t1 = min(t1, end)
            if t1 > t0:
                total += value * (t1 - t0)
        if end > times[-1]:
            total += values[-1] * (end - times[-1])
        span = end - times[0]
        return total / span if span > 0 else values[-1]

    def to_dict(self, digits: int = 6) -> dict:
        return {"t": [round(t, digits) for t in self.times],
                "v": [round(v, digits) for v in self.values]}


class Scraper:
    """Samples every registry instrument at the scrape grid points."""

    def __init__(self, env: Environment, registry: TelemetryRegistry, *,
                 interval_s: float, retention: int,
                 catchup_limit: int = 8) -> None:
        if interval_s <= 0:
            raise ValueError("scrape interval must be positive")
        if retention < 1:
            raise ValueError("retention must be at least one sample")
        self.env = env
        self.registry = registry
        self.interval_s = float(interval_s)
        self.retention = retention
        self.catchup_limit = max(1, catchup_limit)
        self._anchor = env.now
        self._k = 1  # next grid index: anchor + k * interval
        # Cached next-due timestamp, mirrored into ``env.sample_next`` so
        # the kernel's inline compare needs no arithmetic.
        self._next_t = self._anchor + self.interval_s
        #: Grid timestamp of the sample being taken; ``None`` between.
        self._sampling: Optional[float] = None
        self.scrapes_done = 0
        self.samples_skipped = 0
        self._series: dict[tuple, RingSeries] = {}
        #: (instrument reader, append to its ring's times, append to its
        #: values), in registration order; :meth:`_bind` extends it as the
        #: registry grows.
        self._bound: list[tuple] = []
        #: Called with the grid timestamp after each scrape (alert engine).
        self.on_scrape: list[Callable[[float], None]] = []
        self._installed = False
        # One stable bound-method object: ``self._on_due`` evaluates to a
        # *fresh* bound method each access, so identity checks against
        # whatever was stored in ``env.sampler`` need this cached one.
        self._hook = self._on_due

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Attach the kernel sampler slot. Idempotent."""
        if self._installed:
            return
        if self.env.sampler is not None:
            raise RuntimeError("another sampler is already installed on "
                               "this environment")
        self.env.sampler = self._hook
        self.env.sample_next = self._next_t
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            if self.env.sampler is self._hook:
                self.env.sampler = None
                self.env.sample_next = nan
            self._installed = False

    # -- sampling -----------------------------------------------------------
    def _next_due(self) -> float:
        return self._anchor + self._k * self.interval_s

    def _on_due(self, when: float) -> None:
        """Kernel calls this only once ``when`` crosses the next grid point."""
        due = self._next_due()
        emitted = 0
        while due <= when and emitted < self.catchup_limit:
            self.sample(due)
            self._k += 1
            emitted += 1
            due = self._next_due()
        if due <= when:
            if isinf(when):
                # Popped at the end of time (``run(until=inf)``): the rest
                # of the gap never ends, so it is not counted, and a NaN
                # due point stops the kernel from calling back.
                due = nan
            else:
                # Idle gap longer than the catch-up budget: skip forward so
                # the next samples stay on the grid.
                skipped = int((when - due) // self.interval_s) + 1
                self.samples_skipped += skipped
                self._k += skipped
                due = self._next_due()
        self._next_t = due
        if self._installed:
            self.env.sample_next = due

    def read_time(self) -> float:
        """The instant a pull instrument reports on: the grid timestamp of
        the sample being taken, else the current simulated time.

        A sample at grid point t is taken when the first event at or after
        t is popped, so ``env.now`` may lie past t — by how much depends on
        how dense the events are. Instruments that depend on time itself
        (cadences, "seconds since") must read this instead, or a no-op
        event could change a sample.
        """
        return self.env.now if self._sampling is None else self._sampling

    def _bind(self) -> None:
        """Give every instrument registered since the last bind its ring."""
        for instrument in islice(self.registry, len(self._bound), None):
            ring = RingSeries(instrument.name, instrument.labels,
                              self.retention)
            self._series[(instrument.name, instrument.labels)] = ring
            self._bound.append((instrument.reader(), ring.times.append,
                                ring.values.append))

    def sample(self, t: float) -> None:
        """Read every instrument once, stamping samples with ``t``."""
        if len(self._bound) != len(self.registry):
            self._bind()
        self._sampling = t
        for read, append_t, append_v in self._bound:
            value = float(read())
            append_t(t)
            append_v(value)
        self._sampling = None
        self.scrapes_done += 1
        for hook in self.on_scrape:
            hook(t)

    def final_scrape(self) -> None:
        """One closing sample at the current sim time (end of run); none
        after ``run(until=inf)``, whose clock stops at ``inf``."""
        now = self.env.now
        if isinf(now):
            return
        for ring in self._series.values():
            if ring.times and ring.times[-1] >= now:
                return
        self.sample(now)

    # -- access -------------------------------------------------------------
    def series(self, name: str, labels: LabelSet | dict[str, str] = ()
               ) -> Optional[RingSeries]:
        if isinstance(labels, dict):
            labels = tuple(sorted(labels.items()))
        return self._series.get((name, labels))

    def all_series(self) -> list[RingSeries]:
        """Every ring, in first-sample (registration) order."""
        return list(self._series.values())

    def retained_samples(self) -> int:
        return sum(len(ring) for ring in self._series.values())

    def ring_bytes_estimate(self) -> int:
        """Rough retention footprint: two floats + deque overhead each."""
        return self.retained_samples() * 2 * 8 + len(self._series) * 256
