"""Instrument primitives: counters, gauges, bucketed histograms, registry.

The registry follows the zero-overhead-when-disabled discipline of the
PR 3 tracer: nothing here schedules events or touches the kernel, and push
sites in the stack guard on ``env.telemetry is not None``, so a disabled
run pays one attribute read per site. Instruments are deliberately tiny —
plain Python, ``__slots__``, no locks (the simulator is single-threaded) —
because the scraper reads every one of them on each scrape.

Two source styles coexist:

* **push** — code calls :meth:`Counter.inc` / :meth:`Gauge.set` /
  :meth:`Histogram.observe` at the instrumented site;
* **pull** — the instrument wraps a zero-argument callable read at scrape
  time (e.g. ``lambda: env.events_processed``). Pull sources keep hot
  paths untouched: the kernel counts events anyway, telemetry just reads
  the number. Pull counters must be monotonic; the exporter relies on it.

Naming follows OpenMetrics conventions: snake_case, unit as a suffix
(``_seconds``, ``_mb``), no ``_total`` suffix on the *instrument* name —
the exporter appends it to counter samples.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Optional, Sequence

#: Label sets are stored as sorted tuples of (key, value) so identity and
#: export order never depend on dict insertion or hash order.
LabelSet = tuple[tuple[str, str], ...]

#: Default histogram buckets (seconds): spans RPC latencies through
#: multi-minute waits. Upper bounds are inclusive, OpenMetrics-style.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def make_labels(labels: Optional[dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic count; either pushed via :meth:`inc` or pulled from ``fn``."""

    __slots__ = ("name", "help", "unit", "labels", "_value", "_fn")

    kind = "counter"

    def __init__(self, name: str, help_text: str, unit: str = "",
                 labels: Optional[dict[str, str]] = None,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.help = help_text
        self.unit = unit
        self.labels = make_labels(labels)
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def reader(self) -> Callable[[], float]:
        """What :attr:`value` reads, as one call (before its ``float()``)."""
        return self._fn if self._fn is not None else lambda: self._value


class Gauge:
    """Point-in-time value; pushed via :meth:`set` or pulled from ``fn``."""

    __slots__ = ("name", "help", "unit", "labels", "_value", "_fn")

    kind = "gauge"

    def __init__(self, name: str, help_text: str, unit: str = "",
                 labels: Optional[dict[str, str]] = None,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.help = help_text
        self.unit = unit
        self.labels = make_labels(labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def reader(self) -> Callable[[], float]:
        """What :attr:`value` reads, as one call (before its ``float()``)."""
        return self._fn if self._fn is not None else lambda: self._value


class Histogram:
    """Cumulative-bucket histogram with a deterministic quantile estimate.

    ``bounds`` are inclusive upper edges; an implicit +Inf bucket catches
    the rest. :meth:`quantile` interpolates linearly inside the target
    bucket (exact observed min/max clamp the edges), which bounds its error
    by one bucket width — the differential test against
    :func:`repro.metrics.exact_percentile` pins that bound.
    """

    __slots__ = ("name", "help", "unit", "labels", "bounds", "counts",
                 "sum", "count", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, help_text: str, unit: str = "",
                 labels: Optional[dict[str, str]] = None,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram bounds must be strictly increasing, got {bounds}")
        self.name = name
        self.help = help_text
        self.unit = unit
        self.labels = make_labels(labels)
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0
        #: Exact observed extremes (+/-inf until the first observation).
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def value(self) -> float:
        """Scrape value of a histogram series: its observation count."""
        return float(self.count)

    def reader(self) -> Callable[[], float]:
        """What :attr:`value` reads, as one call (before its ``float()``)."""
        return lambda: self.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """OpenMetrics ``_bucket`` rows: (le, cumulative count), +Inf last."""
        rows: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            rows.append((bound, running))
        rows.append((float("inf"), running + self.counts[-1]))
        return rows

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) from the buckets."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        target = q / 100.0 * self.count
        running = 0
        lower = self.min
        for bound, n in zip(self.bounds, self.counts):
            if n:
                upper = min(bound, self.max)
                if running + n >= target:
                    frac = (target - running) / n
                    return max(lower, min(upper, lower + frac * (upper - lower)))
                running += n
                lower = max(lower, upper)
        return self.max


Instrument = "Counter | Gauge | Histogram"


class TelemetryRegistry:
    """Ordered collection of instruments, keyed by (name, labels).

    Registration order is export/scrape order, so every artifact derived
    from the registry (OpenMetrics text, JSONL, ring buffers, Perfetto
    counter tracks) is deterministic and independent of hash seeds.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelSet],
                                Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}

    def _register(self, instrument: Counter | Gauge | Histogram) -> None:
        key = (instrument.name, instrument.labels)
        if key in self._instruments:
            raise ValueError(f"duplicate instrument {instrument.name} {instrument.labels}")
        seen = self._kinds.get(instrument.name)
        if seen is not None and seen != instrument.kind:
            raise ValueError(f"instrument {instrument.name} registered as both "
                             f"{seen} and {instrument.kind}")
        self._kinds[instrument.name] = instrument.kind
        self._instruments[key] = instrument

    def counter(self, name: str, help_text: str, unit: str = "",
                labels: Optional[dict[str, str]] = None,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        c = Counter(name, help_text, unit, labels, fn)
        self._register(c)
        return c

    def gauge(self, name: str, help_text: str, unit: str = "",
              labels: Optional[dict[str, str]] = None,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        g = Gauge(name, help_text, unit, labels, fn)
        self._register(g)
        return g

    def histogram(self, name: str, help_text: str, unit: str = "",
                  labels: Optional[dict[str, str]] = None,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        h = Histogram(name, help_text, unit, labels, bounds)
        self._register(h)
        return h

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str, labels: Optional[dict[str, str]] = None
            ) -> Optional[Counter | Gauge | Histogram]:
        return self._instruments.get((name, make_labels(labels)))

    def families(self) -> list[tuple[str, list[Counter | Gauge | Histogram]]]:
        """Instruments grouped by metric name, in registration order."""
        grouped: dict[str, list[Counter | Gauge | Histogram]] = {}
        for instrument in self._instruments.values():
            grouped.setdefault(instrument.name, []).append(instrument)
        return list(grouped.items())
