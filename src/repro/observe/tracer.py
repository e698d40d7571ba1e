"""The span tracer.

A :class:`Tracer` collects three kinds of records from a simulated run:

* **spans** — named intervals ``[start, end]`` with a category, a process
  key (``node``, one Perfetto *pid* per cluster machine), a lane (``lane``,
  one Perfetto *tid* per container/daemon), optional parent links, and
  free-form args;
* **instants** — zero-duration marks (fault injections, AM placements and
  restarts, map recoveries, fetch failures, node blacklisting, AM-pool
  healing);
* **metrics** — telemetry :class:`~repro.telemetry.instruments.Counter` and
  :class:`~repro.telemetry.instruments.Histogram` instruments in a
  :class:`~repro.telemetry.instruments.TelemetryRegistry` (kernel events
  dispatched, RM heartbeats served, scheduler grant queue delays, fabric
  flows completed, ...); the pushed ones register on first use.

Spans come in two flavors. ``sync`` spans live on one lane and are properly
nested there (a task's ``read`` inside the task's root span) — they export
as Chrome trace-event ``B``/``E`` pairs. ``async`` spans may overlap freely
(concurrent fabric flows on one device) and export as ``b``/``e`` async
events.

The tracer is attached to a simulation by :func:`install_tracer`, which sets
``env.tracer`` and registers the kernel dispatch hook. Instrumentation sites
throughout the stack guard on ``env.tracer is not None`` — with no tracer
installed (the default everywhere, including every figure and benchmark
path) they cost one attribute read and change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..telemetry.instruments import Counter, Histogram, TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster
    from ..simulation.core import Environment

#: Process key for cluster-level activity not tied to one machine (the
#: client, the RM, the fault injector, job root spans).
CLUSTER = "cluster"

SYNC = "sync"
ASYNC = "async"


@dataclass
class Span:
    """One traced interval. ``end is None`` while the span is open."""

    sid: int
    name: str
    cat: str
    node: str              # process key (machine id, or CLUSTER)
    lane: str              # thread key (container / daemon / task lane)
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None   # sid of the enclosing span, if recorded
    flavor: str = SYNC
    args: dict[str, Any] = field(default_factory=dict)

    def covers(self, t: float, eps: float = 1e-9) -> bool:
        return self.end is not None and self.start <= t + eps and t <= self.end + eps


@dataclass
class Instant:
    """A zero-duration mark (rendered as a Perfetto instant event)."""

    name: str
    cat: str
    node: str
    lane: str
    ts: float
    args: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans, instants, and metrics from one simulated run.

    ``kernel:events_dispatched`` is a pull counter: the kernel's own
    ``events_processed`` minus its value at install, read whenever the
    counter is read, so no callback runs per event.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = TelemetryRegistry()
        at_install = env.events_processed
        self.metrics.counter("kernel:events_dispatched",
                             "Kernel events dispatched since install",
                             fn=lambda: env.events_processed - at_install)
        self._next_sid = 1

    # -- metrics -------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter ``name``, registered on first use."""
        counter = self.metrics.get(name)
        return counter if counter is not None else self.metrics.counter(name, name)

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name``, registered on first use."""
        histogram = self.metrics.get(name)
        return (histogram if histogram is not None
                else self.metrics.histogram(name, name))

    def metrics_snapshot(self) -> dict[str, Any]:
        """Counter values and histogram summaries, each sorted by name."""
        counters: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for instrument in self.metrics:
            if isinstance(instrument, Histogram):
                histograms[instrument.name] = {
                    "count": instrument.count, "min": instrument.min,
                    "max": instrument.max, "mean": instrument.mean,
                    "sum": instrument.sum}
            else:
                counters[instrument.name] = instrument.value
        return {"counters": dict(sorted(counters.items())),
                "histograms": dict(sorted(histograms.items()))}

    # -- span API -----------------------------------------------------------
    def begin(self, name: str, cat: str, node: str, lane: str,
              parent: Optional[Span] = None, **args: Any) -> Span:
        """Open a span now; close it with :meth:`end`."""
        span = Span(self._next_sid, name, cat, node, lane, self.env.now,
                    parent=parent.sid if parent is not None else None,
                    args=args)
        self._next_sid += 1
        self.spans.append(span)
        return span

    def end(self, span: Span) -> Span:
        if span.end is None:
            span.end = self.env.now
        return span

    def complete(self, name: str, cat: str, node: str, lane: str,
                 start: float, end: Optional[float] = None,
                 parent: Optional[Span] = None, **args: Any) -> Span:
        """Record a span retrospectively (``end`` defaults to now)."""
        span = Span(self._next_sid, name, cat, node, lane, start,
                    end=self.env.now if end is None else end,
                    parent=parent.sid if parent is not None else None,
                    args=args)
        self._next_sid += 1
        self.spans.append(span)
        return span

    def async_complete(self, name: str, cat: str, node: str, lane: str,
                       start: float, end: Optional[float] = None,
                       **args: Any) -> Span:
        """Record a possibly-overlapping span (fabric flows)."""
        span = self.complete(name, cat, node, lane, start, end, **args)
        span.flavor = ASYNC
        return span

    def instant(self, name: str, cat: str, node: str, lane: str, /,
                **args: Any) -> Instant:
        """Record a mark now. The four record fields are positional-only,
        so ``args`` may carry keys of the same names (``node=...``)."""
        mark = Instant(name, cat, node, lane, self.env.now, args=args)
        self.instants.append(mark)
        return mark

    # -- views -------------------------------------------------------------
    def closed_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]


def install_tracer(cluster: "SimCluster") -> Tracer:
    """Create a tracer, attach it to ``cluster``'s environment, return it.

    After this every instrumentation site in the simulator (kernel, RM,
    scheduler, NMs, AMs, task bodies, fabric, fault injector) starts
    emitting into the returned tracer.
    """
    tracer = Tracer(cluster.env)
    cluster.env.tracer = tracer
    return tracer
