"""The span tracer and metrics registry.

A :class:`Tracer` collects three kinds of records from a simulated run:

* **spans** — named intervals ``[start, end]`` with a category, a process
  key (``node``, one Perfetto *pid* per cluster machine), a lane (``lane``,
  one Perfetto *tid* per container/daemon), optional parent links, and
  free-form args;
* **instants** — zero-duration marks (fault injections, scheduler grants);
* **metrics** — monotonic counters and value histograms in a
  :class:`MetricsRegistry` (kernel events dispatched, RM heartbeats served,
  scheduler grant queue delays, fabric flows completed, ...).

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

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

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


class MetricsRegistry:
    """Counters and histograms keyed by name.

    Given an environment, the registry also reports
    ``kernel:events_dispatched``: the kernel's own ``events_processed``
    minus its value when the registry was made, read whenever the
    counters are read, so no callback runs per event.
    """

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}
        self._env = env
        self._events_at_install = env.events_processed if env is not None else 0

    def _read_kernel(self) -> None:
        if self._env is not None:
            self.counters["kernel:events_dispatched"] = float(
                self._env.events_processed - self._events_at_install)

    def incr(self, name: str, by: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + by

    def observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, []).append(float(value))

    def counter(self, name: str) -> float:
        self._read_kernel()
        return self.counters.get(name, 0.0)

    def histogram_summary(self, name: str) -> dict[str, float]:
        values = self.histograms.get(name, [])
        if not values:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "sum": 0.0}
        total = sum(values)
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": total / len(values),
            "sum": total,
        }

    def snapshot(self) -> dict[str, Any]:
        self._read_kernel()
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {name: self.histogram_summary(name)
                           for name in sorted(self.histograms)},
        }


class Tracer:
    """Collects spans, instants, and metrics from one simulated run."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry(env)
        self._next_sid = 1

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

    def instant(self, name: str, cat: str, node: str, lane: str,
                **args: Any) -> Instant:
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
