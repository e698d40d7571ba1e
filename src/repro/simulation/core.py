"""The simulation :class:`Environment`: clock, event queue, run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import nan
from typing import Any, Callable, Generator, Iterable, Optional, Union

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import NORMAL, AllOf, AnyOf, Event, Process, Timeout

#: Tie-break among same-(time, priority) entries: the insertion counter,
#: or ``(random bits, counter)`` under the race sanitizer's permutation.
#: Unique either way, so the event itself is never compared.
Tie = Union[int, tuple[int, int]]
#: One kernel queue entry: ``(time, priority, tie-break, event)``.
QueueEntry = tuple[float, int, Tie, Event]


class Environment:
    """Execution environment for a single discrete-event simulation.

    Time is a float in *seconds* by convention throughout this project.
    Events are processed in (time, priority, insertion-order) order, which
    makes runs fully deterministic. The queue is one flat binary heap of
    :data:`QueueEntry` tuples: it rarely holds more than a few dozen
    entries, so ``heapq`` beats any bucketed structure in front of it.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[QueueEntry] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Count of events dispatched by :meth:`step` since construction —
        #: the numerator of the bench harness's events/s throughput gates.
        self.events_processed = 0
        #: Optional callables ``fn(time, event)`` invoked as each event is
        #: popped; used by tracing/monitoring utilities.
        self.tracers: list[Callable[[float, Event], None]] = []
        #: Span tracer (:class:`repro.observe.Tracer`) or ``None``. Every
        #: instrumentation site in the stack guards on ``is not None``, so
        #: the default costs one attribute read per site and nothing else.
        self.tracer: Optional[Any] = None
        #: Telemetry facade (:class:`repro.telemetry.Telemetry`) or ``None``.
        #: Same zero-overhead-when-disabled discipline as ``tracer``: push
        #: sites guard on ``is not None``, and the scraper samples from the
        #: :attr:`sampler` hook so enabling it adds no events to the queue.
        self.telemetry: Optional[Any] = None
        #: Telemetry scraper fast path. :meth:`step` compares each popped
        #: event's time against :attr:`sample_next` inline — one attribute
        #: read and one float compare — and calls ``sampler(when)`` only
        #: when a scrape grid point is due. Kept separate from
        #: :attr:`tracers` because routing the scraper through that list
        #: would pay a function call on *every* event just to return. With
        #: no sampler installed it is NaN, which no time compares at or
        #: above — ``inf`` included, so ``run(until=inf)`` never calls the
        #: empty slot.
        self.sampler: Optional[Callable[[float], None]] = None
        self.sample_next = nan

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` units from now."""
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Queue ``event`` at the *absolute* time ``at`` (>= now).

        Unlike :meth:`schedule`, the timestamp is used exactly as given —
        no ``now + delay`` round-trip — so periodic machinery (the NM
        heartbeat wheel) can hit grid points like ``anchor + k*period``
        without accruing float error.
        """
        if at < self._now:
            raise ValueError(f"schedule_at({at}) lies in the past (now={self._now})")
        heappush(self._queue, (at, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event.

        An unhandled failed event (no process caught it and nobody defused
        it) re-raises its exception here, crashing the simulation — mirrors
        an uncaught exception in a real daemon thread.
        """
        try:
            when, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        self._now = when
        self.events_processed += 1
        if when >= self.sample_next:
            self.sampler(when)
        if self.tracers:
            for tracer in self.tracers:
                tracer(when, event)

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        * ``until is None`` — run until no events remain.
        * ``until`` is a number — run to that simulation time.
        * ``until`` is an :class:`Event` — run until it fires and return its
          value.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed: nothing to run.
                    if not stop._ok:
                        raise stop._value
                    return stop._value
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} lies in the past (now={self._now})")
                stop = Timeout(self, at - self._now)
            stop.callbacks.append(_stop_simulation)  # type: ignore[union-attr]

        try:
            while True:
                self.step()
        except StopSimulation as exc:
            return exc.value
        except EmptySchedule:
            if stop is not None and not stop.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the schedule before the event fired"
                ) from None
            return None


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    raise event._value
