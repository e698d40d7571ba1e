"""Event primitives for the discrete-event kernel.

The design follows the classic event/process pattern: an :class:`Event` is a
one-shot occurrence with a value (or an exception); a :class:`Process` wraps a
generator that *yields* events and is resumed when each yielded event fires.
Composite conditions (:class:`AllOf` / :class:`AnyOf`) let a process wait for
several events at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from .errors import Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment

#: Sentinel marking an event that has not been triggered yet.
PENDING = object()

#: Scheduling priorities. Lower runs first at equal simulation time.
URGENT = 0
NORMAL = 1
#: Runs after every same-instant NORMAL event: for periodic *controllers*
#: (the serving control loop) that must act on the settled state of their
#: instant — a node restart or an arrival stamped t included, whichever
#: order their events were queued in.
CONTROL = 2
#: Runs after everything else at its instant: for periodic *observers*
#: (heartbeat ticks) that must see the settled state of their instant.
#: Without it, whether a beat at time t notices a submission at time t
#: depends on queue insertion order — a same-timestamp race the sanitizer
#: (``repro lint --sanitize-races``) would flag.
DEFERRED = 3


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event is *triggered* once it has a value (success) or an exception
    (failure) and has been placed on the environment's queue; it is
    *processed* after its callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables ``fn(event)`` invoked when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event has not been triggered")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (already triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # The Event slots, set here rather than through super().__init__:
        # timeouts are the kernel's most common event.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, priority, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A process wraps a generator; the process event fires on return.

    The generator yields :class:`Event` instances. When a yielded event is
    processed the generator is resumed with the event's value (or the event's
    exception is thrown into it). The process itself is an event whose value
    is the generator's return value, so processes can wait on each other.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting for.
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process that
        is waiting on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The exception is now being handled by this process.
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                env._active_proc = None
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_proc = None
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                # Deliver the mistake as a failed pseudo-event so the normal
                # resume path throws it at the faulty yield. Whatever the
                # generator does next — propagate (process fails), return
                # (process succeeds), or recover by yielding a real event —
                # the process event is resolved; a bare ``throw`` here could
                # leave the process pending forever if the generator caught
                # the exception.
                bad_yield = Event(env)
                bad_yield._ok = False
                bad_yield._value = TypeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                bad_yield._defused = True
                event = bad_yield
                continue

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait on it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: consume its outcome immediately.
            event = next_event
            if not event._ok and not event._defused:
                event._defused = True

        env._active_proc = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} {state}>"


class Interruption(Event):
    """Helper event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ("process",)

    def __init__(self, process: Process, cause: Any) -> None:
        super().__init__(process.env)
        self.process = process
        self.callbacks = [self._deliver]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        process.env.schedule(self, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if not process.is_alive:
            return  # finished in the meantime; interrupt is moot
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
            # Nobody is listening to the abandoned wait anymore: give queue
            # events (store gets/puts, resource requests) the chance to
            # withdraw, so e.g. an interrupted Store.get() doesn't later
            # swallow an item no process will ever receive.
            if not target.callbacks and not target.triggered:
                abandon = getattr(target, "abandon", None)
                if abandon is not None:
                    abandon()
        process._target = None
        process._resume(self)


class Condition(Event):
    """Wait for a boolean combination of events.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value, in trigger order.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events or self._evaluate(self._events, 0):
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count as having happened: a Timeout carries
        # its value from construction but has not occurred until its callbacks
        # ran (callbacks is None).
        return {e: e._value for e in self._events if e.callbacks is None and e.triggered}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            was_defused = event._defused
            event._defused = True
            self.fail(event._value)
            if was_defused:
                # A deliberately-defused failure (e.g. a killed task whose
                # killer already acknowledged it) must not resurface as an
                # unhandled crash through a condition nobody awaits anymore.
                self._defused = True
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= len(events), events)


class AnyOf(Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= 1 and len(events) > 0, events)
