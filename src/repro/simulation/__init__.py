"""A deterministic discrete-event simulation kernel.

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(1.0)
        return "done"
    p = env.process(proc(env))
    env.run()           # or env.run(until=10), env.run(until=p)

Processes are generator coroutines yielding :class:`Event` objects; see
:mod:`repro.simulation.events` for composition (``&``/``|``) and
interruption, and :mod:`repro.simulation.resources` for queued resources.
"""

from .core import Environment
from .errors import EmptySchedule, Interrupt, SimulationError
from .events import AllOf, AnyOf, Condition, Event, Process, Timeout
from .resources import LevelContainer, PriorityResource, Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "LevelContainer",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
