"""Shared-resource primitives: counted resources, level containers, stores.

These model mutual exclusion and queueing (e.g. a container slot on a
NodeManager, an RPC handler pool). Continuous *rate-shared* devices (disk
bandwidth, CPU) live in :mod:`repro.cluster.fabric` because they need
processor-sharing semantics rather than queueing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...critical section...
    """

    __slots__ = ("resource", "priority", "time")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.time = resource.env.now
        resource._request(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from the wait queue."""
        if not self.triggered:
            try:
                self.resource.queue.remove(self)
            except ValueError:
                pass

    #: Called by the kernel when an interrupted process abandons this wait.
    abandon = cancel

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.triggered and self._ok:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """A counted resource with ``capacity`` units and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def count(self) -> int:
        """Units currently held."""
        return len(self.users)

    @property
    def available(self) -> int:
        return self.capacity - len(self.users)

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def _request(self, req: Request) -> None:
        self.queue.append(req)
        self._sort_queue()
        self._dispatch()

    def _sort_queue(self) -> None:
        """FIFO resource: insertion order is already correct."""

    def release(self, req: Request) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            raise SimulationError("releasing a request that does not hold the resource") from None
        self._dispatch()

    def _dispatch(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            req = self.queue.pop(0)
            self.users.append(req)
            req.succeed()


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-``priority`` first (FIFO ties)."""

    def _sort_queue(self) -> None:
        self.queue.sort(key=lambda r: (r.priority, r.time))


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "LevelContainer", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "LevelContainer", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount


class LevelContainer:
    """A continuous-level reservoir (e.g. a memory budget in bytes)."""

    def __init__(self, env: "Environment", capacity: float, init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._puts: list[ContainerPut] = []
        self._gets: list[ContainerGet] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        event = ContainerPut(self, amount)
        self._puts.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> ContainerGet:
        event = ContainerGet(self, amount)
        self._gets.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                event = self._puts.pop(0)
                self._level += event.amount
                event.succeed()
                progressed = True
            if self._gets and self._level >= self._gets[0].amount:
                event = self._gets.pop(0)
                self._level -= event.amount
                event.succeed()
                progressed = True


class StorePut(Event):
    __slots__ = ("item", "store")

    def __init__(self, env: "Environment", item: Any,
                 store: Optional["Store"] = None) -> None:
        super().__init__(env)
        self.item = item
        self.store = store

    def abandon(self) -> None:
        """Withdraw an unfulfilled put (interrupted waiter)."""
        if self.store is not None and not self.triggered:
            try:
                self.store._puts.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    __slots__ = ("filter", "store")

    def __init__(self, env: "Environment", filter: Optional[Any] = None,
                 store: Optional["Store"] = None) -> None:
        super().__init__(env)
        self.filter = filter
        self.store = store

    def abandon(self) -> None:
        """Withdraw an unfulfilled get so it cannot swallow future items."""
        if self.store is not None and not self.triggered:
            try:
                self.store._gets.remove(self)
            except ValueError:
                pass


class Store:
    """An unbounded-or-bounded FIFO buffer of Python objects.

    ``get(filter=fn)`` retrieves the first item for which ``fn(item)`` is
    true (filter-store semantics), which the YARN layer uses to match
    heartbeat responses to specific applications.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._puts: list[StorePut] = []
        self._gets: list[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        event = StorePut(self.env, item, store=self)
        self._puts.append(event)
        self._dispatch()
        return event

    def get(self, filter: Optional[Any] = None) -> StoreGet:
        event = StoreGet(self.env, filter, store=self)
        self._gets.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        # Admit queued puts while there is room.
        while self._puts and len(self.items) < self.capacity:
            put = self._puts.pop(0)
            self.items.append(put.item)
            put.succeed()
        # Serve getters in order; a filtered getter only blocks itself.
        served = True
        while served:
            served = False
            for get in list(self._gets):
                index = None
                if get.filter is None:
                    if self.items:
                        index = 0
                else:
                    for i, item in enumerate(self.items):
                        if get.filter(item):
                            index = i
                            break
                if index is not None:
                    item = self.items.pop(index)
                    self._gets.remove(get)
                    get.succeed(item)
                    served = True
            # Room may have been freed for queued puts.
            while self._puts and len(self.items) < self.capacity:
                put = self._puts.pop(0)
                self.items.append(put.item)
                put.succeed()
