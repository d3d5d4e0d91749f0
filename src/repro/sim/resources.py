"""Contended resources, priority resources, stores, and containers.

These are the building blocks the device model is assembled from:

* :class:`Resource` — ``capacity`` concurrent users, FIFO queueing.  The
  PCIe link is a capacity-1 resource (transfers serialise, reproducing the
  paper's Fig. 5 finding); a core partition is a capacity-1 resource per
  place (one kernel at a time per partition, as in hStreams).
* :class:`PriorityResource` — like :class:`Resource` but requests carry a
  priority (lower value = more urgent).
* :class:`Store` — a FIFO buffer of Python objects with blocking put/get;
  used for work queues.
* :class:`Container` — a continuous level (e.g. bytes of device memory).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, URGENT


class Request(Event):
    """A pending claim on a :class:`Resource` (usable as a context manager)."""

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._order = resource._next_order()
        resource._queue_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # A holder torn down while still queued (its process closed
        # mid-wait) withdraws the request: it holds nothing to release.
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Release(Event):
    """Event representing a completed release (triggers immediately)."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._do_release(request)
        self.succeed()


class Resource:
    """A resource shared by up to ``capacity`` concurrent users."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._order_counter = 0
        #: Requests currently holding the resource.
        self.users: list[Request] = []
        #: Waiting requests as a heap of (priority, order, request).
        self._waiting: list[tuple[int, int, Request]] = []
        #: Observers notified as fn(event_name, time, request) where
        #: event_name is "acquire" or "release".  Used by monitors.
        self.observers: list[Callable[[str, float, Request], None]] = []

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} capacity={self._capacity} "
            f"users={len(self.users)} queued={len(self._waiting)}>"
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    def _next_order(self) -> int:
        self._order_counter += 1
        return self._order_counter

    def request(self) -> Request:
        """Claim one unit.  The returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a previously granted ``request``."""
        return Release(self, request)

    # -- internals ---------------------------------------------------------

    def _queue_request(self, request: Request) -> None:
        if not self._waiting and len(self.users) < self._capacity:
            # Free with nobody queued: queueing would pop this request
            # straight back off, so grant it at once.
            self._admit(request)
            return
        heapq.heappush(self._waiting, (request.priority, request._order, request))
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self.users) < self._capacity:
            _, _, request = heapq.heappop(self._waiting)
            if request.triggered:  # cancelled
                continue
            self._admit(request)

    def _admit(self, request: Request) -> None:
        self.users.append(request)
        for observer in self.observers:
            observer("acquire", self.env.now, request)
        request.succeed()

    def _do_release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError(
                "release of a request that does not hold the resource"
            ) from None
        for observer in self.observers:
            observer("release", self.env.now, request)
        self._grant()

    def _cancel(self, request: Request) -> None:
        if request.triggered:
            raise SimulationError("cannot cancel a granted request; release it")
        # Mark cancelled by failing it defused; _grant() skips it.
        request._ok = False
        request._value = SimulationError("request cancelled")
        request._defused = True
        self.env._schedule(request, URGENT, 0.0)


class PriorityRequest(Request):
    """A request with an explicit priority (lower = served first)."""

    __slots__ = ()


class PriorityResource(Resource):
    """A resource whose queue is ordered by request priority, then FIFO."""

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._puts.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._gets.append(self)
        store._dispatch()


class Store:
    """FIFO object buffer with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._puts: list[StorePut] = []
        self._gets: list[StoreGet] = []

    def __repr__(self) -> str:
        return f"<Store items={len(self.items)}/{self.capacity}>"

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; triggers once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the oldest item; triggers once one exists."""
        return StoreGet(self)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and len(self.items) < self.capacity:
                put = self._puts.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._gets and self.items:
                get = self._gets.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._puts.append(self)
        container._dispatch()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._gets.append(self)
        container._dispatch()


class Container:
    """A continuous quantity (e.g. bytes of free device memory)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init must lie in [0, capacity], got {init}")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._puts: list[ContainerPut] = []
        self._gets: list[ContainerGet] = []

    def __repr__(self) -> str:
        return f"<Container level={self._level}/{self.capacity}>"

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; triggers once it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; triggers once the level suffices."""
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._gets and self._gets[0].amount <= self._level:
                get = self._gets.pop(0)
                self._level -= get.amount
                get.succeed()
                progressed = True
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                put = self._puts.pop(0)
                self._level += put.amount
                put.succeed()
                progressed = True
