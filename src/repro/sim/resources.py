"""Contended resources.

A :class:`Resource` admits ``capacity`` concurrent users and queues the
rest in request order.  The device model is assembled from capacity-1
resources: the PCIe link (transfers serialise, reproducing the paper's
Fig. 5 finding) and one per core partition (one kernel at a time per
partition, as in hStreams).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, URGENT


class Request(Event):
    """A pending claim on a :class:`Resource` (usable as a context manager)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # A holder torn down while still queued (its process closed
        # mid-wait) withdraws the request: it holds nothing to release.
        # A withdrawn request (triggered, failed) holds nothing either.
        if not self.triggered:
            self.cancel()
        elif self._ok:
            self.resource.release(self)

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
        self.capacity = capacity
        #: Requests currently holding the resource.
        self.users: list[Request] = []
        #: Waiting requests in request order; a withdrawn one stays
        #: until it reaches the front, where it is skipped.
        self._waiting: deque[Request] = deque()
        #: Withdrawn requests still in ``_waiting``.
        self._withdrawn = 0

    def __repr__(self) -> str:
        return (
            f"<Resource capacity={self.capacity} "
            f"users={len(self.users)} queued={self.queued}>"
        )

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting) - self._withdrawn

    def request(self) -> Request:
        """Claim one unit.  The returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a previously granted ``request``."""
        return Release(self, request)

    # -- internals ---------------------------------------------------------

    def _queue_request(self, request: Request) -> None:
        if not self._waiting and len(self.users) < self.capacity:
            # Free with nobody queued: queueing would pop this request
            # straight back off, so grant it at once.
            self.users.append(request)
            request.succeed()
            return
        self._waiting.append(request)
        self._grant()

    def _grant(self) -> None:
        waiting = self._waiting
        while waiting and len(self.users) < self.capacity:
            request = waiting.popleft()
            if request.triggered:  # cancelled
                self._withdrawn -= 1
                continue
            self.users.append(request)
            request.succeed()

    def _do_release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError(
                "release of a request that does not hold the resource"
            ) from None
        self._grant()

    def _cancel(self, request: Request) -> None:
        if request.triggered:
            raise SimulationError("cannot cancel a granted request; release it")
        # Mark cancelled by failing it defused; _grant() skips it.
        self._withdrawn += 1
        request._ok = False
        request._value = SimulationError("request cancelled")
        request._defused = True
        self.env._schedule(request, URGENT, 0.0)
