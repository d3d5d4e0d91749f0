"""Event heap, virtual clock, and the base :class:`Event` type.

The engine executes *events* in non-decreasing time order.  Ties are broken
by scheduling priority, then by insertion order, which makes every run of a
given program bit-for-bit deterministic.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.errors import SimulationError

#: Scheduling priorities.  ``URGENT`` events at time *t* run before
#: ``NORMAL`` events at the same *t* — used internally so resource
#: bookkeeping happens before user processes resume.
URGENT: int = 0
NORMAL: int = 1

#: Sentinel value stored in ``Event._value`` before the event triggers.
_PENDING = object()


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded/failed more than once."""


class EmptySchedule(SimulationError):
    """``run()`` was asked to advance but no events remain."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* when given a value via
    :meth:`succeed` / :meth:`fail` (which also schedules it), and becomes
    *processed* once the environment has run its callbacks.  Processes wait
    on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: Callables invoked with the event when it is processed.  ``None``
        #: once processed.
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        If no waiter handles (defuses) the failure, the exception is
        re-raised out of :meth:`Environment.step` to surface the bug.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def defused(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        # Timeouts are created by the tens of thousands in a sweep, so the
        # Event.__init__ + _schedule chain is inlined here (same fields,
        # same heap entry — just without two extra function calls).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heapq.heappush(
            env._queue, (env._now + delay, NORMAL, env._eid, self)
        )
        env._eid += 1
        if len(env._queue) > env.max_queue_depth:
            env.max_queue_depth = len(env._queue)


class Environment:
    """The simulation environment: virtual clock plus event heap."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Heap entries: (time, priority, sequence, event).
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self.active_process: "Process | None" = None
        # Engine totals, published to the metrics registry at the end of
        # a run (see repro.metrics.instrument.record_environment).  Kept
        # as plain ints so the hot loop pays one attribute increment,
        # never a lock or a dict lookup.
        self.events_processed = 0
        self.processes_started = 0
        self.max_queue_depth = 0

    def __repr__(self) -> str:
        return f"<Environment now={self._now:.9f} pending={len(self._queue)}>"

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> "Process":
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> "AllOf":
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> "AnyOf":
        return AnyOf(self, list(events))

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self,
        event: Event,
        priority: int,
        delay: float,
        _heappush: Callable[..., None] = heapq.heappush,
    ) -> None:
        _heappush(
            self._queue, (self._now + delay, priority, self._eid, event)
        )
        self._eid += 1
        if len(self._queue) > self.max_queue_depth:
            self.max_queue_depth = len(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no events scheduled") from None
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An un-handled failure: surface it instead of silently
            # continuing with a broken model.
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until ``until``.

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed and return
          its value (re-raising its exception if it failed).
        """
        stop_at = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.processed:
                return until.value if until.ok else _reraise(until.value)

            def _stop(event: Event) -> None:
                raise StopSimulation(event)

            assert until.callbacks is not None
            until.callbacks.append(_stop)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not lie in the past "
                    f"(now={self._now})"
                )

        # Hot path: this loop dominates every simulation, so the heap, the
        # pop, and the per-event dispatch from step() are inlined with
        # everything bound to locals (the list object in _queue is only
        # ever mutated, never replaced, so the local binding stays valid).
        # The unbounded case (run to exhaustion / until an event, i.e.
        # stop_at == inf) additionally skips the per-event deadline check.
        queue = self._queue
        heappop = heapq.heappop
        bounded = stop_at != float("inf")
        # Dispatch count is accumulated in a local and folded into the
        # engine total in the finally block, so the metrics cost per
        # event is one local integer add.
        processed = 0
        try:
            if bounded:
                while queue and queue[0][0] <= stop_at:
                    when, _, _, event = heappop(queue)
                    self._now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event._defused:
                        # An un-handled failure: surface it instead of
                        # silently continuing with a broken model.
                        raise event._value
            else:
                while queue:
                    when, _, _, event = heappop(queue)
                    self._now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
        except StopSimulation as stop:
            event = stop.value
            if not event.ok:
                event.defused()
                _reraise(event.value)
            return event.value
        finally:
            self.events_processed += processed

        if isinstance(until, Event) and not until.processed:
            raise SimulationError(
                "run() ran out of events before `until` was triggered"
            )
        if until is not None and not isinstance(until, Event):
            self._now = stop_at
        return None


def _reraise(exc: BaseException) -> Any:
    raise exc


# The event subclasses below build on this module's names, so they are
# bound last (a call-time import would cost every process start).
from repro.sim.process import Process  # noqa: E402
from repro.sim.sync import AllOf, AnyOf  # noqa: E402
