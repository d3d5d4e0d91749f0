"""The all-of join: one event over a fixed set of child events."""

from __future__ import annotations

from collections.abc import Iterable

from repro.sim.core import Environment, Event


class AllOf(Event):
    """Triggers once *all* child events have been processed successfully.

    Its value maps each child event to its value.  The first child to fail
    fails it with that child's exception; a later failure is defused.
    """

    __slots__ = ("_events", "_processed_ok")

    def __init__(self, env: Environment, events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._processed_ok = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

        for event in self._events:
            if event.callbacks is None:
                # Already processed before the join was created.
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)
        if not self._events:
            self.succeed({})

    def _on_child(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if not self.triggered:
                self.fail(event._value)
            return
        self._processed_ok += 1
        if not self.triggered and self._processed_ok == len(self._events):
            self.succeed({e: e._value for e in self._events})
