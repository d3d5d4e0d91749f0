"""Generator-coroutine processes.

A process wraps a generator that ``yield``\\ s :class:`~repro.sim.core.Event`
instances.  Each yield suspends the process until the event is processed;
the event's value is sent back into the generator (or its exception thrown
in).  A :class:`Process` is itself an event that triggers when the generator
finishes, so processes can wait on each other.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, NORMAL, URGENT, _PENDING


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The value passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """An event that drives a generator coroutine to completion."""

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(
        self, env: Environment, generator: Generator[Event, Any, Any]
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"process() expects a generator, got {generator!r}"
            )
        super().__init__(env)
        env.processes_started += 1
        self._generator = generator
        #: The event this process is currently waiting on (None when the
        #: process is scheduled to resume or has finished).
        self._target: Event | None = None
        #: Resumption is the engine's hottest callback; creating the bound
        #: method once (instead of on every append/remove) is measurable.
        #: It refers back to the process, so it is dropped when the
        #: generator finishes: a finished process is then freed by
        #: reference counting instead of waiting for the cyclic GC.
        self._resume_cb = self._resume

        # Kick-start the generator via an immediate initialisation event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)  # type: ignore[union-attr]
        env._schedule(init, URGENT, 0.0)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Event | None:
        """The event this process is waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (if any) and resumes
        with the exception.  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already terminated")
        interrupt = Event(self.env)
        interrupt._ok = False
        interrupt._value = Interrupt(cause)
        interrupt._defused = True
        interrupt.callbacks.append(self._resume_cb)  # type: ignore[union-attr]
        self.env._schedule(interrupt, URGENT, 0.0)

    # -- engine ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome."""
        if self._value is not _PENDING:
            # Interrupted after normal termination was scheduled, or a
            # stale wake-up: nothing to do.
            return
        env = self.env
        env.active_process = self

        # Detach from the previous target: if this wake-up is an interrupt,
        # the old target may still fire later; ignore it then.
        target = self._target
        if target is not None and target is not event:
            target_callbacks = target.callbacks
            if target_callbacks is not None:
                try:
                    target_callbacks.remove(self._resume_cb)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None

        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event._defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            env.active_process = None
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env.active_process = None
            self._resume_cb = None
            self.fail(exc)
            return
        env.active_process = None

        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self!r} yielded a non-event: {next_target!r}"
            )
        next_callbacks = next_target.callbacks
        if next_callbacks is None:
            # Already processed: resume immediately (at the current time).
            wake = Event(env)
            wake._ok = next_target._ok
            wake._value = next_target._value
            if not next_target._ok:
                next_target._defused = True
                wake._defused = True
            wake.callbacks.append(self._resume_cb)  # type: ignore[union-attr]
            env._schedule(wake, NORMAL, 0.0)
        else:
            self._target = next_target
            next_callbacks.append(self._resume_cb)
