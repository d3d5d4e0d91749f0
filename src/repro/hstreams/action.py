"""Actions: the units of work enqueued into streams.

Each action is backed by a simulation process that

1. waits for its FIFO predecessor in the same stream,
2. waits for its explicit cross-stream dependencies (paying the
   cross-device sync cost if any dependency ran in another domain),
3. pays the host dispatch overhead,
4. performs its payload — occupying the device's PCIe link (transfers) or
   its place's partition (kernels) for the modelled duration, and moving /
   computing real data when the buffers are real,
5. triggers its ``done`` event and appends a trace record.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.device.compute import KernelWork
from repro.device.pcie import TransferDirection
from repro.errors import FaultInjectedError
from repro.faults import maybe_fail
from repro.hstreams.buffer import Buffer
from repro.hstreams.enums import ActionKind
from repro.hstreams.errors import HstreamsError
from repro.metrics.instrument import (
    observe_action,
    observe_enqueue,
    observe_fault,
)
from repro.sim import Event
from repro.trace.events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.hstreams.stream import Stream

#: Things accepted as dependencies: other actions or raw events.
Dependency = "Action | Event"


class Action:
    """One enqueued operation: transfer, kernel invocation, or marker."""

    def __init__(
        self,
        stream: "Stream",
        kind: ActionKind,
        *,
        deps: tuple[Any, ...] = (),
        buffer: Buffer | None = None,
        offset: int = 0,
        count: int | None = None,
        work: KernelWork | None = None,
        fn: Callable[[], None] | None = None,
        label: str = "",
    ) -> None:
        ctx = stream.ctx
        env = ctx.env
        self.stream = stream
        self.kind = kind
        self.buffer = buffer
        self.offset = offset
        self.count = count
        # Fail fast: a bad element range is a programming error and
        # should surface at enqueue, not at simulated run time.  The
        # payload size is fixed from here on.
        self._nbytes = (
            buffer.range_bytes(offset, count) if buffer is not None else 0
        )
        self.work = work
        self.fn = fn
        # The member's own attribute: ``kind.value`` is an enum property,
        # an order of magnitude slower on this per-action path.
        kind_name = kind._value_
        self.label = label or (
            work.name if work is not None
            else (buffer.name if buffer is not None else kind_name)
        )
        self.seq = ctx._next_seq()
        #: Fires when the action has fully completed.
        self.done = env.event()
        self.started_at: float | None = None
        self.finished_at: float | None = None

        if deps:
            self._dep_events = [_dep_event(d) for d in deps]
            device = stream.place.device
            self._cross_domain = any(
                isinstance(d, Action) and d.stream.place.device is not device
                for d in deps
            )
        else:
            self._dep_events = ()
            self._cross_domain = False
        predecessor = stream._last_done
        stream._last_done = self.done
        stream._actions.append(self)
        observe_enqueue(kind_name)
        env.process(self._run(predecessor, kind_name))

    def __repr__(self) -> str:
        return (
            f"<Action #{self.seq} {self.kind.value} '{self.label}' "
            f"stream={self.stream.index}>"
        )

    # -- execution -----------------------------------------------------------

    def _run(self, predecessor: "Event | None", kind_name: str):
        stream = self.stream
        ctx = stream.ctx
        env = ctx.env
        device = stream.place.device
        overheads = device.spec.overheads

        if predecessor is not None:
            yield predecessor
        if self._dep_events:
            yield env.all_of(self._dep_events)
        if self._cross_domain:
            yield env.timeout(overheads.cross_device_sync)
        yield env.timeout(overheads.dispatch)

        kind = self.kind
        try:
            if kind is ActionKind.EXE:
                yield from self._run_kernel()
            elif kind is ActionKind.H2D or kind is ActionKind.D2H:
                yield from self._run_transfer()
            else:  # MARKER: completes as soon as the FIFO reaches it.
                self.started_at = self.finished_at = env.now
        except FaultInjectedError:
            # Leave a marker on the timeline before the error unwinds,
            # so traces show where the injected failure struck.
            observe_fault(kind_name)
            ctx.trace.append(
                TraceEvent(
                    kind=ActionKind.FAULT,
                    stream=stream.index,
                    device=device.index,
                    start=(
                        self.started_at
                        if self.started_at is not None
                        else env.now
                    ),
                    end=env.now,
                    label=f"fault:{self.label}",
                )
            )
            raise

        now = env.now
        started = self.started_at if self.started_at is not None else now
        nbytes = self._nbytes
        ctx.trace.append(
            TraceEvent(
                kind=kind,
                stream=stream.index,
                device=device.index,
                start=started,
                end=now,
                nbytes=nbytes,
                label=self.label,
                threads=(
                    stream.place.nthreads if kind is ActionKind.EXE else 0
                ),
            )
        )
        observe_action(kind_name, now - started, nbytes)
        self.finished_at = now
        self.done.succeed(self)

    def _run_transfer(self):
        env = self.stream.ctx.env
        device = self.stream.place.device
        buffer = self.buffer
        assert buffer is not None
        if self.kind is ActionKind.H2D:
            direction = TransferDirection.H2D
            buffer.instantiate(device)
        else:
            direction = TransferDirection.D2H
            if not buffer.instantiated_on(device.index):
                raise HstreamsError(
                    f"D2H from buffer {buffer.name} which was never "
                    f"instantiated on device {device.index}"
                )
        if self._nbytes == 0:
            # Pure residency/instantiation marker: no link traffic.
            self.started_at = env.now
            return
        start, _end = yield env.process(
            device.link.transfer(direction, self._nbytes)
        )
        self.started_at = start
        if direction is TransferDirection.H2D:
            buffer.copy_h2d(device.index, self.offset, self.count)
        else:
            buffer.copy_d2h(device.index, self.offset, self.count)

    def _run_kernel(self):
        env = self.stream.ctx.env
        place = self.stream.place
        assert self.work is not None
        with place.lock.request() as req:
            yield req
            self.started_at = env.now
            maybe_fail("kernel", self.label)
            duration = place.device.kernel_duration(self.work, place.partition)
            yield env.timeout(duration)
            if self.fn is not None:
                self.fn()


def _dep_event(dep: Any) -> Event:
    if isinstance(dep, Action):
        return dep.done
    if isinstance(dep, Event):
        return dep
    raise HstreamsError(
        f"dependency must be an Action or Event, got {dep!r}"
    )
