"""Runtime drivers around the sans-IO batcher.

Mirroring the AsyncRuntime/SyncRuntime/SimulationRuntime split of the
doeff scheduler, the same :class:`~repro.serve.core.Batcher` state
machine is pumped by two interchangeable drivers:

* :class:`PredictionService` — the production driver: an asyncio pump
  task flushes due batches on real timers, a single consumer task
  evaluates them through the backend in a worker thread
  (``asyncio.to_thread``) so the event loop stays responsive, and
  submitters await per-ticket futures.  The consumer wakes the pump
  whenever a batch completes, so requests that gathered behind it
  leave at once instead of waiting out the window.  Used by the HTTP
  layer.
* :class:`SyncDriver` — the simulated-time driver: a synchronous pump
  on a virtual clock that the unit tests advance explicitly.  No
  sleeps, no sockets, no event loop — batching/dispatch behaviour is
  tested deterministically.

Both record the same ``serve.*`` metrics, because the metrics live in
the state machine and in the shared completion bookkeeping here.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.metrics.registry import get_registry
from repro.serve.core import Batch, Batcher, ServeConfig, Shed, Ticket

#: ``serve.latency_seconds`` buckets (request admission → resolution).
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


def dispatch_batch(batch: Batch, dispatch, backend=None) -> list:
    """Evaluate one batch; returns one outcome per ticket for
    :meth:`Batch.settle`: its results list, or the exception that
    failed it.

    Autotune tickets run the backend's search, everything else goes
    through the plain specs dispatcher.  Autotune requests never
    coalesce (they are direct tickets), so a batch is either one
    autotune ticket or pure predict/sweep work.  A batch of several
    tickets that fails is dispatched again ticket by ticket, so a point
    that cannot be evaluated fails only its own request.
    """
    ticket = batch.tickets[0]
    try:
        if ticket.kind == "autotune" and backend is not None:
            return [[backend.autotune(ticket.context)]]
        results = dispatch(batch.specs)
    except Exception as exc:  # noqa: BLE001 - reported per ticket
        if len(batch.tickets) == 1:
            return [exc]
        return [_dispatch_alone(t, dispatch) for t in batch.tickets]
    return [list(results[sl]) for _, sl in batch.slices]


def _dispatch_alone(ticket: Ticket, dispatch):
    """One ticket's outcome, its specs dispatched on their own."""
    try:
        return list(dispatch(ticket.specs))
    except Exception as exc:  # noqa: BLE001 - reported per ticket
        return exc


#: (registry, {(endpoint, status): (requests counter, latency histogram)}).
#: Instrument handles are memoized per registry, so they stay valid for
#: the registry's lifetime; caching them here keeps the per-request
#: completion cost flat instead of paying two name+label resolutions
#: per ticket (visible at serving rates).
_observe_handles: "tuple" = (None, {})


def _observe_done(ticket: Ticket, now: float) -> None:
    """Per-request completion metrics, shared by both drivers."""
    global _observe_handles
    registry = get_registry()
    cached_registry, handles = _observe_handles
    if cached_registry is not registry:
        handles = {}
        _observe_handles = (registry, handles)
    status = "ok"
    if ticket.error is not None:
        status = (
            f"shed_{ticket.error.reason}"
            if isinstance(ticket.error, Shed)
            else "error"
        )
    key = (ticket.kind, status)
    pair = handles.get(key)
    if pair is None:
        pair = handles[key] = (
            registry.counter(
                "serve.requests", endpoint=ticket.kind, status=status
            ),
            registry.histogram(
                "serve.latency_seconds",
                endpoint=ticket.kind,
                buckets=LATENCY_BUCKETS,
            ),
        )
    requests, latency = pair
    requests.inc()
    latency.observe(max(0.0, now - ticket.arrival))


class PredictionService:
    """Asyncio driver: admission → batcher → backend, with drain.

    ``dispatcher`` (specs → results) defaults to the backend's
    :meth:`~repro.serve.backend.PredictionBackend.evaluate`; tests may
    inject a deterministic fake.  ``clock`` defaults to
    ``time.monotonic`` and exists so tests can pin admission
    timestamps.
    """

    def __init__(
        self,
        backend,
        config: "ServeConfig | None" = None,
        clock=None,
        dispatcher=None,
        worker_id: "int | None" = None,
        metrics_hub=None,
    ) -> None:
        self.backend = backend
        self.config = config or ServeConfig()
        self.batcher = Batcher(self.config)
        self.clock = clock if clock is not None else time.monotonic
        self.dispatch = (
            dispatcher if dispatcher is not None else backend.evaluate
        )
        #: Prefork identity + cross-worker metrics exchange (set by
        #: :mod:`repro.serve.prefork`; None in single-process mode).
        self.worker_id = worker_id
        self.metrics_hub = metrics_hub
        self._wake: "asyncio.Event | None" = None
        self._queue: "asyncio.Queue[Batch] | None" = None
        self._tasks: "list[asyncio.Task]" = []
        self._idle: "asyncio.Event | None" = None
        self.started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the pump and consumer tasks (idempotent)."""
        if self.started:
            return
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._queue = asyncio.Queue()
        self._tasks = [
            asyncio.create_task(self._pump(), name="serve-pump"),
            asyncio.create_task(self._consume(), name="serve-consumer"),
        ]
        self.started = True

    async def stop(self) -> None:
        """Hard stop: cancel the pump/consumer (drain first for grace)."""
        self.started = False
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Graceful shutdown: refuse new work, finish what's queued.

        Returns True when the service went idle within ``timeout``
        seconds (None: wait forever).  Call :meth:`stop` afterwards.
        """
        self.batcher.begin_drain()
        t0 = self.clock()
        assert self._wake is not None and self._idle is not None
        self._wake.set()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        get_registry().histogram("serve.drain_seconds").observe(
            self.clock() - t0
        )
        return drained

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        kind: str,
        specs: list,
        deadline: "float | None" = None,
        context: "dict | None" = None,
    ) -> Ticket:
        """Admit a request and wait for its resolution.

        Returns the resolved ticket; raises :class:`Shed` when the
        request was refused at admission (queue full / draining).  A
        deadline shed resolves the ticket with a :class:`Shed` error
        instead of raising, so callers can distinguish "never admitted"
        from "admitted but expired".
        """
        if not self.started:
            raise RuntimeError("service not started")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Ticket]" = loop.create_future()
        now = self.clock()

        ticket = self.batcher.submit(
            kind, specs, now=now, deadline=deadline, context=context
        )

        def on_done(t: Ticket) -> None:
            _observe_done(t, self.clock())
            if not future.done():
                future.set_result(t)

        ticket.on_done = on_done
        assert self._wake is not None and self._idle is not None
        self._idle.clear()
        self._wake.set()
        return await future

    # -- internals ---------------------------------------------------------

    async def _pump(self) -> None:
        assert self._wake is not None and self._queue is not None
        while True:
            now = self.clock()
            batches, _shed = self.batcher.poll(now)
            for batch in batches:
                self._queue.put_nowait(batch)
            self._maybe_idle()
            self._wake.clear()
            nxt = self.batcher.next_event(self.clock())
            if nxt is None:
                await self._wake.wait()
            else:
                delay = max(0.0, nxt - self.clock())
                try:
                    await asyncio.wait_for(self._wake.wait(), delay)
                except asyncio.TimeoutError:
                    pass

    async def _consume(self) -> None:
        assert self._queue is not None and self._wake is not None
        while True:
            batch = await self._queue.get()
            try:
                batch.settle(
                    await asyncio.to_thread(
                        dispatch_batch, batch, self.dispatch, self.backend
                    )
                )
            finally:
                self.batcher.complete(batch)
                # Let the pump flush what gathered behind this batch.
                self._wake.set()
                self._maybe_idle()

    def _maybe_idle(self) -> None:
        if self._idle is None:
            return
        if self.batcher.idle() and (
            self._queue is None or self._queue.empty()
        ):
            self._idle.set()

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        info = {
            "status": "draining" if self.batcher.draining else "ok",
            "queue_depth": self.batcher.queue_depth(),
            "in_flight": self.batcher.in_flight,
            "worker": self.worker_id,
            "pid": os.getpid(),
            "config": {
                "batch_window_ms": self.config.batch_window * 1e3,
                "max_batch": self.config.max_batch,
                "queue_limit": self.config.queue_limit,
                "default_deadline_ms": (
                    None
                    if self.config.default_deadline is None
                    else self.config.default_deadline * 1e3
                ),
            },
        }
        info.update(self.backend.health())
        return info


class SyncDriver:
    """Simulated-time driver: same batcher, explicit clock, no runtime.

    Submissions return unresolved tickets; :meth:`pump` dispatches
    every due batch synchronously through the dispatcher and completes
    it before returning, so nothing is in flight between pumps and
    each pump flushes whatever is queued; :meth:`advance` moves the
    virtual clock first.
    """

    def __init__(
        self,
        dispatcher,
        config: "ServeConfig | None" = None,
        start: float = 0.0,
        backend=None,
    ) -> None:
        self.batcher = Batcher(config or ServeConfig())
        self.dispatch = dispatcher
        self.now = start
        self.backend = backend

    def submit(
        self,
        kind: str,
        specs: list,
        deadline: "float | None" = None,
        context: "dict | None" = None,
    ) -> Ticket:
        ticket = self.batcher.submit(
            kind, specs, now=self.now, deadline=deadline, context=context
        )
        ticket.on_done = lambda t: _observe_done(t, self.now)
        return ticket

    def pump(self) -> int:
        """Flush everything due at the current virtual time; returns
        the number of batches dispatched."""
        batches, _shed = self.batcher.poll(self.now)
        for batch in batches:
            try:
                batch.settle(
                    dispatch_batch(batch, self.dispatch, self.backend)
                )
            finally:
                self.batcher.complete(batch)
        return len(batches)

    def advance(self, dt: float) -> int:
        self.now += dt
        return self.pump()

    def run_until_idle(self, max_steps: int = 10_000) -> None:
        """Advance to each next event until nothing is pending."""
        steps = 0
        while not self.batcher.idle():
            nxt = self.batcher.next_event(self.now)
            if nxt is None:  # pragma: no cover - idle() guards this
                break
            self.now = max(self.now, nxt)
            self.pump()
            steps += 1
            if steps >= max_steps:
                raise RuntimeError("SyncDriver failed to go idle")
