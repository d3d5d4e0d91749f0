"""Sans-IO admission/batching core of the prediction service.

The heart of :mod:`repro.serve` is deliberately *not* an asyncio
program: :class:`Batcher` is a pure state machine that never sleeps,
never reads a wall clock, and never touches a socket.  Every method
that depends on time takes ``now`` (seconds, any monotonic origin) as
an argument, and the machine answers two questions for whatever driver
is pumping it:

* :meth:`Batcher.poll` — "given that it is ``now``, which batches are
  due for dispatch, and which queued requests must be shed?";
* :meth:`Batcher.next_event` — "when do you next need to be polled?".

The asyncio service (:mod:`repro.serve.service`) drives it with real
timers; the unit tests drive the *same* machine on simulated time
(:class:`~repro.serve.service.SyncDriver`) — no real sleeps or sockets
anywhere in the batching/dispatch tests.  This is the AsyncRuntime/
SyncRuntime/SimulationRuntime split of the doeff scheduler applied to
one state machine instead of three runtimes.

Admission and coalescing rules:

* every request becomes a :class:`Ticket` holding one or more
  :class:`~repro.parallel.runspec.RunSpec`\\ s;
* point requests are grouped by *coalescing family* (app class ×
  stream geometry — the same grouping the grid path vectorizes over,
  see :func:`repro.engine.grid.predict_grid`), so concurrent point
  queries are answered by one family array evaluation instead of N
  scalar ones;
* batching is *work-conserving*: a family group is flushed as one
  :class:`Batch` when no batch is in flight at the poll, when its
  window (``batch_window`` from its first arrival) has expired, or
  when it holds ``max_batch`` specs.  A request to an idle server
  therefore dispatches at once; requests that arrive while a batch is
  being evaluated gather, and leave together when the driver polls
  after that batch completes or when the window expires, whichever
  comes first — the window is a maximum wait, not a latency floor;
* whole-sweep and autotune requests are already batches — they skip
  the window and become due immediately (still counted against the
  queue bound);
* a ticket whose deadline has passed by flush time is shed with
  ``"deadline"`` — its batch-mates still dispatch;
* once the queue holds ``queue_limit`` tickets, new submissions are
  shed with ``"queue_full"`` (the HTTP layer maps this to 429);
* after :meth:`Batcher.begin_drain`, new submissions are shed with
  ``"draining"`` (503) while queued work keeps flushing, so a graceful
  shutdown finishes what it admitted.

Metrics land on the active registry under ``serve.*`` (see
``docs/OBSERVABILITY.md``): ``serve.queue_depth``,
``serve.batch_size``, ``serve.batches``, ``serve.shed{reason=...}``,
``serve.coalesced``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.metrics.registry import get_registry

#: Why a ticket was refused or dropped (→ HTTP status in serve.http).
SHED_QUEUE_FULL = "queue_full"
SHED_DRAINING = "draining"
SHED_DEADLINE = "deadline"


@dataclass
class ServeConfig:
    """Tuning knobs of the admission/batching layer.

    ``batch_window`` is the longest a point request waits for
    batch-mates, in seconds, while the consumer is busy: the first
    point request of a family opens the window, and everything that
    arrives for the family before the in-flight batch completes (or
    the window closes, if sooner) rides the same batch.  With nothing
    in flight a request dispatches at once (``docs/SERVING.md``
    discusses tuning it).  ``default_deadline`` is applied to requests
    that do not carry their own ``deadline_ms``; ``None`` disables
    deadlines.
    """

    batch_window: float = 0.005
    max_batch: int = 64
    queue_limit: int = 1024
    default_deadline: "float | None" = 2.0

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError(
                f"default_deadline must be positive or None, "
                f"got {self.default_deadline}"
            )


class Shed(Exception):
    """A request the service refused (admission) or dropped (deadline).

    ``reason`` is one of :data:`SHED_QUEUE_FULL`, :data:`SHED_DRAINING`
    or :data:`SHED_DEADLINE`; the HTTP layer maps them to 429/503/504.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class Ticket:
    """One admitted request, from submission to completion.

    The driver resolves the ticket by setting ``results`` (one
    :class:`~repro.apps.base.AppRun` per spec) or ``error``; the
    service layer watches ``done`` through whatever future/callback
    mechanism its runtime provides (``on_done`` below).
    """

    id: int
    kind: str  # "predict" | "sweep" | "autotune"
    specs: list
    family: tuple
    arrival: float
    deadline: "float | None"  # absolute, same origin as ``arrival``
    #: Extra request context the dispatcher needs (autotune space, ...).
    context: dict = field(default_factory=dict)
    #: Completion state, written exactly once by the driver.
    results: "list | None" = None
    error: "Exception | None" = None
    done: bool = False
    #: Optional completion hook installed by the service layer.
    on_done: Any = None

    def resolve(self, results: "list | None" = None,
                error: "Exception | None" = None) -> None:
        if self.done:  # pragma: no cover - driver bug guard
            return
        self.results = results
        self.error = error
        self.done = True
        if self.on_done is not None:
            self.on_done(self)

    @property
    def expired_by(self) -> "float | None":
        return self.deadline


@dataclass
class Batch:
    """One dispatch unit: tickets whose specs are evaluated together.

    ``specs`` is the concatenation of the member tickets' specs;
    ``slices`` maps each ticket to its ``[start, stop)`` range so the
    driver can hand every ticket exactly its own results back.
    """

    tickets: list
    created: float

    @property
    def specs(self) -> list:
        return [spec for t in self.tickets for spec in t.specs]

    @property
    def slices(self) -> "list[tuple[Ticket, slice]]":
        out, start = [], 0
        for t in self.tickets:
            stop = start + len(t.specs)
            out.append((t, slice(start, stop)))
            start = stop
        return out

    def settle(self, outcomes: list) -> None:
        """Resolve each ticket with its own outcome, in ticket order: its
        results list, or the exception that failed it."""
        for ticket, outcome in zip(self.tickets, outcomes):
            if isinstance(outcome, Exception):
                ticket.resolve(error=outcome)
            else:
                ticket.resolve(results=outcome)


class _FamilyGroup:
    """Point tickets coalescing toward one batch."""

    __slots__ = ("tickets", "opened")

    def __init__(self, opened: float) -> None:
        self.tickets: list[Ticket] = []
        self.opened = opened

    def spec_count(self) -> int:
        return sum(len(t.specs) for t in self.tickets)


def coalesce_key(spec) -> tuple:
    """The grouping under which point requests batch together.

    Mirrors the grid path's family notion (app class × stream
    geometry × device count): specs sharing this key are exactly the
    ones :func:`repro.engine.grid.predict_grid` evaluates as one
    compiled family, so a coalesced batch shares one lowering instead
    of N separate evaluations.
    """
    return (spec.app_cls, spec.streams_per_place, spec.num_devices)


class _BatcherMetrics:
    """Instrument handles resolved once per active registry.

    Registry instruments are memoized by identity, so a handle stays
    valid for the registry's lifetime; re-resolving name + labels on
    every submit/poll costs microseconds each, which is the dominant
    admission cost at serving rates.
    """

    __slots__ = (
        "registry", "shed", "queue_depth", "batches", "batch_size",
        "coalesced",
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self.shed = {
            reason: registry.counter("serve.shed", reason=reason)
            for reason in (SHED_QUEUE_FULL, SHED_DRAINING, SHED_DEADLINE)
        }
        self.queue_depth = registry.gauge("serve.queue_depth")
        self.batches = registry.counter("serve.batches")
        self.batch_size = registry.histogram(
            "serve.batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        self.coalesced = registry.counter("serve.coalesced")


class Batcher:
    """The admission/batching state machine (see module docstring)."""

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config or ServeConfig()
        self._groups: "dict[tuple, _FamilyGroup]" = {}
        self._direct: list[Ticket] = []  # sweep/autotune: due immediately
        self._next_id = 0
        self._queued = 0  # tickets admitted, not yet dispatched/shed
        self._draining = False
        self._metrics_handles: "_BatcherMetrics | None" = None
        self.in_flight = 0  # batches dispatched, not yet completed

    def _metrics(self) -> _BatcherMetrics:
        registry = get_registry()
        handles = self._metrics_handles
        if handles is None or handles.registry is not registry:
            handles = self._metrics_handles = _BatcherMetrics(registry)
        return handles

    # -- admission ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def queue_depth(self) -> int:
        """Tickets admitted and not yet dispatched."""
        return self._queued

    def idle(self) -> bool:
        """Nothing queued and nothing dispatched-but-unfinished."""
        return self.queue_depth() == 0 and self.in_flight == 0

    def submit(
        self,
        kind: str,
        specs: list,
        now: float,
        deadline: "float | None" = None,
        context: "dict | None" = None,
    ) -> Ticket:
        """Admit one request; raises :class:`Shed` when refused.

        ``deadline`` is *relative* seconds from ``now`` (``None`` →
        the config default).  Point requests (``kind="predict"``, one
        spec) coalesce; anything else is due at the next poll.
        """
        metrics = self._metrics()
        if self._draining:
            metrics.shed[SHED_DRAINING].inc()
            raise Shed(SHED_DRAINING)
        if self._queued >= self.config.queue_limit:
            metrics.shed[SHED_QUEUE_FULL].inc()
            raise Shed(SHED_QUEUE_FULL)
        if not specs:
            raise ConfigurationError("a request needs at least one spec")
        if deadline is None:
            deadline = self.config.default_deadline
        ticket = Ticket(
            id=self._next_id,
            kind=kind,
            specs=list(specs),
            family=coalesce_key(specs[0]),
            arrival=now,
            deadline=None if deadline is None else now + deadline,
            context=dict(context or {}),
        )
        self._next_id += 1
        if kind == "predict" and len(ticket.specs) == 1:
            group = self._groups.get(ticket.family)
            if group is None:
                group = self._groups[ticket.family] = _FamilyGroup(now)
            group.tickets.append(ticket)
            if len(group.tickets) > 1:
                metrics.coalesced.inc()
        else:
            self._direct.append(ticket)
        self._queued += 1
        metrics.queue_depth.set(self._queued)
        return ticket

    # -- pumping -----------------------------------------------------------

    def next_event(self, now: float) -> "float | None":
        """Earliest future time a poll could produce work, or ``None``.

        Already-due work (a direct ticket, any group while nothing is
        in flight, a full group, an expired window) reports ``now``
        itself, so drivers can treat the return value as "sleep until".
        """
        if self._direct or (self._groups and self.in_flight == 0):
            return now
        soonest: "float | None" = None
        for group in self._groups.values():
            due = group.opened + self.config.batch_window
            if group.spec_count() >= self.config.max_batch:
                due = now
            for ticket in group.tickets:
                if ticket.deadline is not None:
                    due = min(due, ticket.deadline)
            soonest = due if soonest is None else min(soonest, due)
        if soonest is None:
            return None
        return max(soonest, now)

    def poll(self, now: float) -> "tuple[list[Batch], list[Ticket]]":
        """Collect due batches and shed expired tickets.

        Returns ``(batches, shed)``.  Shed tickets are already resolved
        with a :class:`Shed` error; the caller owns dispatching the
        batches and must call :meth:`complete` for each when its
        results (or failure) are in.
        """
        metrics = self._metrics()
        shed: list[Ticket] = []
        batches: list[Batch] = []
        idle = self.in_flight == 0

        def expire(tickets: list[Ticket]) -> list[Ticket]:
            alive = []
            for t in tickets:
                if t.deadline is not None and now >= t.deadline:
                    t.resolve(error=Shed(SHED_DEADLINE))
                    metrics.shed[SHED_DEADLINE].inc()
                    self._queued -= 1
                    shed.append(t)
                else:
                    alive.append(t)
            return alive

        self._direct = expire(self._direct)
        for ticket in self._direct:
            batches.append(Batch(tickets=[ticket], created=now))
        self._direct = []

        for key in list(self._groups):
            group = self._groups[key]
            due = (
                idle
                or now >= group.opened + self.config.batch_window
                or group.spec_count() >= self.config.max_batch
            )
            group.tickets = expire(group.tickets)
            if not group.tickets:
                del self._groups[key]
                continue
            if not due:
                continue
            del self._groups[key]
            pending = group.tickets
            while pending:
                chunk, size = [], 0
                while pending and size < self.config.max_batch:
                    chunk.append(pending.pop(0))
                    size += len(chunk[-1].specs)
                batches.append(Batch(tickets=chunk, created=now))

        for batch in batches:
            metrics.batches.inc()
            metrics.batch_size.observe(len(batch.specs))
            self._queued -= len(batch.tickets)
        self.in_flight += len(batches)
        metrics.queue_depth.set(self._queued)
        return batches, shed

    def complete(self, batch: Batch) -> None:
        """Driver callback: ``batch`` finished (resolved or failed)."""
        self.in_flight -= 1

    # -- shutdown ----------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new work; queued and in-flight work still completes."""
        self._draining = True


#: ``serve.batch_size`` bucket bounds (specs per dispatched batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
