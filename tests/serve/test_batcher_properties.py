"""A Hypothesis state machine over the sans-IO :class:`Batcher`.

Rules submit point and sweep requests (random family, kind and
deadline), poll, complete in-flight batches and advance the simulated
clock.  After every step the machine checks the batcher against a
model of what it admitted and dispatched:

* every admitted ticket resolves at most once, and by teardown exactly
  once, with its own results or with :class:`Shed`;
* ``queue_depth()`` counts the live queued tickets;
* no batch mixes families, and no point batch exceeds ``max_batch``;
* after a poll that began with nothing in flight, nothing is left
  queued (work conservation);
* no group waits past ``opened + batch_window``, and ``next_event``
  never asks to be polled later than that or than a deadline.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.apps import KmeansApp, MatMulApp
from repro.parallel import RunSpec
from repro.serve.core import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    Batcher,
    ServeConfig,
    Shed,
    coalesce_key,
)

WINDOW = 1.0
MAX_BATCH = 3
QUEUE_LIMIT = 8

FAMILIES = {
    "mm": lambda p: RunSpec.for_app(MatMulApp, 6000, 144, places=p),
    "km": lambda p: RunSpec.for_app(
        KmeansApp, 1120000, 56, places=p, iterations=10
    ),
}


def answers(specs):
    return [float(spec.places) for spec in specs]


class BatcherMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.batcher = Batcher(
            ServeConfig(
                batch_window=WINDOW,
                max_batch=MAX_BATCH,
                queue_limit=QUEUE_LIMIT,
                default_deadline=None,
            )
        )
        self.now = 0.0
        self.tickets = []  # every admitted ticket
        self.resolutions = {}  # ticket id -> times resolved
        self.dispatched = set()  # ids of tickets handed out in a batch
        self.in_flight = []  # batches polled and not yet completed
        #: Model of the batcher's family groups: family -> opening time,
        #: for every family that has a live queued point ticket.
        self.opened = {}

    def queued(self):
        return [
            t for t in self.tickets
            if not t.done and t.id not in self.dispatched
        ]

    def on_done(self, ticket):
        self.resolutions[ticket.id] = self.resolutions.get(ticket.id, 0) + 1
        if ticket.error is None:
            assert ticket.results == answers(ticket.specs)
        else:
            assert isinstance(ticket.error, Shed)
            assert ticket.results is None

    # -- rules -------------------------------------------------------------

    @rule(
        family=st.sampled_from(sorted(FAMILIES)),
        kind=st.sampled_from(["predict", "sweep"]),
        deadline=st.none() | st.floats(0.05, 3.0),
        p=st.integers(1, 8),
    )
    def submit(self, family, kind, deadline, p):
        make = FAMILIES[family]
        specs = [make(p)] if kind == "predict" else [make(p), make(p + 1)]
        depth = self.batcher.queue_depth()
        try:
            ticket = self.batcher.submit(
                kind, specs, now=self.now, deadline=deadline
            )
        except Shed as exc:
            assert exc.reason == SHED_QUEUE_FULL
            assert depth >= QUEUE_LIMIT
            return
        assert depth < QUEUE_LIMIT
        ticket.on_done = self.on_done
        self.tickets.append(ticket)
        if kind == "predict":
            self.opened.setdefault(ticket.family, self.now)

    @rule()
    def poll(self):
        was_idle = self.batcher.in_flight == 0
        batches, shed = self.batcher.poll(self.now)
        for ticket in shed:
            assert ticket.error.reason == SHED_DEADLINE
            assert ticket.deadline is not None
            assert ticket.deadline <= self.now
        for batch in batches:
            assert len({coalesce_key(s) for s in batch.specs}) == 1
            if batch.tickets[0].kind == "predict":
                assert {t.kind for t in batch.tickets} == {"predict"}
                assert len(batch.specs) <= MAX_BATCH
            else:
                assert len(batch.tickets) == 1
            for ticket in batch.tickets:
                assert not ticket.done and ticket.id not in self.dispatched
                assert ticket.deadline is None or ticket.deadline > self.now
                self.dispatched.add(ticket.id)
        self.in_flight.extend(batches)
        live = self.queued()
        if was_idle:
            assert live == [], "an idle poll leaves nothing queued"
        families = {t.family for t in live}
        self.opened = {
            key: opened
            for key, opened in self.opened.items()
            if key in families
        }
        for key in families:
            group = [t for t in live if t.family == key]
            assert all(t.kind == "predict" for t in group)
            assert len(group) < MAX_BATCH, "a full group is due"
            assert self.opened[key] + WINDOW > self.now, (
                "a group waited past its window"
            )

    @precondition(lambda self: self.in_flight)
    @rule(pick=st.integers(0, 7))
    def complete(self, pick):
        batch = self.in_flight.pop(pick % len(self.in_flight))
        batch.settle([answers(ticket.specs) for ticket in batch.tickets])
        self.batcher.complete(batch)

    @rule(dt=st.floats(0.0, 2 * WINDOW))
    def advance(self, dt):
        self.now += dt

    # -- invariants ----------------------------------------------------------

    @invariant()
    def resolved_at_most_once(self):
        assert all(n == 1 for n in self.resolutions.values())

    @invariant()
    def queue_depth_counts_live_tickets(self):
        assert self.batcher.queue_depth() == len(self.queued())
        assert self.batcher.in_flight == len(self.in_flight)

    @invariant()
    def next_event_is_never_late(self):
        nxt = self.batcher.next_event(self.now)
        live = self.queued()
        if not live:
            assert nxt is None
            return
        assert nxt >= self.now
        if self.batcher.in_flight == 0 or any(
            t.kind != "predict" for t in live
        ):
            assert nxt == self.now
        for ticket in live:
            if ticket.kind == "predict":
                window_ends = self.opened[ticket.family] + WINDOW
                assert nxt <= max(self.now, window_ends)
            if ticket.deadline is not None:
                assert nxt <= max(self.now, ticket.deadline)

    def teardown(self):
        # Finish the in-flight work and drive the batcher to idle, as a
        # driver would; then every admitted ticket has resolved once.
        for _ in range(2 * len(self.tickets) + 1):
            while self.in_flight:
                self.complete(0)
            if self.batcher.idle():
                break
            self.now = max(self.now, self.batcher.next_event(self.now))
            self.poll()
        assert self.batcher.idle()
        assert all(self.resolutions.get(t.id) == 1 for t in self.tickets)


TestBatcherMachine = BatcherMachine.TestCase
TestBatcherMachine.settings = settings(
    stateful_step_count=40, deadline=None
)
