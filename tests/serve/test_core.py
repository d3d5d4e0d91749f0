"""Batching-core unit tests — all on simulated time.

Every test here drives the sans-IO :class:`repro.serve.core.Batcher`
with explicit ``now`` values and a hand-rolled dispatcher: no event
loop, no sockets, no sleeps.  Covered: work-conserving dispatch (an
idle batcher flushes at once), window-expiry flush while a batch is in
flight, mixed-family coalescing, deadline shedding with surviving
batch-mates, and drain semantics.
"""

import pytest

from repro.apps import KmeansApp, MatMulApp
from repro.errors import ConfigurationError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec
from repro.serve.core import (
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    Batcher,
    ServeConfig,
    Shed,
    coalesce_key,
)


def mm_spec(p=4):
    return RunSpec.for_app(MatMulApp, 6000, 144, places=p)


def km_spec(p=4):
    return RunSpec.for_app(KmeansApp, 1120000, 56, places=p, iterations=10)


def make(window=1.0, max_batch=8, queue_limit=16, deadline=None):
    return Batcher(
        ServeConfig(
            batch_window=window,
            max_batch=max_batch,
            queue_limit=queue_limit,
            default_deadline=deadline,
        )
    )


def busy(b, now=0.0):
    """Put one batch in flight (polled, never completed), as if the
    consumer were evaluating it; point requests submitted afterwards
    wait for batch-mates instead of dispatching at once."""
    b.submit("sweep", [km_spec(8)], now=now)
    (held,), _ = b.poll(now)
    assert b.in_flight == 1
    return held


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(batch_window=-1)
        with pytest.raises(ConfigurationError):
            ServeConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(default_deadline=0)


class TestWorkConserving:
    def test_lone_request_on_idle_batcher_is_due_at_once(self):
        b = make(window=100.0)
        t = b.submit("predict", [mm_spec()], now=10.0)
        assert b.next_event(10.0) == 10.0
        batches, shed = b.poll(10.0)
        assert [batch.tickets for batch in batches] == [[t]]
        assert shed == [] and b.queue_depth() == 0

    def test_arrivals_during_a_dispatch_leave_when_it_completes(self):
        """N requests arriving while one batch is evaluated form one
        batch, due as soon as that batch completes — long before the
        window closes."""
        b = make(window=100.0)
        held = busy(b)
        tickets = [
            b.submit("predict", [mm_spec(p)], now=0.1) for p in (1, 2, 4)
        ]
        assert b.poll(0.2) == ([], [])
        assert b.next_event(0.2) == pytest.approx(100.1)
        b.complete(held)
        assert b.next_event(0.3) == 0.3
        batches, _ = b.poll(0.3)
        assert [batch.tickets for batch in batches] == [tickets]

    def test_every_family_flushes_when_idle(self):
        b = make(window=100.0)
        b.submit("predict", [mm_spec(1)], now=0.0)
        b.submit("predict", [km_spec(1)], now=0.0)
        batches, _ = b.poll(0.0)
        assert len(batches) == 2 and b.queue_depth() == 0


class TestWindowFlush:
    def test_single_request_flushes_at_window_expiry(self):
        b = make(window=1.0)
        busy(b, now=10.0)
        t = b.submit("predict", [mm_spec()], now=10.0)
        # A batch is in flight and the window is open: nothing is due.
        batches, shed = b.poll(10.5)
        assert batches == [] and shed == []
        assert b.queue_depth() == 1
        # The window closes exactly at opened + batch_window.
        assert b.next_event(10.5) == pytest.approx(11.0)
        batches, shed = b.poll(11.0)
        assert len(batches) == 1 and shed == []
        assert batches[0].tickets == [t]
        assert b.queue_depth() == 0

    def test_window_anchored_at_first_arrival(self):
        b = make(window=1.0)
        busy(b)
        b.submit("predict", [mm_spec(1)], now=0.0)
        b.submit("predict", [mm_spec(2)], now=0.9)
        # The second arrival does not re-open the window.
        assert b.next_event(0.9) == pytest.approx(1.0)
        assert b.poll(0.95) == ([], [])
        batches, _ = b.poll(1.0)
        assert len(batches) == 1
        assert len(batches[0].specs) == 2

    def test_full_group_is_due_immediately(self):
        b = make(window=100.0, max_batch=3)
        busy(b)
        for p in (1, 2):
            b.submit("predict", [mm_spec(p)], now=0.0)
        assert b.next_event(0.0) == pytest.approx(100.0)
        b.submit("predict", [mm_spec(3)], now=0.0)
        assert b.next_event(0.0) == 0.0
        batches, _ = b.poll(0.0)
        assert len(batches) == 1
        assert len(batches[0].specs) == 3

    def test_oversized_group_splits_at_max_batch(self):
        b = make(window=0.0, max_batch=2)
        for p in range(1, 6):
            b.submit("predict", [mm_spec(p)], now=0.0)
        batches, _ = b.poll(0.0)
        assert [len(batch.specs) for batch in batches] == [2, 2, 1]


class TestCoalescing:
    def test_same_family_coalesces_into_one_batch(self):
        b = make(window=1.0)
        tickets = [
            b.submit("predict", [mm_spec(p)], now=0.0) for p in (1, 2, 4)
        ]
        batches, _ = b.poll(1.0)
        assert len(batches) == 1
        assert batches[0].tickets == tickets

    def test_mixed_families_split_into_family_batches(self):
        """Concurrent mm and kmeans points land in *separate* batches,
        each a single grid family (the predict_grid shape)."""
        b = make(window=1.0)
        b.submit("predict", [mm_spec(1)], now=0.0)
        b.submit("predict", [km_spec(1)], now=0.0)
        b.submit("predict", [mm_spec(2)], now=0.0)
        b.submit("predict", [km_spec(2)], now=0.0)
        batches, _ = b.poll(1.0)
        assert len(batches) == 2
        for batch in batches:
            keys = {coalesce_key(spec) for spec in batch.specs}
            assert len(keys) == 1, "a batch must hold one family"
        apps = {batch.specs[0].app_cls for batch in batches}
        assert apps == {MatMulApp, KmeansApp}

    def test_batch_slices_map_results_back_per_ticket(self):
        b = make(window=0.0)
        t1 = b.submit("predict", [mm_spec(1)], now=0.0)
        t2 = b.submit("predict", [mm_spec(2)], now=0.0)
        batches, _ = b.poll(0.0)
        (batch,) = batches
        results = ["r1", "r2"]
        batch.settle([results[sl] for _, sl in batch.slices])
        assert t1.results == ["r1"]
        assert t2.results == ["r2"]

    def test_sweep_requests_skip_the_window(self):
        b = make(window=100.0)
        busy(b)
        t = b.submit("sweep", [mm_spec(1), mm_spec(2)], now=0.0)
        assert b.next_event(0.0) == 0.0
        batches, _ = b.poll(0.0)
        assert len(batches) == 1
        assert batches[0].tickets == [t]
        assert len(batches[0].specs) == 2


class TestDeadlines:
    def test_expired_request_shed_while_batchmates_answer(self):
        b = make(window=1.0)
        doomed = b.submit("predict", [mm_spec(1)], now=0.0, deadline=0.5)
        alive = b.submit("predict", [mm_spec(2)], now=0.0, deadline=5.0)
        batches, shed = b.poll(1.0)
        assert shed == [doomed]
        assert doomed.done and isinstance(doomed.error, Shed)
        assert doomed.error.reason == SHED_DEADLINE
        assert len(batches) == 1
        assert batches[0].tickets == [alive]
        batches[0].settle([["ok"]])
        assert alive.results == ["ok"]

    def test_deadline_sheds_before_window_closes(self):
        """While a batch is in flight, a poll between deadline and
        window expiry sheds the expired ticket even though its group is
        not yet due."""
        b = make(window=10.0)
        busy(b)
        doomed = b.submit("predict", [mm_spec(1)], now=0.0, deadline=1.0)
        b.submit("predict", [mm_spec(2)], now=0.0)
        assert b.next_event(0.0) == pytest.approx(1.0)  # the deadline
        batches, shed = b.poll(1.0)
        assert shed == [doomed] and batches == []
        assert b.queue_depth() == 1

    def test_default_deadline_applies(self):
        b = make(window=5.0, deadline=1.0)
        t = b.submit("predict", [mm_spec()], now=0.0)
        assert t.deadline == pytest.approx(1.0)
        _, shed = b.poll(2.0)
        assert shed == [t]

    def test_expired_sweep_is_shed(self):
        b = make()
        t = b.submit("sweep", [mm_spec(1)], now=0.0, deadline=0.5)
        batches, shed = b.poll(1.0)
        assert batches == [] and shed == [t]


class TestAdmission:
    def test_queue_full_sheds_with_429_reason(self):
        b = make(window=100.0, queue_limit=2)
        b.submit("predict", [mm_spec(1)], now=0.0)
        b.submit("predict", [mm_spec(2)], now=0.0)
        with pytest.raises(Shed) as exc:
            b.submit("predict", [mm_spec(3)], now=0.0)
        assert exc.value.reason == SHED_QUEUE_FULL

    def test_empty_request_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            make().submit("predict", [], now=0.0)

    def test_shed_metrics_recorded(self):
        with scoped_registry() as registry:
            b = make(window=100.0, queue_limit=1)
            b.submit("predict", [mm_spec(1)], now=0.0)
            with pytest.raises(Shed):
                b.submit("predict", [mm_spec(2)], now=0.0)
            snap = registry.snapshot()
            assert snap.counter_value(
                "serve.shed", reason=SHED_QUEUE_FULL
            ) == 1


class TestDrain:
    def test_drain_refuses_new_but_flushes_queued(self):
        b = make(window=1.0)
        t = b.submit("predict", [mm_spec()], now=0.0)
        b.begin_drain()
        with pytest.raises(Shed) as exc:
            b.submit("predict", [mm_spec(2)], now=0.0)
        assert exc.value.reason == SHED_DRAINING
        batches, _ = b.poll(1.0)
        assert len(batches) == 1
        assert not b.idle(), "in-flight batch keeps the batcher busy"
        batches[0].settle([["ok"]])
        b.complete(batches[0])
        assert b.idle()
        assert t.results == ["ok"]

    def test_idle_accounting(self):
        b = make(window=0.0)
        assert b.idle()
        b.submit("predict", [mm_spec()], now=0.0)
        assert not b.idle()
        batches, _ = b.poll(0.0)
        assert not b.idle()
        b.complete(batches[0])
        assert b.idle()


class TestMetrics:
    def test_batch_metrics_recorded(self):
        with scoped_registry() as registry:
            b = make(window=0.0)
            b.submit("predict", [mm_spec(1)], now=0.0)
            b.submit("predict", [mm_spec(2)], now=0.0)
            b.poll(0.0)
            snap = registry.snapshot()
            assert snap.counter_value("serve.batches") == 1
            assert snap.counter_value("serve.coalesced") == 1
            stats = snap.histogram_stats("serve.batch_size")
            assert stats["count"] == 1
            assert stats["sum"] == 2

    def test_queue_depth_gauge_tracks(self):
        with scoped_registry() as registry:
            b = make(window=100.0)
            b.submit("predict", [mm_spec()], now=0.0)
            assert (
                registry.snapshot().gauge_value("serve.queue_depth") == 1
            )
            b.poll(100.0)
            assert (
                registry.snapshot().gauge_value("serve.queue_depth") == 0
            )


class TestNextEvent:
    def test_empty_batcher_has_no_event(self):
        assert make().next_event(0.0) is None

    def test_never_in_the_past(self):
        b = make(window=1.0)
        b.submit("predict", [mm_spec()], now=0.0)
        assert b.next_event(5.0) == 5.0
