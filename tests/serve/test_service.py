"""Runtime drivers: the simulated-time SyncDriver and the asyncio
service, both against a deterministic fake engine (no DES, no
sockets; the asyncio tests use event-driven dispatchers and either
zero-length windows or windows they must not wait for, so nothing
sleeps)."""

import asyncio
import threading

import pytest

from repro.apps import MatMulApp
from repro.errors import TopologyError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec
from repro.serve.api import APP_PROFILES
from repro.serve.backend import PredictionBackend
from repro.serve.core import SHED_DEADLINE, ServeConfig, Shed
from repro.serve.service import PredictionService, SyncDriver


def mm_spec(p=4):
    return RunSpec.for_app(MatMulApp, 6000, 144, places=p)


class FakeEngine:
    """Deterministic dispatcher: records batches, answers P as float."""

    def __init__(self, fail=False):
        self.batches = []
        self.fail = fail

    def __call__(self, specs):
        self.batches.append(list(specs))
        if self.fail:
            raise RuntimeError("boom")
        return [float(spec.places) for spec in specs]


class TestSyncDriver:
    def test_batched_dispatch_on_virtual_time(self):
        engine = FakeEngine()
        driver = SyncDriver(engine, ServeConfig(batch_window=1.0))
        # Hold one batch in flight, as a busy consumer would.
        driver.submit("sweep", [mm_spec(8)])
        (held,), _ = driver.batcher.poll(driver.now)
        t1 = driver.submit("predict", [mm_spec(1)])
        t2 = driver.submit("predict", [mm_spec(2)])
        assert driver.pump() == 0, "window still open"
        assert driver.advance(1.0) == 1
        assert engine.batches == [[mm_spec(1), mm_spec(2)]]
        assert t1.results == [1.0] and t2.results == [2.0]
        driver.batcher.complete(held)
        assert driver.batcher.idle()

    def test_run_until_idle(self):
        engine = FakeEngine()
        driver = SyncDriver(engine, ServeConfig(batch_window=2.0))
        tickets = [
            driver.submit("predict", [mm_spec(p)]) for p in (1, 2, 3)
        ]
        driver.run_until_idle()
        assert all(t.done for t in tickets)
        assert driver.batcher.idle()

    def test_batched_coalesces_the_wave(self):
        """The fig9-mm wave (D 6000, T 144, P 1..56) arriving inside
        one window dispatches once, with all 56 specs, shedding none."""
        engine = FakeEngine()
        driver = SyncDriver(engine, ServeConfig(batch_window=0.005))
        tickets = [
            driver.submit("predict", [mm_spec(p)]) for p in range(1, 57)
        ]
        driver.run_until_idle()
        assert [len(batch) for batch in engine.batches] == [56]
        assert all(t.error is None for t in tickets)
        assert [t.results for t in tickets] == [
            [float(p)] for p in range(1, 57)
        ]

    def test_sequential_dispatches_one_batch_per_request(self):
        """The same wave sent one request at a time dispatches 56
        times."""
        engine = FakeEngine()
        config = ServeConfig(batch_window=0.005)
        driver = SyncDriver(engine, config)
        for p in range(1, 57):
            ticket = driver.submit("predict", [mm_spec(p)])
            driver.advance(config.batch_window)
            assert ticket.results == [float(p)]
        assert [len(batch) for batch in engine.batches] == [1] * 56

    def test_dispatch_failure_fails_every_ticket(self):
        driver = SyncDriver(FakeEngine(fail=True), ServeConfig(
            batch_window=0.0
        ))
        t = driver.submit("predict", [mm_spec()])
        driver.pump()
        assert t.done and isinstance(t.error, RuntimeError)

    def test_failed_batch_is_dispatched_again_ticket_by_ticket(self):
        def engine(specs):
            engine.batches.append([spec.places for spec in specs])
            if any(spec.places == 300 for spec in specs):
                raise RuntimeError("bad point")
            return [float(spec.places) for spec in specs]

        engine.batches = []
        driver = SyncDriver(engine, ServeConfig(batch_window=0.0))
        ok4, bad, ok8 = [
            driver.submit("predict", [mm_spec(p)]) for p in (4, 300, 8)
        ]
        assert driver.pump() == 1
        assert engine.batches == [[4, 300, 8], [4], [300], [8]]
        assert ok4.results == [4.0] and ok4.error is None
        assert ok8.results == [8.0] and ok8.error is None
        assert bad.results is None and isinstance(bad.error, RuntimeError)

    def test_infeasible_point_fails_only_its_own_ticket(self):
        """On the hybrid backend, mm at P=300 (past the card's 224
        threads) coalesced with P=4 and P=8 fails alone."""
        backend = PredictionBackend(engine="hybrid")
        driver = SyncDriver(
            backend.evaluate, ServeConfig(batch_window=0.0), backend=backend
        )
        mm = APP_PROFILES["mm"]
        ok4, bad, ok8 = [
            driver.submit("predict", [mm.spec(p, None, None)])
            for p in (4, 300, 8)
        ]
        assert driver.pump() == 1
        assert isinstance(bad.error, TopologyError)
        for ticket, places in ((ok4, 4), (ok8, 8)):
            assert ticket.error is None
            (run,) = ticket.results
            assert run.places == places and run.elapsed > 0

    def test_latency_metrics_on_virtual_clock(self):
        with scoped_registry() as registry:
            driver = SyncDriver(FakeEngine(), ServeConfig(batch_window=3.0))
            driver.submit("predict", [mm_spec()])
            driver.advance(3.0)
            stats = registry.snapshot().histogram_stats(
                "serve.latency_seconds", endpoint="predict"
            )
            assert stats["count"] == 1
            assert stats["sum"] == pytest.approx(3.0)

    def test_request_status_counters(self):
        with scoped_registry() as registry:
            driver = SyncDriver(FakeEngine(), ServeConfig(
                batch_window=1.0, default_deadline=0.5
            ))
            driver.submit("predict", [mm_spec()])
            driver.advance(1.0)  # past the deadline: shed
            snap = registry.snapshot()
            assert snap.counter_value(
                "serve.requests",
                endpoint="predict",
                status=f"shed_{SHED_DEADLINE}",
            ) == 1


class TestAsyncService:
    def test_concurrent_submissions_coalesce(self):
        async def scenario():
            engine = FakeEngine()
            service = PredictionService(
                None, ServeConfig(batch_window=0.0), dispatcher=engine
            )
            await service.start()
            try:
                tickets = await asyncio.gather(
                    *(
                        service.submit("predict", [mm_spec(p)])
                        for p in (1, 2, 3)
                    )
                )
                assert [t.results for t in tickets] == [
                    [1.0], [2.0], [3.0]
                ]
                # All three arrived before the first flush ran, so they
                # ride at most two batches (typically one).
                assert len(engine.batches) <= 2
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_lone_request_does_not_wait_for_the_window(self):
        async def scenario():
            service = PredictionService(
                None, ServeConfig(batch_window=60.0), dispatcher=FakeEngine()
            )
            await service.start()
            try:
                ticket = await asyncio.wait_for(
                    service.submit("predict", [mm_spec(4)]), timeout=10
                )
                assert ticket.results == [4.0]
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_arrivals_behind_a_busy_consumer_leave_as_one_batch(self):
        """Three predicts submitted while the first is held go out as
        one batch once the gate opens — long before the window."""

        async def scenario():
            loop = asyncio.get_running_loop()
            held = asyncio.Event()
            gate = threading.Event()
            engine = FakeEngine()

            def gated_engine(specs):
                loop.call_soon_threadsafe(held.set)
                gate.wait(timeout=10)
                return engine(specs)

            service = PredictionService(
                None, ServeConfig(batch_window=60.0), dispatcher=gated_engine
            )
            await service.start()
            try:
                first = asyncio.create_task(
                    service.submit("predict", [mm_spec(1)])
                )
                await asyncio.wait_for(held.wait(), timeout=10)
                rest = [
                    asyncio.create_task(
                        service.submit("predict", [mm_spec(p)])
                    )
                    for p in (2, 3, 4)
                ]
                await asyncio.sleep(0)  # the three submissions queue
                assert service.batcher.queue_depth() == 3
                gate.set()
                tickets = await asyncio.wait_for(
                    asyncio.gather(first, *rest), timeout=10
                )
                assert [t.results for t in tickets] == [
                    [1.0], [2.0], [3.0], [4.0]
                ]
                assert engine.batches == [
                    [mm_spec(1)], [mm_spec(2), mm_spec(3), mm_spec(4)]
                ]
            finally:
                gate.set()
                await service.stop()

        asyncio.run(scenario())

    def test_submit_requires_start(self):
        async def scenario():
            service = PredictionService(
                None, ServeConfig(), dispatcher=FakeEngine()
            )
            with pytest.raises(RuntimeError):
                await service.submit("predict", [mm_spec()])

        asyncio.run(scenario())

    def test_dispatch_error_resolves_ticket(self):
        async def scenario():
            service = PredictionService(
                None,
                ServeConfig(batch_window=0.0),
                dispatcher=FakeEngine(fail=True),
            )
            await service.start()
            try:
                ticket = await service.submit("predict", [mm_spec()])
                assert isinstance(ticket.error, RuntimeError)
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_drain_completes_in_flight_work(self):
        """Drain refuses new work but waits for the dispatched batch.

        The dispatcher blocks on a gate the test only opens *after*
        drain has begun — deterministic, no sleeps.
        """

        async def scenario():
            gate = threading.Event()
            released = []

            def slow_engine(specs):
                gate.wait(timeout=10)
                released.append(list(specs))
                return [float(s.places) for s in specs]

            service = PredictionService(
                None, ServeConfig(batch_window=0.0), dispatcher=slow_engine
            )
            await service.start()
            try:
                submit = asyncio.create_task(
                    service.submit("sweep", [mm_spec(1), mm_spec(2)])
                )
                # Wait until the batch is actually in flight.
                while service.batcher.in_flight == 0:
                    await asyncio.sleep(0)
                drain = asyncio.create_task(service.drain(timeout=10))
                await asyncio.sleep(0)  # let drain flip the batcher
                with pytest.raises(Shed):
                    await service.submit("predict", [mm_spec(3)])
                gate.set()
                assert await drain is True
                ticket = await submit
                assert ticket.results == [1.0, 2.0]
                assert released == [[mm_spec(1), mm_spec(2)]]
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_drain_timeout_reports_false(self):
        async def scenario():
            gate = threading.Event()

            def stuck_engine(specs):
                gate.wait(timeout=10)
                return [float(s.places) for s in specs]

            service = PredictionService(
                None, ServeConfig(batch_window=0.0), dispatcher=stuck_engine
            )
            await service.start()
            try:
                submit = asyncio.create_task(
                    service.submit("predict", [mm_spec()])
                )
                while service.batcher.in_flight == 0:
                    await asyncio.sleep(0)
                assert await service.drain(timeout=0.01) is False
                gate.set()
                await submit
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_health_payload(self):
        class FakeBackend:
            def health(self):
                return {"engine": "fake"}

            def evaluate(self, specs):
                return [float(s.places) for s in specs]

        async def scenario():
            service = PredictionService(
                FakeBackend(), ServeConfig(batch_window=0.25)
            )
            await service.start()
            try:
                info = service.health()
                assert info["status"] == "ok"
                assert info["engine"] == "fake"
                assert info["config"]["batch_window_ms"] == 250.0
                service.batcher.begin_drain()
                assert service.health()["status"] == "draining"
            finally:
                await service.stop()

        asyncio.run(scenario())
