"""Unit tests for resources, priority resources, stores and containers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, PriorityResource, Resource, Store


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_when_free(self):
        env = Environment()
        res = Resource(env)

        def proc():
            req = res.request()
            yield req
            assert res.count == 1
            res.release(req)
            assert res.count == 0

        env.run(until=env.process(proc()))

    def test_mutual_exclusion_serialises_holders(self):
        env = Environment()
        res = Resource(env, capacity=1)
        spans = []

        def worker(hold):
            with res.request() as req:
                yield req
                start = env.now
                yield env.timeout(hold)
                spans.append((start, env.now))

        for _ in range(4):
            env.process(worker(2.0))
        env.run()
        assert len(spans) == 4
        spans.sort()
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            assert s1 >= e0, "capacity-1 resource held concurrently"

    def test_capacity_n_allows_n_concurrent(self):
        env = Environment()
        res = Resource(env, capacity=3)
        peak = []

        def worker():
            with res.request() as req:
                yield req
                peak.append(res.count)
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(worker())
        env.run()
        assert max(peak) == 3

    def test_fifo_ordering(self):
        env = Environment()
        res = Resource(env)
        order = []

        def worker(name, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(10.0)

        env.process(worker("first", 0.0))
        env.process(worker("second", 1.0))
        env.process(worker("third", 2.0))
        env.run()
        assert order == ["first", "second", "third"]

    def test_release_foreign_request_raises(self):
        env = Environment()
        res = Resource(env)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimulationError):
                res.release(req)

        env.run(until=env.process(proc()))

    def test_cancel_waiting_request(self):
        env = Environment()
        res = Resource(env)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        def canceller():
            yield env.timeout(1.0)
            req = res.request()
            assert not req.triggered
            req.cancel()
            yield env.timeout(0.0)

        env.process(holder())
        env.process(canceller())
        env.run()
        assert res.count == 0
        assert res.queued == 0

    def test_holder_closed_while_queued_withdraws_its_request(self):
        # A process torn down mid-wait (a run abandoned with a transfer
        # still queued for the link) leaves nothing behind in the queue.
        env = Environment()
        res = Resource(env)
        first = res.request()

        def waiter():
            with res.request() as req:
                yield req

        gen = waiter()
        queued = next(gen)
        gen.close()
        assert queued.triggered and not queued.ok
        res.release(first)
        assert res.count == 0
        later = res.request()
        assert later.triggered and res.count == 1

    def test_cancel_granted_request_raises(self):
        env = Environment()
        res = Resource(env)

        def proc():
            req = res.request()
            yield req
            with pytest.raises(SimulationError):
                req.cancel()
            res.release(req)

        env.run(until=env.process(proc()))

    def test_observers_see_acquire_release(self):
        env = Environment()
        res = Resource(env)
        log = []
        res.observers.append(lambda kind, t, req: log.append((kind, t)))

        def proc():
            with res.request() as req:
                yield req
                yield env.timeout(3.0)

        env.run(until=env.process(proc()))
        assert log == [("acquire", 0.0), ("release", 3.0)]


class TestPriorityResource:
    def test_priority_overrides_fifo(self):
        env = Environment()
        res = PriorityResource(env)
        order = []

        def holder():
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(10.0)

        def worker(name, priority, arrive):
            yield env.timeout(arrive)
            with res.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1.0)

        env.process(holder())
        env.process(worker("low", 5, 1.0))
        env.process(worker("high", 1, 2.0))
        env.run()
        assert order == ["high", "low"]


class TestStore:
    def test_put_get_roundtrip(self):
        env = Environment()
        store = Store(env)

        def producer():
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1.0)

        def consumer():
            got = []
            for _ in range(3):
                item = yield store.get()
                got.append(item)
            return got

        env.process(producer())
        c = env.process(consumer())
        assert env.run(until=c) == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (env.now, item)

        def producer():
            yield env.timeout(4.0)
            yield store.put("late")

        c = env.process(consumer())
        env.process(producer())
        assert env.run(until=c) == (4.0, "late")

    def test_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            times.append(env.now)
            yield store.put("b")  # blocks until 'a' consumed
            times.append(env.now)

        def consumer():
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert times == [0.0, 5.0]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)


class TestContainer:
    def test_level_tracking(self):
        env = Environment()
        tank = Container(env, capacity=100.0, init=50.0)

        def proc():
            yield tank.get(30.0)
            assert tank.level == 20.0
            yield tank.put(60.0)
            assert tank.level == 80.0

        env.run(until=env.process(proc()))

    def test_get_blocks_until_available(self):
        env = Environment()
        tank = Container(env, capacity=100.0, init=0.0)

        def consumer():
            yield tank.get(10.0)
            return env.now

        def producer():
            yield env.timeout(3.0)
            yield tank.put(10.0)

        c = env.process(consumer())
        env.process(producer())
        assert env.run(until=c) == 3.0

    def test_put_blocks_at_capacity(self):
        env = Environment()
        tank = Container(env, capacity=10.0, init=10.0)

        def producer():
            yield tank.put(5.0)
            return env.now

        def consumer():
            yield env.timeout(2.0)
            yield tank.get(5.0)

        p = env.process(producer())
        env.process(consumer())
        assert env.run(until=p) == 2.0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, capacity=0.0)
        with pytest.raises(ValueError):
            Container(env, capacity=10.0, init=20.0)
        tank = Container(env, capacity=10.0)
        with pytest.raises(ValueError):
            tank.put(0.0)
        with pytest.raises(ValueError):
            tank.get(-1.0)
