"""Unit tests for contended resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource


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
