"""Additional edge-case tests for the DES engine."""

from repro.sim import Environment, Resource


class TestEventEdgeCases:
    def test_callbacks_none_after_processing(self):
        env = Environment()
        ev = env.timeout(1.0)
        env.run()
        assert ev.callbacks is None  # documented contract

    def test_repr_states(self):
        env = Environment()
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)
        env.run()
        assert "processed" in repr(ev)


class TestProcessEdgeCases:
    def test_process_returning_immediately(self):
        env = Environment()

        def instant():
            return "done"
            yield  # pragma: no cover

        assert env.run(until=env.process(instant())) == "done"
        assert env.now == 0.0

    def test_nested_process_chain(self):
        env = Environment()

        def leaf(depth):
            yield env.timeout(1.0)
            return depth

        def node(depth):
            if depth == 0:
                result = yield env.process(leaf(0))
            else:
                result = yield env.process(node(depth - 1))
            return result + 1

        assert env.run(until=env.process(node(5))) == 6
        assert env.now == 1.0


class TestResourceEdgeCases:
    def test_release_then_regrant_same_tick(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def quick(name):
            with res.request() as req:
                yield req
                order.append(name)

        for name in "abc":
            env.process(quick(name))
        env.run()
        assert order == ["a", "b", "c"]
        assert env.now == 0.0  # zero-duration holds all resolve at t=0
