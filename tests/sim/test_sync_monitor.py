"""Unit tests for the all-of join."""

import pytest

from repro.sim import AllOf, Environment


class TestConditions:
    def test_allof_empty_fires_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        env.run(until=cond)
        assert cond.value == {}

    def test_allof_waits_for_slowest(self):
        env = Environment()
        events = [env.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        cond = AllOf(env, events)
        env.run(until=cond)
        assert env.now == 3.0
        assert sorted(cond.value.values()) == [1.0, 2.0, 3.0]

    def test_allof_over_processed_events(self):
        env = Environment()
        a = env.timeout(1.0, "a")
        b = env.timeout(2.0, "b")
        env.run()
        cond = AllOf(env, [a, b])
        env.run(until=cond)
        assert set(cond.value.values()) == {"a", "b"}

    def test_allof_failure_propagates(self):
        env = Environment()
        good = env.timeout(5.0)
        bad = env.event()
        env.timeout(1.0).callbacks.append(
            lambda e: bad.fail(RuntimeError("dep failed"))
        )
        cond = AllOf(env, [good, bad])
        with pytest.raises(RuntimeError, match="dep failed"):
            env.run(until=cond)

    def test_cross_environment_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(ValueError):
            AllOf(env1, [env1.timeout(1.0), env2.timeout(1.0)])
