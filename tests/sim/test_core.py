"""Unit tests for the DES core: events, timeouts, environment run loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event, Resource
from repro.sim.core import EventAlreadyTriggered


class TestEvent:
    def test_starts_pending(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value(self):
        env = Environment()
        ev = env.event().succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self):
        env = Environment()
        ev = env.event().succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_then_succeed_raises(self):
        env = Environment()
        ev = env.event().fail(RuntimeError("x"))
        ev.defused()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_process(self):
        env = Environment()
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert ev.processed

    def test_unhandled_failure_raises_from_run(self):
        env = Environment()
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_does_not_raise(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defused()
        env.run()  # no exception
        assert not ev.ok


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(2.5)
        env.run()
        assert env.now == 2.5

    def test_timeout_carries_value(self):
        env = Environment()
        t = env.timeout(1.0, value="done")
        result = env.run(until=t)
        assert result == "done"

    def test_timeouts_process_in_time_order(self):
        env = Environment()
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = env.timeout(delay)
            t.callbacks.append(lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_time_ties_broken_by_insertion_order(self):
        env = Environment()
        order = []
        for tag in "abc":
            t = env.timeout(1.0)
            t.callbacks.append(lambda e, s=tag: order.append(s))
        env.run()
        assert order == ["a", "b", "c"]


class TestEnvironmentRun:
    def test_run_until_time_sets_now(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_untriggerable_event_raises(self):
        env = Environment()
        ev = env.event()  # never triggered
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_run_until_processed_event_returns_immediately(self):
        env = Environment()
        t = env.timeout(1.0, value=7)
        env.run()
        assert env.run(until=t) == 7

    def test_run_until_failed_event_reraises(self):
        env = Environment()
        ev = env.event()
        env.timeout(0.5).callbacks.append(
            lambda e: ev.fail(KeyError("k"))
        )
        with pytest.raises(KeyError):
            env.run(until=ev)

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env.timeout(1.0)
        env.run()
        assert env.now == 101.0

    def test_clock_never_goes_backwards(self):
        env = Environment()
        stamps = []
        for d in (5.0, 1.0, 3.0, 1.0):
            env.timeout(d).callbacks.append(
                lambda e: stamps.append(env.now)
            )
        env.run()
        assert stamps == sorted(stamps)


def _timeout_churn(env):
    for i in range(20_000):
        env.timeout(float(i % 97))


def _process_spawn(env):
    def proc():
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    for _ in range(5_000):
        env.process(proc())


def _resource_contention(env):
    res = Resource(env, capacity=2)

    def worker():
        with res.request() as req:
            yield req
            yield env.timeout(0.001)

    for _ in range(3_000):
        env.process(worker())


@pytest.mark.parametrize(
    "load, end",
    [(_timeout_churn, 96.0), (_process_spawn, 2.0),
     (_resource_contention, 1.5)],
)
def test_heavy_load_ends_at_known_time(load, end):
    """Heap churn, process creation and queueing on one resource at
    scale: each run ends at its closed-form time."""
    env = Environment()
    load(env)
    env.run()
    assert round(env.now, 6) == end


class TestEventComposition:
    def test_and_waits_for_both(self):
        env = Environment()
        a, b = env.timeout(1.0, "a"), env.timeout(2.0, "b")
        both = env.all_of([a, b])
        env.run(until=both)
        assert env.now == 2.0
        assert set(both.value.values()) == {"a", "b"}
