"""Unit tests for generator-coroutine processes."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Process


class TestProcessBasics:
    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_runs_and_returns(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return "finished"

        p = env.process(proc())
        result = env.run(until=p)
        assert result == "finished"
        assert env.now == 3.0
        assert not p.is_alive

    def test_timeout_value_sent_back(self):
        env = Environment()

        def proc():
            got = yield env.timeout(1.0, value=99)
            return got

        assert env.run(until=env.process(proc())) == 99

    def test_process_exception_propagates_via_run(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("kernel panic")

        p = env.process(proc())
        with pytest.raises(RuntimeError, match="kernel panic"):
            env.run(until=p)

    def test_unwaited_process_exception_crashes_run(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("silent failure")

        env.process(proc())
        with pytest.raises(RuntimeError, match="silent failure"):
            env.run()

    def test_yield_non_event_raises(self):
        env = Environment()

        def proc():
            yield 42  # type: ignore[misc]

        env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_process_waits_on_process(self):
        env = Environment()

        def child():
            yield env.timeout(5.0)
            return "child-value"

        def parent():
            value = yield env.process(child())
            return value

        assert env.run(until=env.process(parent())) == "child-value"
        assert env.now == 5.0

    def test_child_failure_propagates_to_parent(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            raise ValueError("child died")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                return f"handled: {exc}"

        assert env.run(until=env.process(parent())) == "handled: child died"

    def test_yield_already_processed_event_resumes_same_time(self):
        env = Environment()
        done = env.timeout(1.0, value="past")

        def proc():
            yield env.timeout(2.0)
            got = yield done  # processed long ago
            assert env.now == 2.0
            return got

        assert env.run(until=env.process(proc())) == "past"

    def test_many_concurrent_processes_interleave(self):
        env = Environment()
        log = []

        def worker(name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))
            yield env.timeout(delay)
            log.append((env.now, name))

        for i in range(3):
            env.process(worker(f"w{i}", i + 1.0))
        env.run()
        assert log == [
            (1.0, "w0"),
            (2.0, "w1"),
            (2.0, "w0"),
            (3.0, "w2"),
            (4.0, "w1"),
            (6.0, "w2"),
        ]


class TestProcessLifetime:
    def test_finished_process_is_freed_without_the_cyclic_gc(self):
        """A finished process holds no reference back to itself, so
        dropping the last outside reference frees it at once."""

        class Tracked(Process):
            __slots__ = ("__weakref__",)

        def proc(env):
            yield env.timeout(1.0)
            return "done"

        enabled = gc.isenabled()
        gc.disable()
        try:
            env = Environment()
            process = Tracked(env, proc(env))
            assert env.run(until=process) == "done"
            ref = weakref.ref(process)
            del process
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
