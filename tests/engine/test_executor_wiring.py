"""Executor-level engine dispatch and chunked batching."""

import pytest

from repro.apps import MatMulApp
from repro.errors import ConfigurationError
from repro.parallel import (
    RetryPolicy,
    RunSpec,
    SimulationCache,
    SweepExecutor,
    run_sweep,
)


def _specs(n=8):
    return [
        RunSpec.for_app(MatMulApp, 2000, 25, places=p)
        for p in range(1, n + 1)
    ]


class TestChunksize:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=2, chunksize=0)

    def test_explicit_chunksize_wins(self):
        ex = SweepExecutor(jobs=2, chunksize=5)
        assert ex._effective_chunksize(1000) == 5

    def test_default_scales_with_grid_and_jobs(self):
        ex = SweepExecutor(jobs=4)
        # Small grids stay unbatched; large grids batch up to 8.
        assert ex._effective_chunksize(12) == 1
        assert ex._effective_chunksize(64) == 4
        assert ex._effective_chunksize(336) == 8

    def test_only_a_deadline_disables_batching(self):
        # Attempts are accounted per spec inside a task, so retries
        # batch; a per-attempt deadline can only be enforced on a whole
        # task, so it forces one spec per task.
        retrying = SweepExecutor(
            jobs=4, retry=RetryPolicy(max_retries=2), chunksize=8
        )
        assert retrying._effective_chunksize(336) == 8
        deadlined = SweepExecutor(
            jobs=4, retry=RetryPolicy(max_retries=2, timeout=1.0), chunksize=8
        )
        assert deadlined._effective_chunksize(336) == 1

    def test_chunked_results_match_serial(self):
        specs = _specs(12)
        serial = SweepExecutor(jobs=1).map(specs)
        cache = SimulationCache()
        chunked = SweepExecutor(jobs=4, cache=cache, chunksize=3).map(specs)
        assert [r.elapsed for r in chunked] == [r.elapsed for r in serial]
        assert [r.gflops for r in chunked] == [r.gflops for r in serial]
        assert cache.stats.puts == len(specs)


class TestRunSweepPassthrough:
    def test_engine_and_chunksize_forwarded(self):
        specs = _specs(4)
        baseline = run_sweep(specs, jobs=1)
        modeled = run_sweep(specs, jobs=1, engine="model")
        assert all(run.engine == "model" for run in modeled)
        for run, ref in zip(modeled, baseline):
            assert run.elapsed == pytest.approx(ref.elapsed, rel=1e-9)
        chunked = run_sweep(specs, jobs=2, chunksize=2)
        assert [r.elapsed for r in chunked] == [r.elapsed for r in baseline]


class TestEngineDispatch:
    def test_map_delegates_to_engine_object(self):
        calls = []

        class Probe:
            name = "probe"

            def map(self, executor, specs):
                calls.append((executor, list(specs)))
                return [None] * len(specs)

        specs = _specs(3)
        ex = SweepExecutor(jobs=1, engine=Probe())
        assert ex.engine == "probe"
        ex.map(specs)
        assert len(calls) == 1
        assert calls[0][0] is ex
        assert calls[0][1] == specs

    def test_map_sim_still_available_to_engines(self):
        # Engines lean on the executor's native path for their DES
        # portion; it must behave exactly like a sim-engine map().
        specs = _specs(3)
        ex = SweepExecutor(jobs=1)
        assert [r.elapsed for r in ex._map_sim(specs)] == [
            r.elapsed for r in SweepExecutor(jobs=1).map(specs)
        ]
