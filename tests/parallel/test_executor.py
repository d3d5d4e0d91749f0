"""Executor tests: ordering, parallel/serial equivalence, fallbacks."""

import pickle

import pytest

from repro.apps import MatMulApp, NNApp
from repro.autotune import ConfigSpace, run_search
from repro.errors import ConfigurationError
from repro.parallel import (
    RunSpec,
    SimulationCache,
    SweepExecutor,
    resolve_jobs,
    run_sweep,
)

#: Small, fast specs (well under a second each) used throughout.
SPECS = [
    RunSpec.for_app(MatMulApp, 600, 4, places=1),
    RunSpec.for_app(MatMulApp, 600, 4, places=2),
    RunSpec.for_app(NNApp, 4096, 4, places=4),
    RunSpec.for_app(MatMulApp, 600, 4, places=2),  # duplicate of [1]
]


class TestRunSpec:
    def test_pickle_roundtrip(self):
        spec = SPECS[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_for_app_matches_direct_call(self):
        spec = RunSpec.for_app(MatMulApp, 600, 4, places=2)
        direct = MatMulApp(600, 4).run(places=2)
        via_spec = spec.execute()
        assert via_spec.elapsed == direct.elapsed
        assert via_spec.gflops == direct.gflops

    def test_kwarg_order_does_not_change_identity(self):
        a = RunSpec.for_app(MatMulApp, 600, 4, places=2, seed=0,
                            materialize=False)
        b = RunSpec.for_app(MatMulApp, 600, 4, places=2,
                            materialize=False, seed=0)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_geometry(self):
        keys = {
            RunSpec.for_app(MatMulApp, 600, 4, places=2).cache_key(),
            RunSpec.for_app(MatMulApp, 600, 4, places=4).cache_key(),
            RunSpec.for_app(MatMulApp, 600, 16, places=2).cache_key(),
            RunSpec.for_app(
                MatMulApp, 600, 4, places=2, streams_per_place=2
            ).cache_key(),
        }
        assert len(keys) == 4

    def test_timeline_stripped_by_default(self):
        run = SPECS[0].execute()
        assert run.timeline is None
        kept = RunSpec.for_app(
            MatMulApp, 600, 4, places=2, keep_timeline=True
        ).execute()
        assert kept.timeline is not None


class TestSweepExecutor:
    def test_serial_preserves_order(self):
        runs = SweepExecutor(jobs=1).map(SPECS)
        assert [r.places for r in runs] == [s.places for s in SPECS]
        # The duplicate spec reproduces the duplicate result exactly.
        assert runs[3].elapsed == runs[1].elapsed

    def test_parallel_bit_identical_to_serial(self):
        serial = SweepExecutor(jobs=1).map(SPECS)
        parallel = SweepExecutor(jobs=2).map(SPECS)
        assert [r.elapsed for r in parallel] == [r.elapsed for r in serial]
        assert [r.gflops for r in parallel] == [r.gflops for r in serial]
        assert [r.app for r in parallel] == [r.app for r in serial]

    def test_unpicklable_spec_falls_back_to_serial(self):
        class LocalApp(MatMulApp):
            """Defined inside a function: not picklable by reference."""

        spec = RunSpec.for_app(LocalApp, 600, 4, places=2)
        runs = SweepExecutor(jobs=2).map([SPECS[0], spec])
        reference = SweepExecutor(jobs=1).map([SPECS[0], spec])
        assert [r.elapsed for r in runs] == [r.elapsed for r in reference]

    def test_progress_callback_sees_every_run(self):
        seen = []
        ex = SweepExecutor(
            jobs=1, progress=lambda done, total, spec: seen.append(
                (done, total)
            )
        )
        ex.map(SPECS)
        assert seen == [(i + 1, len(SPECS)) for i in range(len(SPECS))]

    def test_run_one(self):
        run = SweepExecutor(jobs=1).run_one(SPECS[0])
        assert run.elapsed > 0

    def test_run_sweep_helper(self):
        runs = run_sweep(SPECS[:2], jobs=1)
        assert len(runs) == 2

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)


class TestSearchParallelEquivalence:
    def _space(self):
        return ConfigSpace(p_values=[1, 2, 4], t_values=[4, 16])

    def _spec_fn(self, config):
        return RunSpec.for_app(
            MatMulApp, 480, config.tiles, places=config.places
        )

    def test_history_order_identical_serial_vs_parallel(self):
        serial = run_search(space=self._space(), spec_fn=self._spec_fn)
        parallel = run_search(
            space=self._space(),
            spec_fn=self._spec_fn,
            executor=SweepExecutor(jobs=2),
        )
        assert [c for c, _ in serial.history] == [
            c for c, _ in parallel.history
        ]
        assert [t for _, t in serial.history] == [
            t for _, t in parallel.history
        ]
        assert serial.best == parallel.best
        assert serial.best_time == parallel.best_time

    def test_spec_mode_matches_objective_mode(self):
        objective = lambda c: (  # noqa: E731
            MatMulApp(480, c.tiles).run(places=c.places).elapsed
        )
        classic = run_search(objective, self._space())
        spec_based = run_search(space=self._space(), spec_fn=self._spec_fn)
        assert classic.history == spec_based.history

    def test_cached_executor_keeps_history_order(self):
        cache = SimulationCache()
        ex = SweepExecutor(jobs=1, cache=cache)
        first = run_search(
            space=self._space(), spec_fn=self._spec_fn, executor=ex
        )
        second = run_search(
            space=self._space(), spec_fn=self._spec_fn, executor=ex
        )
        assert first.history == second.history
        assert cache.stats.hits == first.evaluations

    def test_empty_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            run_search(space=None)
        with pytest.raises(ConfigurationError):
            run_search(space=self._space())


class TestExperimentEquivalence:
    """Parallel figure sweeps are bit-identical to the serial path."""

    def test_fig9_mm_parallel_matches_serial(self):
        from repro.experiments import fig9_partition_sweep

        ex_serial = SweepExecutor(jobs=1)
        ex_parallel = SweepExecutor(jobs=2)
        serial = fig9_partition_sweep.run_mm(fast=True, executor=ex_serial)
        parallel = fig9_partition_sweep.run_mm(
            fast=True, executor=ex_parallel
        )
        assert [s.values for s in serial.series] == [
            s.values for s in parallel.series
        ]

    def test_fig10_nn_parallel_matches_serial(self):
        from repro.experiments import fig10_tile_sweep

        serial = fig10_tile_sweep.run_nn(
            fast=True, executor=SweepExecutor(jobs=1)
        )
        parallel = fig10_tile_sweep.run_nn(
            fast=True, executor=SweepExecutor(jobs=2)
        )
        assert [s.values for s in serial.series] == [
            s.values for s in parallel.series
        ]

    @pytest.mark.parametrize("figure", ["fig5", "fig7"])
    def test_probe_figures_parallel_match_serial(self, figure):
        # The hBench probes pickle into pool workers by reference.
        from repro.experiments.__main__ import EXPERIMENTS

        serial = EXPERIMENTS[figure](executor=SweepExecutor(jobs=1))
        parallel = EXPERIMENTS[figure](executor=SweepExecutor(jobs=2))
        assert [s.values for s in serial.series] == [
            s.values for s in parallel.series
        ]


class TestProgressReporting:
    """The callback contract: exactly one call per spec, ``done``
    strictly 1..n, ``total`` always the full batch size — regardless of
    chunked dispatch or engine routing."""

    def _specs(self, n=8):
        return [
            RunSpec.for_app(MatMulApp, 600, 4, places=p)
            for p in range(1, n + 1)
        ]

    def test_chunked_dispatch_fires_once_per_spec(self):
        specs = self._specs(8)
        seen = []
        ex = SweepExecutor(
            jobs=2,
            chunksize=4,
            progress=lambda done, total, spec: seen.append((done, total)),
        )
        ex.map(specs)
        assert [done for done, _ in seen] == list(range(1, len(specs) + 1))
        assert all(total == len(specs) for _, total in seen)

    def test_engine_routed_batch_reports_whole_grid_total(self):
        from repro.metrics.registry import scoped_registry

        specs = [
            RunSpec.for_app(MatMulApp, 3000, 36, places=p)
            for p in (1, 2, 4, 8, 13, 28, 56)
        ]
        seen = []
        ex = SweepExecutor(
            jobs=1,
            engine="hybrid",
            progress=lambda done, total, spec: seen.append((done, total)),
        )
        with scoped_registry():
            ex.map(specs)
        # Calibration sims and model-answered points together cover the
        # batch exactly once, numbered against the whole grid.
        assert [done for done, _ in seen] == list(range(1, len(specs) + 1))
        assert all(total == len(specs) for _, total in seen)

    def test_model_engine_reports_every_point(self):
        from repro.metrics.registry import scoped_registry

        specs = [
            RunSpec.for_app(MatMulApp, 3000, 36, places=p)
            for p in (1, 4, 13)
        ]
        seen = []
        ex = SweepExecutor(
            jobs=1,
            engine="model",
            progress=lambda done, total, spec: seen.append((done, total)),
        )
        with scoped_registry():
            ex.map(specs)
        assert seen == [(1, 3), (2, 3), (3, 3)]
