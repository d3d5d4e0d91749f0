"""Engine resolution, hybrid certification and fallback, metrics, cache."""

import pytest

from repro.apps import MatMulApp
from repro.engine import HybridEngine, ModelEngine, resolve_engine
from repro.errors import ConfigurationError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SimulationCache, SweepExecutor


def _mm_specs(places=(1, 2, 4, 8, 13, 28, 56)):
    return [
        RunSpec.for_app(MatMulApp, 3000, 36, places=p) for p in places
    ]


class TestResolveEngine:
    def test_sim_resolves_to_none(self):
        assert resolve_engine("sim") is None
        assert resolve_engine(None) is None

    def test_names_resolve_to_engines(self):
        assert isinstance(resolve_engine("model"), ModelEngine)
        assert isinstance(resolve_engine("hybrid"), HybridEngine)

    def test_instance_passes_through(self):
        engine = HybridEngine(tolerance=0.02)
        assert resolve_engine(engine) is engine

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("warp-drive")

    def test_hybrid_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            HybridEngine(tolerance=0.0)
        with pytest.raises(ConfigurationError):
            HybridEngine(calibration_points=0)


class TestModelEngine:
    def test_matches_simulation_and_counts_points(self):
        specs = _mm_specs()
        baseline = SweepExecutor(jobs=1).map(specs)
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="model").map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "model" for run in runs)
        for run, ref in zip(runs, baseline):
            assert run.elapsed == pytest.approx(ref.elapsed, rel=1e-9)
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(specs)


class TestHybridEngine:
    def test_certified_family_mixes_calibration_and_model(self):
        specs = _mm_specs()
        baseline = SweepExecutor(jobs=1).map(specs)
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()

        backends = [run.engine for run in runs]
        assert backends.count("sim") == 3  # the calibration spread
        assert backends.count("model") == len(specs) - 3
        # Calibration spreads across the family: first and last spec
        # are always simulated.
        assert runs[0].engine == "sim"
        assert runs[-1].engine == "sim"
        for run, ref in zip(runs, baseline):
            assert run.elapsed == pytest.approx(ref.elapsed, rel=1e-9)

        assert snapshot.counter_value("engine.calibration_points") == 3
        assert snapshot.counter_value("engine.families_certified") == 1
        assert snapshot.counter_value("engine.families_fallback") == 0
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(specs) - 3
        assert snapshot.counter_value("engine.points", backend="sim") == 3
        assert snapshot.gauge_value(
            "engine.calibration_error", family="matmulapp-d1-s1"
        ) == pytest.approx(0.0, abs=1e-9)
        assert snapshot.gauge_value("engine.fallback_rate") == pytest.approx(
            3 / len(specs)
        )

    def test_unsupported_family_falls_back_to_sim(self):
        specs = [
            RunSpec.for_app(
                MatMulApp, 3000, 36, places=p, streams_per_place=2
            )
            for p in (2, 4, 8)
        ]
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "sim" for run in runs)
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.counter_value("engine.families_certified") == 0
        assert snapshot.counter_value(
            "engine.points", backend="sim"
        ) == len(specs)
        assert snapshot.gauge_value("engine.fallback_rate") == 1.0

    def test_failed_certification_simulates_whole_family(self, monkeypatch):
        from repro.engine import grid

        real_evaluate = grid._CompiledFamily.evaluate

        def skewed_evaluate(self, places):
            return real_evaluate(self, places) * 1.5

        monkeypatch.setattr(
            grid._CompiledFamily, "evaluate", skewed_evaluate
        )
        specs = _mm_specs(places=(1, 2, 4, 8))
        baseline = SweepExecutor(jobs=1).map(specs)
        engine = HybridEngine()
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine=engine).map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "sim" for run in runs)
        for run, ref in zip(runs, baseline):
            assert run.elapsed == pytest.approx(ref.elapsed, rel=1e-9)
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.gauge_value(
            "engine.calibration_error", family="matmulapp-d1-s1"
        ) == pytest.approx(0.5, rel=1e-6)

    def test_calibration_error_reports_the_worst_family_of_a_label(
        self, monkeypatch
    ):
        # Two scenario families share one gauge label; the worse one is
        # calibrated first, and the later one must not overwrite it.
        from pathlib import Path

        from repro.engine import grid
        from repro.workload import WorkloadSpec

        scenarios = Path(__file__).parent.parent / "data" / "scenarios"
        workloads = [
            WorkloadSpec.from_json(
                (scenarios / f"balanced-0-{i}.json").read_text()
            )
            for i in (0, 1)
        ]
        skew = {workloads[0].name: 1.5, workloads[1].name: 1.1}
        real_evaluate = grid._CompiledFamily.evaluate

        def skewed_evaluate(self, places):
            return real_evaluate(self, places) * skew[self.app.workload.name]

        monkeypatch.setattr(
            grid._CompiledFamily, "evaluate", skewed_evaluate
        )
        specs = [
            RunSpec.for_workload(w, places=p)
            for w in workloads
            for p in (1, 2, 4)
        ]
        with scoped_registry() as registry:
            SweepExecutor(jobs=1, engine=HybridEngine()).map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value("engine.families_fallback") == 2
        assert snapshot.gauge_value(
            "engine.calibration_error", family="workloadapp-d1-s1"
        ) == pytest.approx(0.5, rel=1e-6)

    def test_model_results_never_enter_cache(self):
        cache = SimulationCache()
        specs = _mm_specs()
        with scoped_registry():
            SweepExecutor(jobs=1, cache=cache, engine="hybrid").map(specs)
        # Only the calibration points went through the DES path; the
        # model's predictions must not poison the simulation cache.
        assert cache.stats.puts == 3

        # A warm rerun re-certifies from the cache without simulating.
        with scoped_registry():
            SweepExecutor(jobs=1, cache=cache, engine="hybrid").map(specs)
        assert cache.stats.hits == 3
        assert cache.stats.puts == 3

    def test_custom_tolerance_instance_via_executor(self):
        engine = HybridEngine(tolerance=1e-12, calibration_points=2)
        specs = _mm_specs(places=(1, 4, 13))
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine=engine).map(specs)
            snapshot = registry.snapshot()
        # mm calibrates exactly, so even a near-zero tolerance certifies.
        assert snapshot.counter_value("engine.calibration_points") == 2
        assert [run.engine for run in runs] == ["sim", "model", "sim"]


@pytest.mark.parametrize("engine, des_runs", [("model", 0), ("hybrid", 3)])
def test_fig9_mm_full_grid_des_runs(engine, des_runs):
    """The fig9-mm full grid (D 6000, T 144, P 1..56) on a cold cache:
    the model engine runs no DES, the hybrid engine only its
    three-point calibration spread."""
    specs = [
        RunSpec.for_app(MatMulApp, 6000, 144, places=p)
        for p in range(1, 57)
    ]
    with scoped_registry() as registry:
        runs = SweepExecutor(cache=SimulationCache(), engine=engine).map(
            specs
        )
        snapshot = registry.snapshot()
    assert len(runs) == 56 and all(run.elapsed > 0 for run in runs)
    assert snapshot.counter_value("executor.runs_executed") == des_runs


class TestExecutorEngineAttr:
    def test_sim_attaches_no_engine(self):
        ex = SweepExecutor(jobs=1)
        assert ex._engine_impl is None
        assert ex.engine == "sim"

    def test_named_engines_attach(self):
        assert SweepExecutor(jobs=1, engine="model").engine == "model"
        assert SweepExecutor(jobs=1, engine="hybrid").engine == "hybrid"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=1, engine="quantum")
