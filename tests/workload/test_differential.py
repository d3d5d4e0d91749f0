"""The differential property harness over arbitrary scenarios.

Three consumers, one spec, three agreement contracts:

* **a batch equals its points, bit for bit.**  The grid evaluator
  answers a partition sweep (on one card and on two) exactly as it
  answers each point alone from cleared caches; Hypothesis demands
  exact float equality over the whole DSL space.
* **model tracks the DES.**  The model's only approximation is
  link-grant ordering; on generated scenarios it must stay within the
  hybrid engine's certification tolerance of the simulated truth.
* **hybrid certifies or falls back.**  For every generated scenario
  family the hybrid engine either certifies (calibration points within
  tolerance, rest answered by the model) or demonstrably falls back to
  simulation — and its answers are always within tolerance of a pure
  DES sweep.
"""

from hypothesis import given, settings

from repro.engine import DEFAULT_TOLERANCE, predict_run, predict_runs
from repro.engine.grid import clear_grid_caches
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SweepExecutor
from repro.workload import ScenarioGenerator, WorkloadApp
from tests.strategies import workload_specs

PLACES = (1, 2, 3, 5, 8, 13)


@settings(max_examples=40, deadline=None)
@given(workload=workload_specs())
def test_grid_equals_scalar_model_bit_exactly(workload):
    specs = [RunSpec.for_workload(workload, places=p) for p in PLACES]
    specs += [
        RunSpec.for_workload(workload, places=p, num_devices=2)
        for p in PLACES
        if p >= 2
    ]
    clear_grid_caches()
    grid_runs = predict_runs(specs)
    for spec, grid_run in zip(specs, grid_runs):
        clear_grid_caches()
        alone = predict_run(spec)
        assert grid_run.elapsed == alone.elapsed
        assert grid_run.gflops == alone.gflops
        assert grid_run.app == alone.app
        assert grid_run.tiles == alone.tiles
        assert grid_run.engine == alone.engine == "model"
    clear_grid_caches()


@settings(max_examples=25, deadline=None)
@given(workload=workload_specs())
def test_model_tracks_des_within_certification_tolerance(workload):
    app = WorkloadApp(workload)
    for p in (1, 3, 8):
        des = app.run(places=p).elapsed
        model = RunSpec.for_workload(workload, places=p).predict().elapsed
        assert abs(model - des) <= DEFAULT_TOLERANCE * des


def test_hybrid_certifies_or_falls_back_per_scenario():
    gen = ScenarioGenerator(seed=21)
    scenarios = [
        gen.generate(dist, 0)
        for dist in ("balanced", "transfer_heavy", "irregular",
                     "multi_phase", "co_resident")
    ]
    for workload in scenarios:
        specs = [
            RunSpec.for_workload(workload, places=p) for p in range(1, 9)
        ]
        with scoped_registry():
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
        engines = [r.engine for r in runs]
        if "model" in engines:
            # Certified: only the calibration points were simulated.
            n_sim = sum(1 for e in engines if e == "sim")
            assert 0 < n_sim < len(engines)
        else:
            # Fallback: every point demonstrably came from the DES.
            assert engines == ["sim"] * len(specs)
        # Either way the answers track a pure DES sweep.
        for spec, run in zip(specs, runs):
            truth = spec.execute().elapsed
            assert abs(run.elapsed - truth) <= DEFAULT_TOLERANCE * truth


def test_two_scenarios_never_share_a_certification_family():
    gen = ScenarioGenerator(seed=33)
    w1, w2 = gen.generate("balanced", 0), gen.generate("balanced", 1)
    specs = [
        RunSpec.for_workload(w, places=p)
        for w in (w1, w2)
        for p in range(1, 7)
    ]
    with scoped_registry():
        runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
    half = len(specs) // 2
    for part in (runs[:half], runs[half:]):
        # Each scenario was calibrated independently: simulated points
        # appear in *both* halves (a shared family would calibrate once
        # and answer the second scenario's points purely by model).
        assert any(r.engine == "sim" for r in part)
