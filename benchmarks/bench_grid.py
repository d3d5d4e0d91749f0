"""Grid-path benches (fig9-mm full grid, P=1..56).

Times the full 56-point MM partition sweep (D=6000, T=144 — the fig9a
full geometry) through the hybrid engine on a shared warm simulation
cache (the steady-state re-sweep that dominates the autotune / ML-tuner
workloads, where calibration is amortized and the per-point analytic
evaluation is the whole cost), the same sweep cold, and the pure
analytic grid evaluation.  ``test_fig9_mm_grid_predict`` also checks
the sweep's answers against the pinned model answers of
``tests/data/model_pins.json``.  ``scripts/bench_compare.py --suite
grid`` guards the timings against the committed ``BENCH_grid.json``.
"""

import json
from pathlib import Path

from repro.apps import MatMulApp
from repro.engine import HybridEngine, predict_grid
from repro.engine.grid import clear_grid_caches
from repro.parallel import RunSpec, SimulationCache, SweepExecutor

FULL_GRID = list(range(1, 57))

PINS = Path(__file__).resolve().parents[1] / "tests/data/model_pins.json"


def _specs():
    return [
        RunSpec.for_app(MatMulApp, 6000, 144, places=p) for p in FULL_GRID
    ]


def _sweep(engine, cache):
    executor = SweepExecutor(cache=cache, engine=engine)
    runs = executor.map(_specs())
    assert len(runs) == len(FULL_GRID)
    assert all(run.elapsed > 0 for run in runs)
    return runs


def _warm_cache():
    """One cold sweep: fills the calibration entries in the
    simulation cache and the compiled-family/point caches."""
    cache = SimulationCache()
    _sweep(HybridEngine(), cache)
    return cache


def test_fig9_mm_hybrid_grid(benchmark):
    """The hybrid sweep on a warm simulation cache."""
    cache = _warm_cache()
    benchmark.pedantic(
        lambda: _sweep(HybridEngine(), cache),
        rounds=5, iterations=1, warmup_rounds=1,
    )


def test_fig9_mm_hybrid_grid_cold(benchmark):
    """Honest cold cost: fresh simulation cache and fresh family
    compile every round (calibration sims included)."""

    def cold_sweep():
        clear_grid_caches()
        return _sweep(HybridEngine(), SimulationCache())

    benchmark.pedantic(cold_sweep, rounds=3, iterations=1, warmup_rounds=0)


def test_fig9_mm_grid_predict(benchmark):
    """Pure analytic grid evaluation (warm); the answers at the pinned
    partition counts equal their pins exactly."""
    specs = _specs()
    predict_grid(specs)  # warm the compile/point caches
    grid = benchmark.pedantic(
        lambda: predict_grid(specs),
        rounds=10, iterations=1, warmup_rounds=0,
    )
    pins = json.loads(PINS.read_text())["apps"]
    for p in (1, 2, 4, 7, 13, 56):
        pin = pins[f"MatMulApp|6000|144|P{p}"]
        assert float(grid[FULL_GRID.index(p)]).hex() == pin
