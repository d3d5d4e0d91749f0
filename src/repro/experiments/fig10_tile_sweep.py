"""Fig. 10 — how the number of tiles impacts performance.

One panel per application at fixed P=4 (the paper's Fig. 10 caption
configuration; for NN the caption prints P=512, which cannot exceed the
224 hardware threads and is treated as a typo for the T=512 of Fig. 9e —
we sweep T at P=4).

Like the partition sweep, each panel fans its independent runs over the
:mod:`repro.parallel` executor and shares the process-wide simulation
cache (the (app, D, P, T) points here overlap fig8's candidate search).
A tile sweep varies T, so each T value is its own spec family: under a
model/hybrid engine the batch becomes one single-point grid family per
tile count, still answered in-process by :mod:`repro.engine.grid`.
"""

from __future__ import annotations

from repro.apps import (
    CholeskyApp,
    HotspotApp,
    KmeansApp,
    MatMulApp,
    NNApp,
    SradApp,
)
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel import RunSpec


def _sweep(result, make_spec, tiles, metric, executor):
    runs = default_executor(executor).map([make_spec(t) for t in tiles])
    values = [metric(run) for run in runs]
    result.add_series(result.y_label, values)
    return dict(zip(tiles, values))


def run_mm(fast: bool = True, executor=None) -> ExperimentResult:
    tiles = [1, 4, 16, 144, 400] if fast else [1, 4, 9, 16, 25, 36, 100, 144, 225, 400]
    result = ExperimentResult(
        experiment="fig10a",
        title="MM over tiles (D=6000, P=4)",
        x_label="tiles",
        x=tiles,
        y_label="GFLOPS",
    )
    by_t = _sweep(
        result,
        lambda t: RunSpec.for_app(MatMulApp, 6000, t, places=4),
        tiles,
        lambda r: r.gflops,
        executor,
    )
    result.add_check(
        "T=1 starves three of four partitions (T=4 is >2x better)",
        by_t[4] > 2 * by_t[1],
    )
    result.add_check(
        "very fine tiling loses (T=4 beats T=400)",
        by_t[4] > by_t[400],
    )
    return result


def run_cf(fast: bool = True, executor=None) -> ExperimentResult:
    tiles = [4, 16, 100, 400] if fast else [4, 9, 16, 25, 36, 64, 100, 144, 225, 256, 400]
    result = ExperimentResult(
        experiment="fig10b",
        title="CF over tiles (D=9600, P=4)",
        x_label="tiles",
        x=tiles,
        y_label="GFLOPS",
    )
    by_t = _sweep(
        result,
        lambda t: RunSpec.for_app(CholeskyApp, 9600, t, places=4),
        tiles,
        lambda r: r.gflops,
        executor,
    )
    result.add_check(
        "CF needs many tiles: T=100 beats T=4 by >2x (DAG parallelism)",
        by_t[100] > 2 * by_t[4],
    )
    return result


def run_kmeans(fast: bool = True, executor=None) -> ExperimentResult:
    tiles = [1, 2, 4, 16, 56, 224] if fast else [1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224]
    iterations = 10 if fast else 100
    result = ExperimentResult(
        experiment="fig10c",
        title="Kmeans over tiles (D=1120000, P=4)",
        x_label="tiles",
        x=tiles,
        y_label="seconds",
    )
    by_t = _sweep(
        result,
        lambda t: RunSpec.for_app(
            KmeansApp, 1120000, t, places=4, iterations=iterations
        ),
        tiles,
        lambda r: r.elapsed,
        executor,
    )
    result.add_check(
        "fastest at T=4 (= P): load balance without extra invocations",
        min(by_t, key=by_t.get) == 4,
    )
    return result


def run_hotspot(fast: bool = True, executor=None) -> ExperimentResult:
    tiles = [1, 4, 16, 64, 256, 1024] if fast else [1, 4, 16, 64, 256, 1024, 4096]
    iterations = 10 if fast else 50
    result = ExperimentResult(
        experiment="fig10d",
        title="Hotspot over tiles (D=16384, P=4)",
        x_label="tiles",
        x=tiles,
        y_label="seconds",
    )
    by_t = _sweep(
        result,
        lambda t: RunSpec.for_app(
            HotspotApp, 16384, t, places=4, iterations=iterations
        ),
        tiles,
        lambda r: r.elapsed,
        executor,
    )
    interior_best = min(v for t, v in by_t.items() if 1 < t < tiles[-1])
    result.add_check(
        "U-shape: an interior tile count beats both extremes",
        interior_best < by_t[1] and interior_best < by_t[tiles[-1]],
    )
    return result


def run_nn(fast: bool = True, executor=None) -> ExperimentResult:
    tiles = [1, 4, 32, 256, 2048] if fast else [2**k for k in range(12)]
    result = ExperimentResult(
        experiment="fig10e",
        title="NN over tiles (D=5242880, P=4)",
        x_label="tiles",
        x=tiles,
        y_label="milliseconds",
    )
    by_t = _sweep(
        result,
        lambda t: RunSpec.for_app(NNApp, 5242880, t, places=4),
        tiles,
        lambda r: r.elapsed * 1e3,
        executor,
    )
    result.add_check(
        "transfer-bound: T=1 within 1.5x of T=4",
        by_t[1] < 1.5 * by_t[4],
    )
    result.add_check(
        "very fine tiling loses (launch overheads)",
        by_t[tiles[-1]] > by_t[4],
    )
    return result


def run_srad(fast: bool = True, executor=None) -> ExperimentResult:
    tiles = [1, 4, 25, 100, 400, 625] if fast else [1, 4, 16, 25, 100, 400, 625, 2500]
    iterations = 5 if fast else 100
    result = ExperimentResult(
        experiment="fig10f",
        title="SRAD over tiles (D=10000, P=4)",
        x_label="tiles",
        x=tiles,
        y_label="seconds",
    )
    by_t = _sweep(
        result,
        lambda t: RunSpec.for_app(
            SradApp, 10000, t, places=4, iterations=iterations
        ),
        tiles,
        lambda r: r.elapsed,
        executor,
    )
    interior_best = min(v for t, v in by_t.items() if 1 < t < tiles[-1])
    result.add_check(
        "U-shape: an interior tile count beats both extremes",
        interior_best < by_t[1] and interior_best < by_t[tiles[-1]],
    )
    return result


#: Panel name -> driver, in the figure's panel order.
PANELS = {
    "mm": run_mm,
    "cf": run_cf,
    "kmeans": run_kmeans,
    "hotspot": run_hotspot,
    "nn": run_nn,
    "srad": run_srad,
}


def run(
    fast: bool = True, executor=None, apps=None
) -> list[ExperimentResult]:
    """All panels, or — with ``apps`` — a subset by panel name."""
    executor = default_executor(executor)
    names = list(PANELS) if apps is None else list(apps)
    unknown = [a for a in names if a not in PANELS]
    if unknown:
        raise ExperimentError(
            f"unknown app panel(s) {unknown}; known: {sorted(PANELS)}"
        )
    return [PANELS[name](fast, executor=executor) for name in names]
