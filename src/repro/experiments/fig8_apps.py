"""Fig. 8 — streamed (w/) vs non-streamed (w/o) across dataset sweeps.

One panel per application.  The non-streamed baseline is a single
stream with a single tile; the streamed version uses the best
configuration from a small candidate set (standing in for the paper's
exhaustive enumeration).

Each panel batches every run it needs — baselines plus all streamed
candidates across all datasets — into one executor sweep, so the runs
parallelize together and repeated configurations (many candidates recur
in fig9/fig10 and the heuristics grid) come from the shared cache.
Under a model/hybrid engine the heterogeneous batch is partitioned into
spec families by :class:`repro.engine.grid.GridPlan` and evaluated as
arrays; only simulation-routed points reach the worker pool.
"""

from __future__ import annotations

import math

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
from repro.parallel import RunSpec, is_failed


def _batched_best(executor, base_specs, candidate_groups):
    """Run all baselines and candidate groups in one sweep.

    Returns ``(base_runs, best_runs)`` where ``best_runs[i]`` is the
    fastest run of ``candidate_groups[i]`` (min simulated elapsed).
    FailedRun placeholders (``on_error="record"`` under fault injection)
    never win a group as long as one candidate survived — NaN elapsed
    would otherwise poison the min().
    """
    flat = list(base_specs)
    offsets = []
    for group in candidate_groups:
        offsets.append((len(flat), len(group)))
        flat.extend(group)
    runs = executor.map(flat)
    base_runs = runs[: len(base_specs)]
    best_runs = []
    for start, count in offsets:
        group = runs[start : start + count]
        alive = [run for run in group if not is_failed(run)]
        best_runs.append(
            min(alive or group, key=lambda run: run.elapsed)
        )
    return base_runs, best_runs


def _improvement(base: float, streamed: float) -> float:
    return 100.0 * (base - streamed) / base


def run_mm(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = [2000, 4000, 6000] if fast else [2000, 4000, 6000, 8000, 10000, 12000]
    result = ExperimentResult(
        experiment="fig8a",
        title="MM: single stream vs multiple streams",
        x_label="dataset",
        x=[f"{d}^2" for d in datasets],
        y_label="GFLOPS",
    )
    base_specs = [
        RunSpec.for_app(MatMulApp, d, 1, places=1) for d in datasets
    ]
    candidate_groups = [
        [
            RunSpec.for_app(MatMulApp, d, t, places=p)
            for p, t in [(4, 4), (4, 16), (4, 100), (7, 49)]
            if d % math.isqrt(t) == 0
        ]
        for d in datasets
    ]
    base_runs, best_runs = _batched_best(
        default_executor(executor), base_specs, candidate_groups
    )
    base = [run.gflops for run in base_runs]
    streamed = [run.gflops for run in best_runs]
    result.add_series("w/o", base)
    result.add_series("w/", streamed)
    result.add_check(
        "streamed wins on every dataset",
        all(s > b for s, b in zip(streamed, base)),
    )
    return result


def run_cf(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = [4800, 9600] if fast else [7200, 9600, 12000, 14400, 16800, 19200]
    result = ExperimentResult(
        experiment="fig8b",
        title="CF: single stream vs multiple streams",
        x_label="dataset",
        x=[f"{d}^2" for d in datasets],
        y_label="GFLOPS",
    )
    base_specs = [
        RunSpec.for_app(CholeskyApp, d, 1, places=1) for d in datasets
    ]
    candidate_groups = [
        [
            RunSpec.for_app(CholeskyApp, d, t, places=p)
            for p, t in [(2, 100), (4, 100), (4, 225)]
        ]
        for d in datasets
    ]
    base_runs, best_runs = _batched_best(
        default_executor(executor), base_specs, candidate_groups
    )
    base = [run.gflops for run in base_runs]
    streamed = [run.gflops for run in best_runs]
    result.add_series("w/o", base)
    result.add_series("w/", streamed)
    improvements = [
        _improvement(1.0 / b, 1.0 / s) for b, s in zip(base, streamed)
    ]
    result.add_check(
        "streamed wins on every dataset",
        all(s > b for s, b in zip(streamed, base)),
    )
    result.add_check(
        "mean improvement is substantial (> 15 %)",
        sum(improvements) / len(improvements) > 15.0,
    )
    return result


def run_kmeans(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = (
        [140000, 560000, 1120000]
        if fast
        else [140000, 280000, 560000, 1120000, 2240000]
    )
    iterations = 20 if fast else 100
    result = ExperimentResult(
        experiment="fig8c",
        title="Kmeans: single stream vs multiple streams",
        x_label="points",
        x=[f"{d // 1000}K" for d in datasets],
        y_label="seconds",
    )
    specs = []
    for d in datasets:
        specs.append(
            RunSpec.for_app(
                KmeansApp, d, 1, places=1, iterations=iterations
            )
        )
        tiles = max(1, d // 20000)
        places = min(56, tiles)
        specs.append(
            RunSpec.for_app(
                KmeansApp, d, tiles, places=places, iterations=iterations
            )
        )
    runs = default_executor(executor).map(specs)
    base = [run.elapsed for run in runs[0::2]]
    streamed = [run.elapsed for run in runs[1::2]]
    result.add_series("w/o", base)
    result.add_series("w/", streamed)
    result.add_check(
        "streamed wins on every dataset (despite non-overlappable flow)",
        all(s < b for s, b in zip(streamed, base)),
    )
    return result


def run_hotspot(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = [2048, 4096, 8192] if fast else [1024, 2048, 4096, 8192, 16384]
    iterations = 10 if fast else 50
    result = ExperimentResult(
        experiment="fig8d",
        title="Hotspot: single stream vs multiple streams",
        x_label="grid",
        x=[f"{d}^2" for d in datasets],
        y_label="seconds",
    )
    specs = []
    for d in datasets:
        specs.append(
            RunSpec.for_app(
                HotspotApp, d, 1, places=1, iterations=iterations
            )
        )
        tiles = min(max(1, (d // 1024) ** 2), d)
        specs.append(
            RunSpec.for_app(
                HotspotApp,
                d,
                tiles,
                places=min(37, tiles),
                iterations=iterations,
            )
        )
    runs = default_executor(executor).map(specs)
    base = [run.elapsed for run in runs[0::2]]
    streamed = [run.elapsed for run in runs[1::2]]
    result.add_series("w/o", base)
    result.add_series("w/", streamed)
    ratios = [s / b for s, b in zip(streamed, base)]
    result.notes = (
        "small grids lose to stream-management overhead — the paper makes "
        "the same observation for small datasets"
    )
    result.add_check(
        "no significant change on the largest dataset (within 15 %)",
        0.85 < ratios[-1] < 1.15,
    )
    result.add_check(
        "streamed never wins meaningfully (no overlap to exploit)",
        all(r > 0.95 for r in ratios),
    )
    return result


def run_nn(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = (
        [131072, 524288, 2097152]
        if fast
        else [131072, 262144, 524288, 1048576, 2097152]
    )
    result = ExperimentResult(
        experiment="fig8e",
        title="NN: single stream vs multiple streams",
        x_label="records",
        x=[f"{d // 1024}k" for d in datasets],
        y_label="milliseconds",
    )
    specs = []
    for d in datasets:
        specs.append(RunSpec.for_app(NNApp, d, 1, places=1))
        specs.append(RunSpec.for_app(NNApp, d, 4, places=4))
    runs = default_executor(executor).map(specs)
    base = [run.elapsed * 1e3 for run in runs[0::2]]
    streamed = [run.elapsed * 1e3 for run in runs[1::2]]
    result.add_series("w/o", base)
    result.add_series("w/", streamed)
    result.notes = (
        "deviation: the paper wins on its smallest datasets too; in the "
        "model the per-stream join cost is a visible fraction of a "
        "sub-millisecond run"
    )
    wins = [
        s < b
        for d, s, b in zip(datasets, streamed, base)
        if d >= 512 * 1024
    ]
    result.add_check(
        "streamed wins on every dataset of >= 512k records",
        bool(wins) and all(wins),
    )
    return result


def run_srad(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = [1000, 4000, 10000] if fast else [1000, 2000, 4000, 5000, 10000]
    iterations = 10 if fast else 100
    result = ExperimentResult(
        experiment="fig8f",
        title="SRAD: single stream vs multiple streams",
        x_label="image",
        x=[f"{d}^2" for d in datasets],
        y_label="seconds",
    )
    specs = []
    for d in datasets:
        specs.append(
            RunSpec.for_app(SradApp, d, 1, places=1, iterations=iterations)
        )
        specs.append(
            RunSpec.for_app(
                SradApp, d, 100, places=4, iterations=iterations
            )
        )
    runs = default_executor(executor).map(specs)
    base = [run.elapsed for run in runs[0::2]]
    streamed = [run.elapsed for run in runs[1::2]]
    result.add_series("w/o", base)
    result.add_series("w/", streamed)
    result.add_check(
        "streamed loses on the smallest dataset",
        streamed[0] > base[0],
    )
    result.add_check(
        "streamed wins on the largest dataset (the paper's anomaly)",
        streamed[-1] < base[-1],
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
