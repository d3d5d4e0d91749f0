"""Fig. 9 — how the number of partitions impacts performance.

One panel per application at the paper's fixed task granularity (the
figure-caption parameters).  The claims checked per panel are the ones
Sec. V-B1 derives: divisor spikes (MM, CF), monotone improvement
(Kmeans), the cache-friendly dip (Hotspot), the plateau after P=4 (NN),
and the interior optimum (SRAD).

Every panel is a sweep of independent runs, so all of them go through
the :mod:`repro.parallel` executor: one :class:`RunSpec` per partition
count (fast and full mode share the same code path), fanned over the
executor's worker processes and memoized in the shared simulation cache.
Under a model/hybrid executor engine each panel's partition sweep is a
single spec family, so the whole batch is answered by one grid
evaluation (:mod:`repro.engine.grid`) before any pool dispatch.
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

FAST_PARTITIONS = [1, 2, 3, 4, 7, 8, 13, 14, 16, 28, 33, 37, 56]
FULL_PARTITIONS = list(range(1, 57))


def _partitions(fast: bool) -> list[int]:
    return FAST_PARTITIONS if fast else FULL_PARTITIONS


def _sweep(result, make_spec, partitions, metric, executor):
    runs = default_executor(executor).map([make_spec(p) for p in partitions])
    values = [metric(run) for run in runs]
    result.add_series(result.y_label, values)
    return dict(zip(partitions, values))


def run_mm(fast: bool = True, executor=None) -> ExperimentResult:
    ps = _partitions(fast)
    result = ExperimentResult(
        experiment="fig9a",
        title="MM over partitions (D=6000, T=144)",
        x_label="partitions",
        x=ps,
        y_label="GFLOPS",
    )
    by_p = _sweep(
        result,
        lambda p: RunSpec.for_app(MatMulApp, 6000, 144, places=p),
        ps,
        lambda r: r.gflops,
        executor,
    )
    result.add_check(
        "aligned counts beat misaligned neighbours (4>3, 14>13, 14>16)",
        by_p[4] > by_p[3] and by_p[14] > by_p[13] and by_p[14] > by_p[16],
    )
    return result


def run_cf(fast: bool = True, executor=None) -> ExperimentResult:
    ps = _partitions(fast)
    result = ExperimentResult(
        experiment="fig9b",
        title="CF over partitions (D=9600, T=144)",
        x_label="partitions",
        x=ps,
        y_label="GFLOPS",
    )
    by_p = _sweep(
        result,
        lambda p: RunSpec.for_app(CholeskyApp, 9600, 144, places=p),
        ps,
        lambda r: r.gflops,
        executor,
    )
    result.add_check(
        "aligned counts beat misaligned neighbours (4>3, 14>13)",
        by_p[4] > by_p[3] and by_p[14] > by_p[13],
    )
    return result


def run_kmeans(fast: bool = True, executor=None) -> ExperimentResult:
    ps = _partitions(fast)
    iterations = 10 if fast else 100
    result = ExperimentResult(
        experiment="fig9c",
        title="Kmeans over partitions (D=1120000, T=56)",
        x_label="partitions",
        x=ps,
        y_label="seconds",
    )
    by_p = _sweep(
        result,
        lambda p: RunSpec.for_app(
            KmeansApp, 1120000, 56, places=p, iterations=iterations
        ),
        ps,
        lambda r: r.elapsed,
        executor,
    )
    divisors = [p for p in (1, 2, 4, 7, 8, 14, 28, 56) if p in by_p]
    times = [by_p[p] for p in divisors]
    result.add_check(
        "time falls monotonically with partitions (alloc overhead)",
        times == sorted(times, reverse=True),
    )
    return result


def run_hotspot(fast: bool = True, executor=None) -> ExperimentResult:
    ps = _partitions(fast)
    iterations = 10 if fast else 50
    result = ExperimentResult(
        experiment="fig9d",
        title="Hotspot over partitions (D=16384, T=256)",
        x_label="partitions",
        x=ps,
        y_label="seconds",
    )
    by_p = _sweep(
        result,
        lambda p: RunSpec.for_app(
            HotspotApp, 16384, 256, places=p, iterations=iterations
        ),
        ps,
        lambda r: r.elapsed,
        executor,
    )
    best = min(by_p, key=by_p.get)
    result.add_check(
        f"global minimum in the cache-friendly band 28..40 (got P={best})",
        28 <= best <= 40,
    )
    return result


def run_nn(fast: bool = True, executor=None) -> ExperimentResult:
    ps = _partitions(fast)
    result = ExperimentResult(
        experiment="fig9e",
        title="NN over partitions (D=5242880, T=512)",
        x_label="partitions",
        x=ps,
        y_label="milliseconds",
    )
    by_p = _sweep(
        result,
        lambda p: RunSpec.for_app(NNApp, 5242880, 512, places=p),
        ps,
        lambda r: r.elapsed * 1e3,
        executor,
    )
    result.add_check(
        "sharp drop until P=4",
        by_p[4] < by_p[1] / 2,
    )
    plateau = [by_p[p] for p in by_p if p >= 4]
    result.add_check(
        "plateau after P=4 (within 35 % of the P=4 level)",
        all(abs(v - by_p[4]) / by_p[4] < 0.35 for v in plateau),
    )
    return result


def run_srad(fast: bool = True, executor=None) -> ExperimentResult:
    ps = _partitions(fast)
    iterations = 5 if fast else 100
    result = ExperimentResult(
        experiment="fig9f",
        title="SRAD over partitions (D=10000, T=400)",
        x_label="partitions",
        x=ps,
        y_label="seconds",
    )
    by_p = _sweep(
        result,
        lambda p: RunSpec.for_app(
            SradApp, 10000, 400, places=p, iterations=iterations
        ),
        ps,
        lambda r: r.elapsed,
        executor,
    )
    interior = {p: v for p, v in by_p.items() if 1 < p < 56}
    result.add_check(
        "interior optimum (performance first rises then falls)",
        min(interior.values()) < by_p[1]
        and min(interior.values()) < by_p[56],
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
