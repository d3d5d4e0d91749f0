"""Fig. 11 — Cholesky on multiple MICs.

The same streamed code runs on one or two cards without modification
(hStreams' unified resource view; Sec. VI).  Claims: two MICs beat one,
but stay below the 2x projection because of the extra cross-card tile
traffic and inter-domain synchronisation.
"""

from __future__ import annotations

from repro.apps import CholeskyApp
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel import RunSpec


def run(fast: bool = True, executor=None) -> ExperimentResult:
    datasets = [9600, 14000] if fast else [14000, 16000]
    tiles = 100
    result = ExperimentResult(
        experiment="fig11",
        title="CF on multiple MICs (T=100)",
        x_label="dataset",
        x=[f"{d}^2" for d in datasets],
        y_label="GFLOPS",
    )
    specs = []
    for d in datasets:
        specs.append(RunSpec.for_app(CholeskyApp, d, tiles, places=4))
        specs.append(
            RunSpec.for_app(CholeskyApp, d, tiles, places=8, num_devices=2)
        )
    runs = default_executor(executor).map(specs)
    one = [r.gflops for r in runs[0::2]]
    two = [r.gflops for r in runs[1::2]]
    projected = [2 * g for g in one]
    result.add_series("1-mic", one)
    result.add_series("2-mics", two)
    result.add_series("projected", projected)

    result.add_check(
        "two MICs beat one on every dataset",
        all(b > a for a, b in zip(one, two)),
    )
    result.add_check(
        "scaling stays below the 2x projection",
        all(b < p for b, p in zip(two, projected)),
    )
    return result
