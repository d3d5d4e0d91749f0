"""Fig. 5 — do H2D and D2H transfers overlap?

Sweeps the four schedules (CC / IC / CD / ID) of 1 MB blocks.  The
paper's conclusion: the flat ID line at half the CC level proves the two
directions are performed serially on Phi.
"""

from __future__ import annotations

from repro.apps.hbench import TransferPattern, TransferProbe
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel import RunSpec
from repro.util.units import MS


def run(fast: bool = True, executor=None) -> ExperimentResult:
    total = 16
    xs = list(range(0, total + 1, 2 if fast else 1))
    result = ExperimentResult(
        experiment="fig5",
        title="Data transfer time over transferred blocks (1 MB blocks)",
        x_label="#blocks",
        x=xs,
        y_label="ms",
    )
    patterns = list(TransferPattern)
    runs = default_executor(executor).map(
        RunSpec.for_app(TransferProbe, *pattern.blocks(x, total), places=2)
        for pattern in patterns
        for x in xs
    )
    curves = {}
    for k, pattern in enumerate(patterns):
        times = [r.elapsed / MS for r in runs[k * len(xs):(k + 1) * len(xs)]]
        curves[pattern] = times
        result.add_series(pattern.value, times)

    cc = curves[TransferPattern.CC]
    ic = curves[TransferPattern.IC]
    cd = curves[TransferPattern.CD]
    id_ = curves[TransferPattern.ID]
    flat = lambda ys: max(ys) - min(ys) < 0.05 * min(ys)  # noqa: E731
    result.add_check("CC constant around 5.2 ms", flat(cc) and 4.5 < cc[0] < 6.0)
    result.add_check(
        "IC increases linearly",
        all(b > a for a, b in zip(ic, ic[1:])),
    )
    result.add_check(
        "CD decreases linearly",
        all(b < a for a, b in zip(cd, cd[1:])),
    )
    result.add_check(
        "ID constant around 2.5 ms -> directions serialise",
        flat(id_) and 2.0 < id_[0] < 3.0,
    )
    return result
