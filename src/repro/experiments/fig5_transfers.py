"""Fig. 5 — do H2D and D2H transfers overlap?

Sweeps the four schedules (CC / IC / CD / ID) of 1 MB blocks.  The
paper's conclusion: the flat ID line at half the CC level proves the two
directions are performed serially on Phi.
"""

from __future__ import annotations

from repro.apps.hbench import HBench, TransferPattern
from repro.experiments.probe_engine import probe_series
from repro.experiments.runner import ExperimentResult, default_executor
from repro.metrics import get_registry
from repro.util.units import MS


def run(fast: bool = True, executor=None) -> ExperimentResult:
    executor = default_executor(executor)
    hb = HBench()
    total = 16
    xs = list(range(0, total + 1, 2 if fast else 1))
    probes = get_registry().counter(
        "experiment.probe_evaluations", experiment="fig5"
    )
    result = ExperimentResult(
        experiment="fig5",
        title="Data transfer time over transferred blocks (1 MB blocks)",
        x_label="#blocks",
        x=xs,
        y_label="ms",
    )
    from repro.engine.profiles import hbench_transfer_model

    curves = {}
    for pattern in TransferPattern:
        times = [
            t / MS
            for t in probe_series(
                executor,
                xs,
                lambda x: hb.transfer_time(*pattern.blocks(x, total)),
                lambda x: hbench_transfer_model(
                    hb, *pattern.blocks(x, total)
                ),
                label=f"fig5-{pattern.value.lower()}",
            )
        ]
        probes.inc(len(times))
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
