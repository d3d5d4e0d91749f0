"""Fig. 7 — resource granularity with forced stage synchronisation.

128 blocks, 100 in-kernel iterations, explicit sync between transfers
and kernels (spatial sharing only).  Claims: kernel time is U-shaped
over the partition count, and the non-tiled non-streamed reference beats
every streamed configuration — spatial sharing alone brings no benefit
for a non-overlappable kernel.
"""

from __future__ import annotations

from repro.apps.hbench import HBench
from repro.experiments.probe_engine import probe_series
from repro.experiments.runner import ExperimentResult, default_executor
from repro.metrics import get_registry
from repro.util.units import MS


def run(fast: bool = True, executor=None) -> ExperimentResult:
    executor = default_executor(executor)
    hb = HBench()
    partitions = [1, 2, 4, 8, 16, 32, 64, 128]
    get_registry().counter(
        "experiment.probe_evaluations", experiment="fig7"
    ).inc(len(partitions) + 1)
    iterations = 100
    result = ExperimentResult(
        experiment="fig7",
        title="Kernel time over partition count (128 blocks, stage sync)",
        x_label="#partitions",
        x=partitions + ["ref"],
        y_label="ms",
    )
    from repro.engine.profiles import (
        hbench_partition_sweep_model,
        hbench_reference_model,
    )

    times = [
        t / MS
        for t in probe_series(
            executor,
            partitions,
            lambda p: hb.partition_sweep_time(
                p, nblocks=128, iterations=iterations
            ),
            lambda p: hbench_partition_sweep_model(
                hb, p, nblocks=128, iterations=iterations
            ),
            label="fig7-partitions",
        )
    ]
    ref = (
        probe_series(
            executor,
            [iterations],
            hb.reference_time,
            lambda i: hbench_reference_model(hb, i),
            label="fig7-ref",
        )[0]
        / MS
    )
    result.add_series("exec time", times + [ref])

    interior_best = min(times[1:-1])
    result.add_check(
        "U-shape: an interior partition count beats both extremes",
        interior_best < times[0] and interior_best < times[-1],
    )
    result.add_check(
        "ref (non-tiled, non-streamed) is the fastest overall",
        ref < min(times),
    )
    return result
