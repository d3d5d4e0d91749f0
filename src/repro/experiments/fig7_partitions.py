"""Fig. 7 — resource granularity with forced stage synchronisation.

128 blocks, 100 in-kernel iterations, explicit sync between transfers
and kernels (spatial sharing only).  Claims: kernel time is U-shaped
over the partition count, and the non-tiled non-streamed reference beats
every streamed configuration — spatial sharing alone brings no benefit
for a non-overlappable kernel.
"""

from __future__ import annotations

from repro.apps.hbench import PartitionProbe, ReferenceProbe
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel import RunSpec
from repro.util.units import MS


def run(fast: bool = True, executor=None) -> ExperimentResult:
    partitions = [1, 2, 4, 8, 16, 32, 64, 128]
    iterations = 100
    result = ExperimentResult(
        experiment="fig7",
        title="Kernel time over partition count (128 blocks, stage sync)",
        x_label="#partitions",
        x=partitions + ["ref"],
        y_label="ms",
    )
    specs = [
        RunSpec.for_app(PartitionProbe, 128, iterations, places=p)
        for p in partitions
    ]
    specs.append(RunSpec.for_app(ReferenceProbe, iterations, places=1))
    *times, ref = [
        r.elapsed / MS for r in default_executor(executor).map(specs)
    ]
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
