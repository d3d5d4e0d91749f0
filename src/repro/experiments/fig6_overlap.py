"""Fig. 6 — overlapping data transfers with computation.

Sweeps the hBench kernel's iteration count and reports the Data, Kernel,
Data+Kernel (serial), Streamed (measured) and Ideal lines.  Claims: the
Data and Kernel lines cross at ~40 iterations; the streamed time beats
the serial time but never reaches the ideal (full overlap is not
achievable).
"""

from __future__ import annotations

from repro.apps.hbench import HBench, StreamedProbe
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel import RunSpec
from repro.util.units import MS


def run(fast: bool = True, executor=None) -> ExperimentResult:
    hb = HBench()
    xs = list(range(20, 61, 10 if fast else 5))
    streams = 4  # one per place
    result = ExperimentResult(
        experiment="fig6",
        title="Overlap of data transfers and computation (16 MB arrays)",
        x_label="#iterations",
        x=xs,
        y_label="ms",
    )
    data = [hb.data_time() / MS for _ in xs]
    kernel = [hb.kernel_time(i) / MS for i in xs]
    serial = [hb.serial_time(i) / MS for i in xs]
    # Only the Streamed line runs the DES (the rest are closed-form), so
    # only it is evaluated through the executor.
    streamed = [
        r.elapsed / MS
        for r in default_executor(executor).map(
            RunSpec.for_app(StreamedProbe, i, streams, places=streams)
            for i in xs
        )
    ]
    ideal = [hb.ideal_time(i) / MS for i in xs]
    result.add_series("Data", data)
    result.add_series("Kernel", kernel)
    result.add_series("Data+Kernel", serial)
    result.add_series("Streamed", streamed)
    result.add_series("Ideal", ideal)

    crossover = hb.kernel_time(40) / hb.data_time()
    result.add_check(
        "Data and Kernel lines cross at ~40 iterations",
        0.9 < crossover < 1.1,
    )
    result.add_check(
        "Streamed beats serial at every intensity",
        all(s < d for s, d in zip(streamed, serial)),
    )
    result.add_check(
        "full overlap is not achievable (Streamed > Ideal)",
        all(s > i for s, i in zip(streamed, ideal)),
    )
    return result
