"""Extension experiment — partition sweep over a declarative workload.

Runs one :mod:`repro.workload` scenario (a ``--workload spec.json``
file, or a generated default) across a partition sweep three ways —
the DES, the analytic model one point at a time, and the same model
over the whole sweep as one grid batch — and cross-checks them: the
batch must equal the one-point answers bit for bit (one evaluator
serves both), and the model must track the DES within the hybrid
engine's certification tolerance.  This is the CLI face of the
differential property suite in ``tests/workload``.
"""

from __future__ import annotations

from repro.engine import DEFAULT_TOLERANCE
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel.runspec import RunSpec
from repro.workload import ScenarioGenerator, WorkloadSpec


def _load(workload: "str | None") -> WorkloadSpec:
    if workload is None:
        return ScenarioGenerator(seed=0).generate("balanced", 0)
    with open(workload, encoding="utf-8") as fh:
        return WorkloadSpec.from_json(fh.read())


def run(
    fast: bool = True, executor=None, workload: "str | None" = None
) -> ExperimentResult:
    from repro.engine.grid import predict_runs

    w = _load(workload)
    partitions = [1, 2, 4, 8] if fast else [1, 2, 4, 7, 8, 14, 16, 28, 56]
    specs = [RunSpec.for_workload(w, places=p) for p in partitions]

    result = ExperimentResult(
        experiment="workload",
        title=(
            f"workload {w.name} ({w.fingerprint()}): "
            "DES vs model vs grid over partitions"
        ),
        x_label="partitions",
        x=list(partitions),
        y_label="elapsed (s)",
    )

    executor = default_executor(executor)
    runs = executor.map(specs)
    elapsed = [r.elapsed for r in runs]
    model = [s.predict().elapsed for s in specs]
    grid = [r.elapsed for r in predict_runs(specs)]
    result.add_series("elapsed", elapsed)
    result.add_series("model", model)
    result.add_series("grid", grid)

    result.add_check(
        "the grid batch equals the one-point model bit-exactly at "
        "every partition",
        all(g == m for g, m in zip(grid, model)),
    )
    result.add_check(
        "every engine reports a positive makespan",
        all(v > 0 for v in (*elapsed, *model, *grid)),
    )
    if executor.engine == "sim":
        result.add_check(
            "analytic model tracks the DES within the hybrid tolerance",
            all(
                abs(m - e) <= DEFAULT_TOLERANCE * e
                for m, e in zip(model, elapsed)
            ),
        )
    result.notes = (
        f"scenario: {len(w.kernels)} kernel(s), "
        f"{len(w.phases)} phase(s), {w.tiles} tile chain(s)"
    )
    return result
