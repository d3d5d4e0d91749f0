"""Sec. V-C — how much do the pruning guidelines shrink the search?

Tunes MM's (P, T) with an exhaustive grid and with the paper's pruned
grid, reporting the reduction factor and the quality of the pruned
optimum.  (The paper states the guidelines "reduce the search space
significantly"; this experiment quantifies it on the model.)
"""

from __future__ import annotations

from repro.apps import MatMulApp
from repro.autotune import (
    Config,
    ConfigSpace,
    paper_pruned_space,
    run_search,
)
from repro.experiments.runner import ExperimentResult, default_executor
from repro.parallel import RunSpec


def _mm_space(fast: bool) -> ConfigSpace:
    if fast:
        p_values = [1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 21, 28, 42, 56]
        t_values = [1, 4, 16, 36, 144]
    else:
        p_values = list(range(1, 57))
        t_values = [1, 4, 9, 16, 25, 36, 100, 144, 225, 400]
    return ConfigSpace(p_values=p_values, t_values=t_values)


def run(fast: bool = True, executor=None) -> ExperimentResult:
    d = 3000 if fast else 6000

    def spec_fn(config: Config) -> RunSpec:
        return RunSpec.for_app(
            MatMulApp, d, config.tiles, places=config.places
        )

    # The pruned grid is a subset of the exhaustive one, so with the
    # shared cache the second search is pure cache hits.  The
    # executor's engine swaps the evaluation backend under both
    # searches (their evaluation *counts* — what this experiment
    # measures — are unchanged); for model-*ranked* searching see
    # ``run_search(engine=...)``.
    executor = default_executor(executor)
    space = _mm_space(fast)
    exhaustive = run_search(space=space, spec_fn=spec_fn, executor=executor)
    pruned = run_search(
        space=paper_pruned_space(space), spec_fn=spec_fn, executor=executor
    )

    result = ExperimentResult(
        experiment="heuristics",
        title=f"Search-space pruning on MM (D={d})",
        x_label="search",
        x=["exhaustive", "pruned"],
        y_label="",
    )
    result.add_series(
        "evaluations",
        [float(exhaustive.evaluations), float(pruned.evaluations)],
    )
    result.add_series(
        "best time [s]", [exhaustive.best_time, pruned.best_time]
    )
    result.notes = (
        f"exhaustive best {exhaustive.best}, pruned best {pruned.best}; "
        f"reduction {pruned.reduction_vs(exhaustive):.1f}x, quality "
        f"{pruned.quality_vs(exhaustive):.3f}"
    )
    result.add_check(
        "pruning shrinks the search by at least 3x",
        pruned.reduction_vs(exhaustive) >= 3.0,
    )
    result.add_check(
        "pruned optimum within 10 % of the exhaustive optimum",
        pruned.quality_vs(exhaustive) <= 1.10,
    )
    return result
