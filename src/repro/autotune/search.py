"""Exhaustive vs pruned vs learned tuning and their comparison."""

from __future__ import annotations

import math

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.autotune.space import Config, ConfigSpace
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel import DesBudget, RunSpec, SweepExecutor

#: An objective: configuration -> seconds (lower is better).
Objective = Callable[[Config], float]

#: Margin rule of the learned search: the winner is DES-verified iff
#: its predicted log-advantage over the runner-up is smaller than
#: ``MARGIN_FACTOR * hypot(std_1, std_2)`` — i.e. iff the model itself
#: cannot distinguish the top two.  1.0 (one combined standard
#: deviation) keeps worst-case regret within the 5 % tolerance on
#: held-out scenarios while leaving most searches at zero DES
#: (``tests/autotune/test_learned_search.py``).
MARGIN_FACTOR = 1.0


@dataclass
class SearchOutcome:
    """Result of evaluating an objective over a configuration space."""

    best: Config
    best_time: float
    evaluations: int
    history: list[tuple[Config, float]] = field(default_factory=list)

    def quality_vs(self, reference: "SearchOutcome") -> float:
        """This outcome's best time relative to ``reference``'s (1.0 =
        found the same optimum; 1.1 = 10 % slower configuration)."""
        return self.best_time / reference.best_time

    def reduction_vs(self, reference: "SearchOutcome") -> float:
        """Search-space reduction factor against ``reference``."""
        if self.evaluations == 0:
            raise ConfigurationError("no evaluations recorded")
        return reference.evaluations / self.evaluations


def run_search(
    objective: Objective | None = None,
    space: ConfigSpace | None = None,
    *,
    spec_fn: "Callable[[Config], RunSpec] | None" = None,
    executor: "SweepExecutor | None" = None,
    metric: Callable[[Any], float] | None = None,
    engine: "str | object | None" = None,
    verify_top_k: int = 3,
    des_budget: "DesBudget | None" = None,
) -> SearchOutcome:
    """Evaluate every configuration of ``space``.

    Two evaluation modes:

    * classic — ``objective(config) -> float``, evaluated serially;
    * spec-based — ``spec_fn(config) -> RunSpec``, fanned over
      ``executor`` (a :class:`repro.parallel.SweepExecutor`, which adds
      multiprocessing and cache lookups).  ``metric`` maps each
      :class:`~repro.apps.base.AppRun` to the objective value (default:
      simulated elapsed seconds).

    In spec-based mode, ``engine="model"`` or ``"hybrid"`` prunes the
    search: the whole space is *ranked* by the analytic model (see
    :mod:`repro.engine`) and only the ``verify_top_k`` best-ranked
    configurations are simulated, so ``evaluations`` counts simulator
    runs and :meth:`SearchOutcome.reduction_vs` against an exhaustive
    search reflects the pruning.  The returned best is always taken from
    the *simulated* candidates.  A space the model cannot rank falls
    back to the exhaustive simulation under ``"hybrid"`` and raises
    :class:`~repro.errors.ModelUnsupportedError` under ``"model"``.

    ``engine="learned"`` goes further: the corpus-trained tier (see
    :mod:`repro.engine.learned`) scores the space in one matrix pass
    and simulates *nothing* unless its own uncertainty says it cannot
    separate the top two candidates — the :data:`MARGIN_FACTOR` rule —
    in which case the two leaders are DES-verified (subject to
    ``des_budget``, when given).  ``evaluations`` may therefore be 0.
    An engine *instance* (e.g. a warm
    :class:`~repro.engine.learned.LearnedEngine`) may be passed instead
    of a name and is used directly.

    Both modes record ``history`` in the space's iteration order, so a
    parallel search is bit-identical to the serial one.
    """
    if space is None:
        raise ConfigurationError("run_search requires a configuration space")
    configs = list(space)
    if not configs:
        raise ConfigurationError("configuration space is empty")
    if hasattr(engine, "map") and hasattr(engine, "name"):
        engine_name, engine_obj = engine.name, engine
    elif engine in (None, "sim", "model", "hybrid", "learned"):
        engine_name, engine_obj = engine, None
    else:
        raise ConfigurationError(
            f"unknown search engine {engine!r}; expected sim, model, "
            "hybrid, learned, or an engine instance"
        )

    if spec_fn is not None:
        from repro.parallel import SweepExecutor

        ex = executor if executor is not None else SweepExecutor(jobs=1)
        measure = metric if metric is not None else (lambda run: run.elapsed)
        specs = [spec_fn(config) for config in configs]
        if engine_name == "learned":
            eng = engine_obj
            if eng is None:
                # Reuse the executor's own learned engine (its trained
                # model and observations) when it has one.
                impl = getattr(ex, "_engine_impl", None)
                if getattr(impl, "name", None) == "learned":
                    eng = impl
                else:
                    from repro.engine.engines import resolve_engine

                    eng = resolve_engine("learned")
            return _learned_search(
                configs, specs, ex, measure, eng, verify_top_k, des_budget
            )
        if engine_name in ("model", "hybrid"):
            return _pruned_search(
                configs, specs, ex, measure, engine_name, verify_top_k
            )
        runs = ex.map(specs)
        times = [measure(run) for run in runs]
    elif objective is not None:
        times = [objective(config) for config in configs]
    else:
        raise ConfigurationError(
            "run_search needs an objective or a spec_fn"
        )

    history = list(zip(configs, times))
    best, best_time = min(history, key=lambda item: item[1])
    return SearchOutcome(
        best=best,
        best_time=best_time,
        evaluations=len(history),
        history=history,
    )


def _pruned_search(
    configs, specs, ex, measure, engine, verify_top_k
) -> SearchOutcome:
    """Model-ranked search: predict everything (one grid evaluation —
    the whole config space is scored as arrays, see
    :mod:`repro.engine.grid`), simulate only the ``verify_top_k`` most
    promising configurations."""
    from repro.engine.grid import predict_runs
    from repro.errors import ModelUnsupportedError

    if verify_top_k < 1:
        raise ConfigurationError(
            f"verify_top_k must be >= 1, got {verify_top_k}"
        )
    try:
        predicted = [measure(run) for run in predict_runs(specs)]
    except ModelUnsupportedError:
        if engine == "model":
            raise
        # hybrid: the model cannot rank this space, so fall back to the
        # exhaustive simulation — correctness over pruning.
        runs = ex.map(specs)
        times = [measure(run) for run in runs]
        history = list(zip(configs, times))
        best, best_time = min(history, key=lambda item: item[1])
        return SearchOutcome(
            best=best,
            best_time=best_time,
            evaluations=len(history),
            history=history,
        )

    k = min(verify_top_k, len(specs))
    ranked = sorted(range(len(specs)), key=lambda i: predicted[i])
    top = sorted(ranked[:k])  # simulate in space order: deterministic
    runs = ex.map([specs[i] for i in top])
    simulated = dict(zip(top, (measure(run) for run in runs)))
    history = [
        (configs[i], simulated.get(i, predicted[i]))
        for i in range(len(configs))
    ]
    best_i = min(top, key=lambda i: simulated[i])
    return SearchOutcome(
        best=configs[best_i],
        best_time=simulated[best_i],
        evaluations=len(top),
        history=history,
    )


def _learned_search(
    configs, specs, ex, measure, eng, verify_top_k, budget
) -> SearchOutcome:
    """Uncertainty-gated search: one model pass scores the space, and
    the DES runs **only** when the model cannot separate the top two
    candidates (the :data:`MARGIN_FACTOR` rule) — so most searches cost
    zero simulator evaluations and ``reduction_vs`` an exhaustive
    search is unbounded.

    ``budget`` (a :class:`~repro.parallel.DesBudget`) rations the
    optional verification: when the two runs no longer fit, the search
    answers from the model alone.  Rankings use predicted *seconds*;
    a custom ``metric`` applies to the verified simulated runs.  A
    space the feature map cannot describe falls back to the hybrid
    pruned search — correctness over pruning, as with ``"hybrid"``.
    """
    from repro.errors import ModelUnsupportedError

    if verify_top_k < 1:
        raise ConfigurationError(
            f"verify_top_k must be >= 1, got {verify_top_k}"
        )
    try:
        predicted = [eng.predict_spec(spec) for spec in specs]
    except ModelUnsupportedError:
        return _pruned_search(
            configs, specs, ex, measure, "hybrid", verify_top_k
        )

    times = [seconds for seconds, _ in predicted]
    stds = [std for _, std in predicted]
    ranked = sorted(range(len(specs)), key=lambda i: times[i])

    verified: dict[int, float] = {}
    evaluations = 0
    if len(ranked) > 1:
        i1, i2 = ranked[0], ranked[1]
        margin = math.log(times[i2]) - math.log(times[i1])
        flagged = margin < MARGIN_FACTOR * math.hypot(stds[i1], stds[i2])
        k = min(2, verify_top_k, len(ranked))
        if flagged and (budget is None or budget.try_acquire(k)):
            top = sorted(ranked[:k])  # simulate in space order
            # Straight to the simulator: routing through ``ex.map``
            # would re-enter the learned engine and answer the
            # verification from the very model being checked.
            runs = ex._map_sim([specs[i] for i in top], inline=True)
            evaluations = k
            if budget is not None and budget is not getattr(
                ex, "des_budget", None
            ):
                budget.charge(k)
            verified = {i: measure(run) for i, run in zip(top, runs)}

    history = [
        (configs[i], verified.get(i, times[i])) for i in range(len(configs))
    ]
    if verified:
        best_i = min(verified, key=lambda i: verified[i])
        best_time = verified[best_i]
    else:
        best_i = ranked[0]
        best_time = times[best_i]
    return SearchOutcome(
        best=configs[best_i],
        best_time=best_time,
        evaluations=evaluations,
        history=history,
    )
