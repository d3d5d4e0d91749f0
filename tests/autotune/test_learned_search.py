"""Uncertainty-gated learned autotune search (``--engine learned``).

The findings-style test at the bottom is the PR's headline claim in
miniature: over held-out generated scenarios, the learned search lands
within 5 % of the exhaustive DES optimum while spending at most 1/8 of
the pruned search's simulator evaluations (most scenarios spend zero).
"""

import pytest

from repro.autotune import ConfigSpace, MARGIN_FACTOR, run_search
from repro.engine.engines import resolve_engine
from repro.errors import ConfigurationError
from repro.metrics.registry import scoped_registry
from repro.parallel import DesBudget, RunSpec, SweepExecutor
from repro.workload.generator import ScenarioGenerator

PRUNED_P = (2, 4, 7, 8, 14, 28, 56)


def scenario(seed=314159, index=0):
    return ScenarioGenerator(seed=seed).corpus(index + 1)[index]


def search_workload(workload, **kwargs):
    space = ConfigSpace(
        p_values=list(PRUNED_P), t_values=[workload.tiles]
    )
    return run_search(
        spec_fn=lambda c: RunSpec.for_workload(workload, places=c.places),
        space=space,
        **kwargs,
    )


class TestLearnedSearch:
    def test_margin_factor_exported(self):
        assert MARGIN_FACTOR == 1.0

    def test_search_by_name_runs_and_may_skip_des(self):
        with scoped_registry():
            ex = SweepExecutor(jobs=1)
            outcome = search_workload(
                scenario(), executor=ex, engine="learned"
            )
        assert outcome.best.places in PRUNED_P
        # The margin rule verifies at most the top two candidates.
        assert 0 <= outcome.evaluations <= 2
        assert len(outcome.history) == len(PRUNED_P)

    def test_engine_instance_passes_through(self):
        engine = resolve_engine("learned")
        with scoped_registry():
            outcome = search_workload(
                scenario(),
                executor=SweepExecutor(jobs=1),
                engine=engine,
            )
        assert outcome.best.places in PRUNED_P
        assert engine.model is not None  # the instance did the ranking

    def test_exhausted_budget_answers_from_the_model(self):
        budget = DesBudget(limit=0)
        with scoped_registry():
            outcome = search_workload(
                scenario(),
                executor=SweepExecutor(jobs=1),
                engine="learned",
                des_budget=budget,
            )
        assert outcome.evaluations == 0
        assert budget.spent == 0
        assert outcome.best.places in PRUNED_P

    def test_budget_shared_with_executor_charged_once(self):
        budget = DesBudget(limit=100)
        with scoped_registry():
            ex = SweepExecutor(jobs=1, des_budget=budget)
            outcome = search_workload(
                scenario(),
                executor=ex,
                engine="learned",
                des_budget=budget,
            )
        # Whatever the margin rule spent was charged exactly once
        # (the executor's ledger is the budget's ledger here).
        assert budget.spent == outcome.evaluations

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ConfigurationError):
            search_workload(
                scenario(),
                executor=SweepExecutor(jobs=1),
                engine="oracle",
            )


class TestLearnedSearchFindings:
    # The second input is docs/LEARNED.md's headline: 14 held-out
    # scenarios, 12 DES runs allowed of the pruned search's 98.
    @pytest.mark.parametrize("seed, count", [(271828, 4), (104729, 14)])
    def test_within_tolerance_at_a_fraction_of_the_des(self, seed, count):
        """Held-out scenarios: picks within 5 % of the exhaustive DES
        optimum at <= 1/8 of the pruned search's evaluation count."""
        scenarios = ScenarioGenerator(seed=seed).corpus(count)
        baseline_evals = len(scenarios) * len(PRUNED_P)
        budget = DesBudget(limit=baseline_evals // 8)
        with scoped_registry():
            engine = resolve_engine("learned")
            ex = SweepExecutor(jobs=1, des_budget=budget)
            total_des = 0
            for workload in scenarios:
                outcome = search_workload(
                    workload,
                    executor=ex,
                    engine=engine,
                    des_budget=budget,
                )
                total_des += outcome.evaluations
                true_best = min(
                    RunSpec.for_workload(workload, places=p)
                    .execute()
                    .elapsed
                    for p in PRUNED_P
                )
                picked = (
                    RunSpec.for_workload(
                        workload, places=outcome.best.places
                    )
                    .execute()
                    .elapsed
                )
                assert picked / true_best <= 1.05, (
                    f"{workload.name}: picked P={outcome.best.places}, "
                    f"{picked / true_best:.3f}x the true optimum"
                )
        assert total_des == budget.spent
        assert budget.spent <= baseline_evals // 8
