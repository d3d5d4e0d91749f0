"""LearnedEngine: gated zero-DES answers, fallback routing, retraining.

The Hypothesis property at the bottom is the tier's safety contract:
over arbitrary workload run specs, no answer ever comes back labeled
``engine="learned"`` unless its posterior predictive uncertainty
cleared the gate — everything else must carry a fallback engine label
(certified model or DES), never an unverified learned number.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import MatMulApp
from repro.engine import DEFAULT_GATE, HybridEngine, LearnedEngine
from repro.engine.engines import ENGINE_NAMES, resolve_engine
from repro.engine.learned import build_corpus, default_model, train_model
from repro.errors import ConfigurationError, ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SimulationCache, SweepExecutor
from repro.workload.generator import ScenarioGenerator
from tests.strategies import workload_run_specs


def held_out_specs(count=3, p_values=(4, 28), seed=314159):
    scenarios = ScenarioGenerator(seed=seed).corpus(count)
    return [
        RunSpec.for_workload(w, places=p)
        for w in scenarios
        for p in p_values
    ]


class TestResolution:
    def test_learned_in_engine_names(self):
        assert "learned" in ENGINE_NAMES

    def test_resolve_learned(self):
        engine = resolve_engine("learned")
        assert isinstance(engine, LearnedEngine)
        assert engine.name == "learned"

    def test_executor_accepts_learned(self):
        ex = SweepExecutor(jobs=1, engine="learned")
        assert ex.engine == "learned"

    def test_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            LearnedEngine(gate=-0.1)
        with pytest.raises(ConfigurationError):
            LearnedEngine(retrain_min=-1)


class TestGatedAnswers:
    def test_confident_points_run_zero_des(self):
        specs = held_out_specs()
        with scoped_registry() as registry:
            ex = SweepExecutor(jobs=1, engine="learned")
            runs = ex.map(specs)
            snap = registry.snapshot()
        assert all(run.engine == "learned" for run in runs)
        assert ex.stats.executed == 0
        assert snap.counter_value(
            "engine.points", backend="learned"
        ) == len(specs)
        assert snap.counter_value("engine.learned.fallback") == 0
        assert snap.gauge_value("engine.learned.fallback_rate") == 0.0

    def test_held_out_points_need_no_des_where_hybrid_calibrates(self):
        """docs/LEARNED.md's point-query set: 20 held-out points (5
        scenarios x P 4, 8, 28, 56) answer from the model with zero DES
        runs, where a cold hybrid engine must simulate."""
        specs = held_out_specs(5, (4, 8, 28, 56), seed=424243)
        with scoped_registry():
            learned = SweepExecutor(jobs=1, engine="learned")
            runs = learned.map(specs)
            hybrid = SweepExecutor(
                jobs=1, cache=SimulationCache(), engine=HybridEngine()
            )
            hybrid.map(specs)
        assert [run.engine for run in runs] == ["learned"] * 20
        assert learned.stats.executed == 0
        assert hybrid.stats.executed > 0

    def test_learned_predictions_track_simulation(self):
        specs = held_out_specs()
        with scoped_registry():
            runs = SweepExecutor(jobs=1, engine="learned").map(
                list(specs)
            )
        for run, spec in zip(runs, specs):
            true = spec.execute().elapsed
            assert run.elapsed == pytest.approx(true, rel=0.25), (
                f"{run.app} P={run.places} drifted "
                f"{run.elapsed / true:.3f}x from the DES"
            )

    def test_zero_gate_routes_everything_to_fallback(self):
        specs = held_out_specs(count=2, p_values=(4,))
        engine = LearnedEngine(gate=0.0)
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine=engine).map(specs)
            snap = registry.snapshot()
        assert all(run.engine in ("sim", "model") for run in runs)
        assert snap.counter_value("engine.points", backend="learned") == 0
        assert snap.gauge_value("engine.learned.fallback_rate") == 1.0

    def test_unsupported_spec_routed_not_crashed(self):
        # streams_per_place != 1 is outside the featurizable surface:
        # the learned tier must route it, and the answer must be real.
        spec = RunSpec.for_app(
            MatMulApp, 1500, 36, places=4, streams_per_place=2
        )
        with scoped_registry():
            (run,) = SweepExecutor(jobs=1, engine="learned").map([spec])
        assert run.engine in ("sim", "model")
        assert run.elapsed > 0

    def test_predict_spec_point_surface(self):
        engine = resolve_engine("learned")
        spec = held_out_specs(count=1, p_values=(8,))[0]
        seconds, std = engine.predict_spec(spec)
        assert seconds > 0
        assert 0 < std <= DEFAULT_GATE
        with pytest.raises(ModelUnsupportedError):
            engine.predict_spec(
                RunSpec.for_app(
                    MatMulApp, 1500, 36, places=4, streams_per_place=2
                )
            )


class TestActiveLearning:
    def test_observe_accumulates_and_retrains(self):
        model, x, y = default_model()
        engine = LearnedEngine(retrain_min=3)
        # Wire the training matrices in as the lazy path would.
        engine.model, engine._base_x, engine._base_y = model, x, y
        rows = x[:3]
        secs = np.exp(y[:3])
        engine.observe(rows[0], float(secs[0]))
        engine.observe(rows[1], float(secs[1]))
        assert engine.retrains == 0
        engine.observe(rows[2], float(secs[2]))
        assert engine.retrains == 1
        assert len(engine._pending) == 0
        assert engine.model is not model
        assert engine._base_x.shape[0] == x.shape[0] + 3

    def test_bad_observations_ignored(self):
        model, x, y = default_model()
        engine = LearnedEngine(retrain_min=1)
        engine.model, engine._base_x, engine._base_y = model, x, y
        engine.observe(x[0], float("nan"))
        engine.observe(x[0], 0.0)
        assert engine.retrains == 0

    def test_external_model_never_refits(self):
        # A user-supplied model has no training matrices to stack onto;
        # active learning must stay off rather than crash.
        corpus = build_corpus(count=4, seed=7, p_values=(2, 4, 8, 28, 56))
        engine = LearnedEngine(model=train_model(corpus), retrain_min=1)
        engine.observe(np.array(corpus.entries[0].features), 1.0)
        assert engine.retrains == 0


class TestRoutingProperty:
    @given(spec=workload_run_specs())
    @settings(max_examples=20, deadline=None)
    def test_never_an_uncertified_learned_answer(self, spec):
        """The safety contract: an ``engine="learned"`` answer implies
        its predictive std cleared the gate; everything else must have
        been routed (fallback label), never silently guessed."""
        engine = resolve_engine("learned")
        with scoped_registry():
            (run,) = SweepExecutor(jobs=1, engine=engine).map([spec])
        assert run.elapsed > 0
        if run.engine == "learned":
            _, std = engine.predict_spec(spec)
            assert std <= engine.gate
        else:
            # Routed: hybrid certification or the DES itself.
            assert run.engine in ("sim", "model")
