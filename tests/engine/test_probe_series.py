"""``probe_series`` — the engine contract for the fig5/6/7 probes."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.probe_engine import probe_series
from repro.metrics.registry import scoped_registry
from repro.parallel import SweepExecutor


XS = [1, 2, 3, 4, 5]


def _under(engine):
    """An executor whose engine the probes read."""
    return SweepExecutor(engine=engine)


def _sim(x):
    return float(10 * x)


def _model_exact(x):
    return float(10 * x)


def _model_off(x):
    return float(25 * x)


class TestSimAndModel:
    @pytest.mark.parametrize("engine", ["sim"])
    def test_sim_uses_probe_and_records_nothing(self, engine):
        with scoped_registry() as registry:
            values = probe_series(_under(engine), XS, _sim, _model_off)
            snapshot = registry.snapshot()
        assert values == [_sim(x) for x in XS]
        assert snapshot.empty()

    def test_model_uses_model_everywhere(self):
        with scoped_registry() as registry:
            values = probe_series(_under("model"), XS, _sim, _model_off)
            snapshot = registry.snapshot()
        assert values == [_model_off(x) for x in XS]
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(XS)


class TestHybrid:
    def test_certifies_and_keeps_simulated_midpoint(self):
        def _model_near(x):
            return _sim(x) * 1.01  # within the 5 % default tolerance

        with scoped_registry() as registry:
            values = probe_series(
                _under("hybrid"), XS, _sim, _model_near, label="probe-test"
            )
            snapshot = registry.snapshot()
        mid = XS[len(XS) // 2]
        for x, value in zip(XS, values):
            expected = _sim(x) if x == mid else _model_near(x)
            assert value == pytest.approx(expected)
        assert snapshot.counter_value("engine.calibration_points") == 1
        assert snapshot.counter_value("engine.families_certified") == 1
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(XS) - 1
        assert snapshot.counter_value("engine.points", backend="sim") == 1
        assert snapshot.gauge_value(
            "engine.calibration_error", family="probe-test"
        ) == pytest.approx(0.01)

    def test_falls_back_to_sim_when_model_misses(self):
        with scoped_registry() as registry:
            values = probe_series(_under("hybrid"), XS, _sim, _model_off)
            snapshot = registry.snapshot()
        assert values == [_sim(x) for x in XS]
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.counter_value(
            "engine.points", backend="sim"
        ) == len(XS)

    def test_tolerance_knob(self):
        def _model_near(x):
            return _sim(x) * 1.01

        with scoped_registry() as registry:
            values = probe_series(
                _under("hybrid"), XS, _sim, _model_near, tolerance=0.001
            )
            snapshot = registry.snapshot()
        assert values == [_sim(x) for x in XS]  # 1 % err > 0.1 % tol
        assert snapshot.counter_value("engine.families_fallback") == 1


class TestEngineResolution:
    """``learned`` has no probe path of its own, and the CLI's one
    executor carries the engine (and ``--engine-store``) to the probe
    figures."""

    @staticmethod
    def _model_near(x):
        return _sim(x) * 1.01

    @pytest.mark.parametrize("engine", ["learned"])
    def test_takes_the_hybrid_probe_path(self, engine):
        with scoped_registry() as registry:
            values = probe_series(
                _under(engine), XS, _sim, self._model_near
            )
            snapshot = registry.snapshot()
        mid = XS[len(XS) // 2]
        assert values == [
            _sim(x) if x == mid else self._model_near(x) for x in XS
        ]
        assert snapshot.counter_value("engine.families_certified") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--engine", "hybrid", "--engine-store", "{store}"],
            ["--engine", "learned"],
        ],
        ids=["hybrid-store", "learned"],
    )
    def test_probe_figures_run_from_the_cli(self, argv, tmp_path):
        from repro.experiments.__main__ import main

        argv = [a.format(store=tmp_path / "store") for a in argv]
        rc = main(
            [*argv, "--results-dir", str(tmp_path / "results"), "fig5"]
        )
        assert rc == 0


def test_unknown_engine_rejected():
    class Oracle:
        """An engine instance the executor accepts but no probe knows."""

        name = "oracle"

        def map(self, executor, specs):
            raise AssertionError("probes never map specs")

    with pytest.raises(ConfigurationError):
        probe_series(_under(Oracle()), XS, _sim, _model_exact)
