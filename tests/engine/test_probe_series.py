"""The engine contract for the fig5/6/7 probe series.

The hBench probes are run specs (:mod:`repro.apps.hbench`), so each
engine evaluates a probe series through the executor it is handed:
``sim`` runs the probes' DES bodies and records no ``engine.*``
metrics, ``model`` answers every point from the probes' ports,
``hybrid`` certifies each probe kind as its own family against
simulated calibration points, and ``learned`` leaves every probe to its
hybrid fallback (a probe's port has no shape to featurize).
"""

import pytest

from repro.apps.hbench import (
    HBench,
    PartitionProbe,
    ReferenceProbe,
    StreamedProbe,
    TransferProbe,
)
from repro.engine import HybridEngine
from repro.engine.grid import clear_grid_caches
from repro.engine.learned.features import FeatureExtractor
from repro.errors import ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SweepExecutor

#: A five-point fig5-style series (the ID schedule): one family.
XS = [0, 4, 8, 12, 16]
SERIES = [RunSpec.for_app(TransferProbe, x, 16 - x, places=2) for x in XS]


def _map(engine, specs=SERIES):
    with scoped_registry() as registry:
        runs = SweepExecutor(engine=engine).map(specs)
        snapshot = registry.snapshot()
    return runs, snapshot


def _des():
    hb = HBench()
    return [hb.transfer_time(x, 16 - x) for x in XS]


@pytest.fixture
def skew(monkeypatch):
    """``skew(f)`` scales every byte count of the transfer probes' port
    by ``f``, so the model misses the DES by about that factor."""
    schedule = TransferProbe._schedule

    def apply(factor):
        def skewed(self):
            works, ops = schedule(self)
            return works, [
                (kind, tile, int(nbytes * factor))
                for kind, tile, nbytes in ops
            ]

        monkeypatch.setattr(TransferProbe, "_schedule", skewed)
        clear_grid_caches()

    yield apply
    clear_grid_caches()


class TestSimAndModel:
    @pytest.mark.parametrize("engine", ["sim"])
    def test_sim_uses_probe_and_records_nothing(self, engine):
        runs, snapshot = _map(engine)
        assert [r.elapsed for r in runs] == _des()
        assert {r.engine for r in runs} == {"sim"}
        recorded = [
            entry["name"]
            for section in ("counters", "gauges", "histograms")
            for entry in snapshot.to_dict()[section]
        ]
        assert not [n for n in recorded if n.startswith("engine.")]

    def test_model_uses_model_everywhere(self):
        runs, snapshot = _map("model")
        assert {r.engine for r in runs} == {"model"}
        assert [r.elapsed for r in runs] == [
            spec.predict().elapsed for spec in SERIES
        ]
        assert [r.elapsed for r in runs] == pytest.approx(_des(), rel=1e-9)
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(XS)


class TestHybrid:
    def test_certifies_and_keeps_simulated_midpoint(self):
        runs, snapshot = _map("hybrid")
        # The calibration spread of five points is 0, 2 and 4: the
        # midpoint and both ends report their simulated times.
        assert [r.engine for r in runs] == [
            "sim", "model", "sim", "model", "sim"
        ]
        assert [r.elapsed for r in runs[::2]] == _des()[::2]
        assert snapshot.counter_value("engine.calibration_points") == 3
        assert snapshot.counter_value("engine.families_certified") == 1
        assert snapshot.counter_value("engine.points", backend="model") == 2
        assert snapshot.counter_value("engine.points", backend="sim") == 3
        assert snapshot.gauge_value(
            "engine.calibration_error", family="transferprobe-d1-s1"
        ) < 1e-12

    def test_each_probe_kind_is_its_own_family(self):
        specs = [
            *SERIES[:2],
            RunSpec.for_app(StreamedProbe, 40, 4, places=4),
            RunSpec.for_app(PartitionProbe, 128, 100, places=8),
            RunSpec.for_app(PartitionProbe, 128, 100, places=16),
            RunSpec.for_app(ReferenceProbe, 100, places=1),
        ]
        _, snapshot = _map("hybrid", specs)
        assert snapshot.counter_value("engine.families_certified") == 4
        for family in ("transfer", "streamed", "partition", "reference"):
            assert snapshot.gauge_value(
                "engine.calibration_error", family=f"{family}probe-d1-s1"
            ) < 1e-12

    def test_falls_back_to_sim_when_model_misses(self, skew):
        skew(2.5)
        runs, snapshot = _map("hybrid")
        assert [r.elapsed for r in runs] == _des()
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.counter_value(
            "engine.points", backend="sim"
        ) == len(XS)

    def test_tolerance_knob(self, skew):
        skew(1.01)
        runs, snapshot = _map("hybrid")
        assert snapshot.counter_value("engine.families_certified") == 1
        runs, snapshot = _map(HybridEngine(tolerance=0.001))
        assert [r.elapsed for r in runs] == _des()  # ~1 % err > 0.1 % tol
        assert snapshot.counter_value("engine.families_fallback") == 1


class TestEngineResolution:
    """``learned`` answers no probe point: it cannot featurize one, so
    every probe takes its hybrid fallback."""

    @pytest.mark.parametrize("engine", ["learned"])
    def test_takes_the_hybrid_probe_path(self, engine):
        runs, snapshot = _map(engine)
        hybrid, _ = _map("hybrid")
        assert [r.elapsed for r in runs] == [r.elapsed for r in hybrid]
        assert snapshot.counter_value("engine.points", backend="learned") == 0
        assert snapshot.counter_value("engine.learned.fallback") == len(XS)
        assert snapshot.counter_value("engine.families_certified") == 1
        with pytest.raises(ModelUnsupportedError, match="no shaped port"):
            FeatureExtractor().describe(SERIES[0])
