"""The analytic model against the DES over the fig5/6/7 probe grids.

Two layers of evidence that the fast-path engine can stand in for the
simulator:

* **grid agreement** — every hBench probe's port
  (:mod:`repro.apps.hbench`), evaluated by the grid, is checked
  point-by-point against the simulated probe, over exactly the grids
  fig5, fig6 and fig7 sweep: within
  :data:`repro.engine.DEFAULT_TOLERANCE` everywhere, and to ``1e-9``
  relative at the points each figure's claims rest on;
* **model-shape properties** — Hypothesis drives
  :class:`repro.model.overlap.OverlapModel` over arbitrary stage times,
  asserting the orderings the X3 validation study leans on:
  ``serial >= streamed(n) >= ideal`` and ``streamed(n)`` monotonically
  non-increasing in ``n`` toward the ideal bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hbench import (
    HBench,
    PartitionProbe,
    ReferenceProbe,
    StreamedProbe,
    TransferPattern,
    TransferProbe,
)
from repro.engine import DEFAULT_TOLERANCE
from repro.model.overlap import OverlapModel
from repro.parallel import RunSpec, SweepExecutor
from tests.strategies import stage_times


def _rel_error(predicted: float, simulated: float) -> float:
    return abs(predicted - simulated) / simulated


def _model_and_des(spec: RunSpec) -> "tuple[float, float]":
    return spec.predict().elapsed, spec.execute().elapsed


def _transfer(hd: int, dh: int) -> RunSpec:
    return RunSpec.for_app(TransferProbe, hd, dh, places=2)


def _streamed(iterations: int) -> RunSpec:
    return RunSpec.for_app(StreamedProbe, iterations, 4, places=4)


class TestFig5GridTolerance:
    """Transfer-schedule model vs DES over the full fig5 grid."""

    @pytest.mark.parametrize("pattern", list(TransferPattern))
    def test_pattern_within_tolerance(self, pattern):
        total = 16
        for x in range(0, total + 1):
            predicted, simulated = _model_and_des(
                _transfer(*pattern.blocks(x, total))
            )
            assert _rel_error(predicted, simulated) <= DEFAULT_TOLERANCE, (
                pattern,
                x,
            )

    def test_pattern_model_is_exact(self):
        # The transfer replay reproduces the DES's request-ordered link
        # lane exactly — not merely within tolerance.
        for pattern in TransferPattern:
            predicted, simulated = _model_and_des(
                _transfer(*pattern.blocks(8, 16))
            )
            assert predicted == pytest.approx(simulated, rel=1e-9)


class TestFig6GridTolerance:
    """The Streamed line's chunk schedule vs DES over the full fig6
    grid."""

    def test_streamed_within_tolerance(self):
        from repro.experiments import fig6_overlap

        def streamed(engine):
            result = fig6_overlap.run(
                fast=False, executor=SweepExecutor(engine=engine)
            )
            return result.series_by_label("Streamed")

        assert streamed("model") == pytest.approx(
            streamed("sim"), rel=1e-9
        )

    def test_streamed_preserves_f2_ordering(self):
        # The certified substitute must keep the Streamed line strictly
        # between Ideal and Data+Kernel (finding F2).
        hb = HBench()
        for iterations in range(20, 61, 10):
            predicted = _streamed(iterations).predict().elapsed
            assert (
                hb.ideal_time(iterations)
                < predicted
                < hb.serial_time(iterations)
            ), iterations


class TestFig7Probes:
    """Partition-sweep and reference ports vs the DES."""

    @pytest.mark.parametrize("places", [1, 2, 8, 32, 128])
    def test_partition_sweep_exact(self, places):
        predicted, simulated = _model_and_des(
            RunSpec.for_app(PartitionProbe, 128, 100, places=places)
        )
        assert predicted == pytest.approx(simulated, rel=1e-9)

    def test_reference_exact(self):
        predicted, simulated = _model_and_des(
            RunSpec.for_app(ReferenceProbe, 100, places=1)
        )
        assert predicted == pytest.approx(simulated, rel=1e-9)


class TestOverlapModelProperties:
    @given(h2d=stage_times, exe=stage_times, d2h=stage_times,
           streams=st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_serial_streamed_ideal_ordering(self, h2d, exe, d2h, streams):
        model = OverlapModel(t_h2d=h2d, t_exe=exe, t_d2h=d2h)
        streamed = model.streamed(streams)
        eps = 1e-9 * model.serial()  # float summation-order noise
        assert model.serial() + eps >= streamed >= model.ideal() - eps

    @given(h2d=stage_times, exe=stage_times, d2h=stage_times)
    @settings(max_examples=200, deadline=None)
    def test_streamed_monotone_toward_ideal(self, h2d, exe, d2h):
        """More streams never hurt, and the curve approaches (without
        crossing) the ideal full-overlap bound."""
        model = OverlapModel(t_h2d=h2d, t_exe=exe, t_d2h=d2h)
        curve = [model.streamed(n) for n in range(1, 17)]
        for earlier, later in zip(curve, curve[1:]):
            assert later <= earlier + 1e-12
        assert curve[-1] >= model.ideal()

    @given(h2d=stage_times, exe=stage_times, d2h=stage_times)
    @settings(max_examples=100, deadline=None)
    def test_one_stream_is_serial(self, h2d, exe, d2h):
        model = OverlapModel(t_h2d=h2d, t_exe=exe, t_d2h=d2h)
        assert model.streamed(1) == pytest.approx(model.serial())
