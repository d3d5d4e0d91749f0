"""Tests for the hBench microbenchmark (Figs. 5-7 mechanisms)."""

import pytest

from repro.apps import HBench, TransferPattern
from repro.apps.hbench import (
    PartitionProbe,
    ReferenceProbe,
    StreamedProbe,
    TransferProbe,
)
from repro.errors import ConfigurationError
from repro.parallel import RunSpec
from repro.util.units import MB


@pytest.fixture(scope="module")
def hb():
    return HBench()


class TestTransferPatterns:
    def test_pattern_block_counts(self):
        assert TransferPattern.CC.blocks(5) == (16, 16)
        assert TransferPattern.IC.blocks(5) == (5, 16)
        assert TransferPattern.CD.blocks(5) == (16, 11)
        assert TransferPattern.ID.blocks(5) == (5, 11)
        with pytest.raises(ConfigurationError):
            TransferPattern.CC.blocks(17)

    def test_cc_curve_is_flat(self, hb):
        times = [t for _, t in hb.transfer_curve(TransferPattern.CC)]
        assert max(times) - min(times) < 5e-5
        # ~5.2 ms on the paper's machine.
        assert times[0] == pytest.approx(5.2e-3, rel=0.1)

    def test_ic_curve_rises_linearly(self, hb):
        times = [t for _, t in hb.transfer_curve(TransferPattern.IC)]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d > 0 for d in deltas)
        # Linear up to the per-action dispatch ripple.
        assert max(deltas) == pytest.approx(min(deltas), rel=0.05)

    def test_cd_curve_falls_linearly(self, hb):
        times = [t for _, t in hb.transfer_curve(TransferPattern.CD)]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d < 0 for d in deltas)

    def test_id_curve_is_flat_proving_serialisation(self, hb):
        # The paper's key Fig. 5 observation: with hd + dh = 16 the time
        # is constant ~2.5 ms.  If the directions overlapped, ID would
        # peak in the middle instead.
        times = [t for _, t in hb.transfer_curve(TransferPattern.ID)]
        # Flat to within the dispatch ripple (~2% of the level), nothing
        # like the dip a full-duplex link would produce (see below).
        assert max(times) - min(times) < 0.05 * min(times)
        assert times[0] == pytest.approx(2.5e-3, rel=0.1)

    def test_id_with_full_duplex_link_would_dip(self):
        # Ablation: a full-duplex link makes ID dominated by the larger
        # direction, so the middle of the sweep is *faster* than the
        # edges — the signature Phi does NOT show.
        from repro.device.spec import LinkSpec, PHI_31SP

        spec = PHI_31SP.with_overrides(
            link=LinkSpec(full_duplex=True)
        )
        hb = HBench(spec=spec)
        times = [t for _, t in hb.transfer_curve(TransferPattern.ID)]
        assert times[8] < times[0]
        assert times[8] < times[16]


class TestOverlap:
    def test_kernel_time_linear_in_iterations(self, hb):
        t20 = hb.kernel_time(20)
        t40 = hb.kernel_time(40)
        # Linear up to the (tiny) work-granularity factor.
        assert t40 == pytest.approx(2 * t20, rel=1e-2)

    def test_crossover_at_40_iterations(self, hb):
        # Fig. 6: the Data and Kernel lines intersect at ~40 iterations.
        assert hb.kernel_time(40) == pytest.approx(hb.data_time(), rel=0.1)
        assert hb.kernel_time(20) < hb.data_time()
        assert hb.kernel_time(60) > hb.data_time()

    @pytest.mark.parametrize("iterations", [20, 30, 40, 50, 60])
    def test_streamed_between_ideal_and_serial(self, hb, iterations):
        # Fig. 6: transfers do overlap computation, but a full overlap is
        # not achievable.
        streamed = hb.streamed_time(iterations)
        assert streamed < hb.serial_time(iterations)
        assert streamed > hb.ideal_time(iterations)

    def test_streams_validation(self, hb):
        with pytest.raises(ConfigurationError):
            hb.streamed_time(40, streams=0)


class TestPartitionSweep:
    def test_u_shape_over_partitions(self, hb):
        # Fig. 7: performance first improves then degrades with P.
        t1 = hb.partition_sweep_time(1)
        t8 = hb.partition_sweep_time(8)
        t128 = hb.partition_sweep_time(128)
        assert t8 < t1
        assert t8 < t128

    def test_reference_beats_streamed(self, hb):
        # Fig. 7: the non-tiled non-streamed code is the fastest — mere
        # spatial sharing does not pay for a non-overlappable kernel.
        ref = hb.reference_time()
        best = min(hb.partition_sweep_time(p) for p in (4, 8, 16))
        assert ref < best

    def test_validation(self, hb):
        with pytest.raises(ConfigurationError):
            hb.partition_sweep_time(4, nblocks=0)
        with pytest.raises(ConfigurationError):
            HBench(array_bytes=0)
        with pytest.raises(ConfigurationError):
            hb.partition_sweep_time(4, nblocks=100 * MB)


class TestProbes:
    """The probes as run specs: each runs its hBench method untouched,
    at the geometry that method fixes."""

    @pytest.mark.parametrize(
        "spec, measure",
        [
            (
                RunSpec.for_app(TransferProbe, 5, 11, places=2),
                lambda hb: hb.transfer_time(5, 11),
            ),
            (
                RunSpec.for_app(StreamedProbe, 40, 3, places=3),
                lambda hb: hb.streamed_time(40, streams=3),
            ),
            (
                RunSpec.for_app(PartitionProbe, 64, 10, places=7),
                lambda hb: hb.partition_sweep_time(7, 64, 10),
            ),
            (
                RunSpec.for_app(ReferenceProbe, 10, places=1),
                lambda hb: hb.reference_time(10),
            ),
        ],
        ids=["transfer", "streamed", "partition", "reference"],
    )
    def test_runs_its_hbench_method(self, hb, spec, measure):
        run = spec.execute()
        assert run.elapsed == measure(hb)
        predicted = spec.predict()
        assert (run.app, run.tiles, run.gflops) == pytest.approx(
            (predicted.app, predicted.tiles, predicted.gflops)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec.for_app(TransferProbe, 5, 11, places=4),
            RunSpec.for_app(StreamedProbe, 40, 4, places=2),
            RunSpec.for_app(ReferenceProbe, 100, places=2),
            RunSpec.for_app(PartitionProbe, 128, 100, places=4, num_devices=2),
            RunSpec.for_app(
                PartitionProbe, 128, 100, places=4, streams_per_place=2
            ),
        ],
        ids=[
            "transfer-at-4",
            "streamed-4-at-2",
            "reference-at-2",
            "two-cards",
            "two-streams-per-place",
        ],
    )
    def test_refuses_a_geometry_its_method_does_not_run(self, spec):
        with pytest.raises(ConfigurationError):
            spec.execute()
