"""Golden-shape regression suite: the paper's findings F1–F10.

Every test re-asserts one finding from DESIGN.md §1, reading only the
``experiment.value`` gauges a run records (see ``conftest.figure_
snapshot``).  Any optimization that changes a figure's *shape* — not
just its absolute numbers — fails here with the finding ID in the test
name.
"""

import pytest

from tests.findings.conftest import figure_snapshot, series


def _flat(values, tolerance=0.05):
    return max(values) - min(values) < tolerance * min(values)


@pytest.mark.finding("F1")
class TestF1TransfersSerialize:
    """Fig. 5: H2D and D2H are serialized on the link."""

    def test_id_flat_at_half_cc(self, fig5):
        cc = series(fig5, "fig5", "CC")
        id_ = series(fig5, "fig5", "ID")
        assert _flat(list(cc.values()))
        assert _flat(list(id_.values()))
        mean_cc = sum(cc.values()) / len(cc)
        mean_id = sum(id_.values()) / len(id_)
        # the ID schedule (both directions vary) costs half the CC
        # schedule — the directions share one serial resource
        assert mean_id == pytest.approx(mean_cc / 2, rel=0.10)

    def test_ic_rises_and_cd_falls_linearly(self, fig5):
        ic = series(fig5, "fig5", "IC")
        cd = series(fig5, "fig5", "CD")
        ic_values = [ic[x] for x in sorted(ic)]
        cd_values = [cd[x] for x in sorted(cd)]
        assert all(b > a for a, b in zip(ic_values, ic_values[1:]))
        assert all(b < a for a, b in zip(cd_values, cd_values[1:]))


@pytest.mark.finding("F2")
class TestF2PartialOverlap:
    """Fig. 6: transfers overlap kernels, but never fully."""

    def test_streamed_between_serial_and_ideal(self, fig6):
        streamed = series(fig6, "fig6", "Streamed")
        serial = series(fig6, "fig6", "Data+Kernel")
        ideal = series(fig6, "fig6", "Ideal")
        for x in streamed:
            assert ideal[x] < streamed[x] < serial[x], (
                f"at {x} iterations: ideal={ideal[x]} "
                f"streamed={streamed[x]} serial={serial[x]}"
            )


@pytest.mark.finding("F3")
class TestF3SpatialSharingAlone:
    """Fig. 7: with forced stage sync, no P beats the plain reference."""

    def test_u_shape_with_ref_lowest(self, fig7):
        curve = series(fig7, "fig7", "exec time")
        ref = curve.pop("ref")
        partitions = sorted(curve)
        times = [curve[p] for p in partitions]
        interior_best = min(times[1:-1])
        assert interior_best < times[0] and interior_best < times[-1]
        assert ref < min(times)


@pytest.mark.finding("F4")
class TestF4StreamedVsNonStreamed:
    """Fig. 8: streaming wins where overlap exists, SRAD crosses over."""

    def test_mm_and_cf_win_on_every_dataset(self, fig8):
        for panel in ("fig8a", "fig8b"):
            base = series(fig8, panel, "w/o")
            streamed = series(fig8, panel, "w/")
            for x in base:  # GFLOPS: higher is better
                assert streamed[x] > base[x], (panel, x)

    def test_kmeans_wins_on_every_dataset(self, fig8):
        base = series(fig8, "fig8c", "w/o")
        streamed = series(fig8, "fig8c", "w/")
        for x in base:  # seconds: lower is better
            assert streamed[x] < base[x], x

    def test_nn_wins_on_large_datasets(self, fig8):
        base = series(fig8, "fig8e", "w/o")
        streamed = series(fig8, "fig8e", "w/")
        large = [x for x in base if int(x.rstrip("k")) >= 512]
        assert large
        for x in large:
            assert streamed[x] < base[x], x

    def test_hotspot_sees_no_meaningful_change(self, fig8):
        base = series(fig8, "fig8d", "w/o")
        streamed = series(fig8, "fig8d", "w/")
        for x in base:
            assert streamed[x] / base[x] > 0.95, x

    def test_srad_crossover_small_loses_large_wins(self, fig8):
        base = series(fig8, "fig8f", "w/o")
        streamed = series(fig8, "fig8f", "w/")
        sizes = sorted(base, key=lambda x: int(x.split("^")[0]))
        smallest, largest = sizes[0], sizes[-1]
        assert streamed[smallest] > base[smallest]
        assert streamed[largest] < base[largest]


@pytest.mark.finding("F5")
class TestF5DivisorFastPoints:
    """Fig. 9a/9b: partition counts dividing 56 are the fast points."""

    def test_mm_aligned_beats_misaligned_neighbours(self, fig9):
        by_p = series(fig9, "fig9a", "GFLOPS")
        assert by_p[4] > by_p[3]
        assert by_p[14] > by_p[13]
        assert by_p[14] > by_p[16]

    def test_cf_aligned_beats_misaligned_neighbours(self, fig9):
        by_p = series(fig9, "fig9b", "GFLOPS")
        assert by_p[4] > by_p[3]
        assert by_p[14] > by_p[13]

    def test_mm_divisors_beat_their_misaligned_neighbours(self, fig9):
        by_p = series(fig9, "fig9a", "GFLOPS")
        for divisor, neighbour in ((4, 3), (8, 13), (28, 33)):
            assert by_p[divisor] > by_p[neighbour], (divisor, neighbour)


@pytest.mark.finding("F6")
class TestF6KmeansMonotone:
    """Fig. 9c: Kmeans falls monotonically with P (alloc overhead)."""

    def test_time_falls_monotonically_over_divisors(self, fig9):
        by_p = series(fig9, "fig9c", "seconds")
        divisors = [p for p in (1, 2, 4, 7, 8, 14, 28, 56) if p in by_p]
        times = [by_p[p] for p in divisors]
        assert times == sorted(times, reverse=True)


@pytest.mark.finding("F7")
class TestF7HotspotCacheDip:
    """Fig. 9d: Hotspot's optimum sits in the cache-friendly band."""

    def test_minimum_in_cache_friendly_band(self, fig9):
        by_p = series(fig9, "fig9d", "seconds")
        best = min(by_p, key=by_p.get)
        assert 28 <= best <= 40, f"optimum at P={best}"
        # the dip: P in [33, 37] (6-7 threads per partition span at
        # most two cores) at least matches the divisor point P=28
        assert min(by_p[33], by_p[37]) <= by_p[28]


@pytest.mark.finding("F8")
class TestF8NNPlateau:
    """Fig. 9e: NN drops sharply until P=4 then flattens."""

    def test_sharp_drop_then_plateau(self, fig9):
        by_p = series(fig9, "fig9e", "milliseconds")
        assert by_p[4] < by_p[1] / 2
        plateau = [by_p[p] for p in by_p if p >= 4]
        assert all(
            abs(v - by_p[4]) / by_p[4] < 0.35 for v in plateau
        )


@pytest.mark.finding("F9")
class TestF9TileSweeps:
    """Fig. 10: tile sweeps are U-shaped with app-specific optima."""

    def test_mm_needs_enough_tiles_but_not_too_many(self, fig10):
        by_t = series(fig10, "fig10a", "GFLOPS")
        assert by_t[4] > 2 * by_t[1]
        assert by_t[4] > by_t[400]

    def test_cf_wants_many_tiles(self, fig10):
        by_t = series(fig10, "fig10b", "GFLOPS")
        assert by_t[100] > 2 * by_t[4]

    def test_kmeans_best_at_t_equals_p(self, fig10):
        by_t = series(fig10, "fig10c", "seconds")
        assert min(by_t, key=by_t.get) == 4

    def test_nn_flat_between_t1_and_t4(self, fig10):
        by_t = series(fig10, "fig10e", "milliseconds")
        assert by_t[1] < 1.5 * by_t[4]
        assert by_t[max(by_t)] > by_t[4]  # very fine tiling loses

    def test_hotspot_and_srad_u_shaped(self, fig10):
        for panel in ("fig10d", "fig10f"):
            by_t = series(fig10, panel, "seconds")
            tiles = sorted(by_t)
            interior = min(by_t[t] for t in tiles[1:-1])
            assert interior < by_t[tiles[0]], panel
            assert interior < by_t[tiles[-1]], panel


@pytest.mark.finding("F10")
class TestF10MultiMicScaling:
    """Fig. 11: two MICs beat one but stay below the 2x projection."""

    def test_sublinear_two_card_scaling(self, fig11):
        one = series(fig11, "fig11", "1-mic")
        two = series(fig11, "fig11", "2-mics")
        projected = series(fig11, "fig11", "projected")
        for x in one:
            assert one[x] < two[x] < projected[x], x


class TestRecordedChecks:
    """Meta-regression: every driver's own checks passed and were
    recorded as counters (the manifest carries a pass/fail tally)."""

    @pytest.mark.parametrize(
        "figure, experiments",
        [
            ("fig5", ["fig5"]),
            ("fig6", ["fig6"]),
            ("fig7", ["fig7"]),
            ("fig9", ["fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f"]),
            ("fig10", ["fig10a", "fig10b", "fig10c", "fig10d", "fig10e",
                       "fig10f"]),
            ("fig11", ["fig11"]),
        ],
    )
    def test_all_driver_checks_green(self, engine, figure, experiments):
        snapshot = figure_snapshot(figure, engine)
        for experiment in experiments:
            passed = snapshot.counter_value(
                "experiment.checks_passed", experiment=experiment
            )
            failed = snapshot.counter_value(
                "experiment.checks_failed", experiment=experiment
            )
            assert passed > 0, experiment
            assert failed == 0, experiment
