"""Reference slices and the rescaling of measured times."""

import pytest

from speed import REFERENCE_S, Scale, Slices, _ring, reference_work


def test_reference_work_is_deterministic():
    ring = _ring(1 << 10)
    first, second = reference_work(ring), reference_work(ring)
    assert first[0] == second[0] and first[1] is second[1]
    assert reference_work(first[1])[1] is not first[1]  # the walk moves on


def _marks(slices):
    """``[(start, wall, cpu), ...]`` -> slice marks."""
    return [[t, t + w, t, t + c] for t, w, c in slices]


def test_scale_rescales_each_stretch_by_its_slices():
    r = REFERENCE_S
    # Three slices: at reference speed, twice as slow, at reference speed.
    scale = Scale(_marks([(0.0, r, r), (1.0, 2 * r, 2 * r),
                          (3.0, r, r)]))
    # Stretch 0 (between slices 0 and 1) runs at the mean speed of its
    # two slices, (1 + 0.5) / 2; stretch 1 likewise.
    assert scale.wall_factor == pytest.approx([0.75, 0.75])
    raw, ref = scale.work_wall()
    assert raw == pytest.approx((1.0 - r) + (3.0 - 1.0 - 2 * r))
    assert ref == pytest.approx(0.75 * raw)
    assert scale.mean_wall_factor() == pytest.approx(0.75)
    assert scale.wall(0.5, 0.2) == pytest.approx(0.15)
    assert scale.wall(2.0, 0.2) == pytest.approx(0.15)


def test_scale_follows_a_speed_change_within_a_run():
    r = REFERENCE_S
    fast = [(k * 0.1, r / 2, r / 2) for k in range(5)]
    slow = [(0.5 + k * 0.1, 2 * r, 2 * r) for k in range(5)]
    scale = Scale(_marks(fast + slow))
    assert scale.wall(0.05, 1.0) == pytest.approx(2.0)   # fast: 2x
    assert scale.wall(0.85, 1.0) == pytest.approx(0.5)   # slow: 0.5x
    raw, ref = scale.work_cpu()
    assert raw > 0 and ref > 0


def test_scale_needs_two_slices_and_slices_record_marks():
    with pytest.raises(ValueError):
        Scale(_marks([(0.0, REFERENCE_S, REFERENCE_S)]))
    slices = Slices(every_s=3600.0)
    slices.take()
    slices.maybe()  # too soon: no second slice
    assert len(slices.marks) == 1
    t0, t1, c0, c1 = slices.marks[0]
    assert t1 > t0 and c1 >= c0
