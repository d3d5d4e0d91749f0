"""Nearest-rank percentiles with sample counts."""

import math

import pytest

from stats import TooFewSamples, median, nearest_rank, within


def test_nearest_rank_values_and_counts():
    values = list(range(1, 201))  # 1..200, shuffled order must not matter
    values.reverse()
    assert nearest_rank(values, 0.5) == (100, 200)
    assert nearest_rank(values, 0.9) == (180, 200)
    assert nearest_rank(list(range(1, 1001)), 0.99) == (990, 1000)


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        nearest_rank(list(range(999)), 0.99)
    with pytest.raises(TooFewSamples):
        nearest_rank(list(range(15)), 0.5)
    assert nearest_rank(list(range(20)), 0.5)[1] == 20


def test_failures_sort_as_infinitely_late():
    values = [1.0] * 95 + [math.inf] * 5 + [2.0] * 100
    assert nearest_rank(values, 0.5)[0] == 2.0
    assert nearest_rank(values, 0.9)[0] == 2.0
    values = [1.0] * 100 + [math.inf] * 100
    assert nearest_rank(values, 0.9)[0] == math.inf


def test_median_and_within():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert within(1.04, 1.0, 0.05)
    assert not within(1.06, 1.0, 0.05)
    assert not within(math.nan, 1.0, 0.05)


def test_weighted_samples_count_as_repeats():
    values, weights = [5.0, 1.0, 3.0], [10, 100, 90]
    repeated = [5.0] * 10 + [1.0] * 100 + [3.0] * 90
    for q in (0.5, 0.9, 0.95):
        assert nearest_rank(values, q, weights) == nearest_rank(repeated, q)
    assert nearest_rank(values, 0.5, weights) == (1.0, 200)
    assert nearest_rank(values, 0.9, weights) == (3.0, 200)
