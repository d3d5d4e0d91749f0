"""Percentiles, process accounting and small numeric helpers."""

from __future__ import annotations

import math

#: Samples a percentile needs beyond it to be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def nearest_rank(values, q: float, weights=None) -> "tuple[float, int]":
    """Nearest-rank ``q`` percentile (0 < q < 1) and the sample count.

    The value is the ``ceil(q * n)``-th smallest.  With ``weights``,
    ``values[i]`` stands for ``weights[i]`` samples of that value (and
    ``n`` is their sum).  ``math.inf`` entries (failed operations) sort
    last, so a failure counts as infinitely late.  Raises
    :class:`TooFewSamples` unless at least :data:`MIN_BEYOND` samples lie
    beyond the rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie in (0, 1), got {q}")
    if weights is None:
        weights = [1] * len(values)
    pairs = sorted(zip(values, weights))
    n = sum(w for _v, w in pairs)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples leaves {n - rank} beyond it "
            f"(need {MIN_BEYOND})"
        )
    seen = 0
    for value, w in pairs:
        seen += w
        if seen >= rank:
            return value, n
    raise AssertionError("unreachable: rank <= n")


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def within(value: float, reference: float, tolerance: float) -> bool:
    """``value`` is finite and within ``tolerance`` (relative) of
    ``reference``."""
    return (
        math.isfinite(value)
        and reference > 0
        and abs(value - reference) <= tolerance * reference
    )
