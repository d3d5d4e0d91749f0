"""Measurement statistics and the paper's run protocol.

The paper runs every benchmark for 11 iterations, drops the first, and
reports the mean (Sec. III-B).  :func:`summarize` applies exactly that;
:func:`mean_confidence` adds a Student-t confidence interval for reports.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import RunProtocol, PAPER_PROTOCOL


@dataclass(frozen=True)
class Summary:
    """Aggregated measurements of one benchmark configuration."""

    mean: float
    std: float
    n: int
    minimum: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.6g} ± {self.std:.2g} (n={self.n})"


def summarize(
    samples: Sequence[float], protocol: RunProtocol = PAPER_PROTOCOL
) -> Summary:
    """Apply the paper's protocol: drop warmup samples, aggregate the rest."""
    if len(samples) < protocol.iterations:
        raise ValueError(
            f"need {protocol.iterations} samples for the protocol, got "
            f"{len(samples)}"
        )
    kept = np.asarray(samples[protocol.warmup :], dtype=float)
    return Summary(
        mean=float(kept.mean()),
        std=float(kept.std(ddof=1)) if len(kept) > 1 else 0.0,
        n=len(kept),
        minimum=float(kept.min()),
        maximum=float(kept.max()),
    )


def mean_confidence(
    samples: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and half-width of the Student-t confidence interval."""
    # Imported here: scipy.stats costs about a second to import, and
    # nothing on the serving or sweep paths needs it.
    from scipy import stats as sps

    data = np.asarray(samples, dtype=float)
    if data.size < 2:
        raise ValueError("need at least two samples for a confidence interval")
    mean = float(data.mean())
    sem = float(sps.sem(data))
    if sem == 0.0:
        return mean, 0.0
    half = sem * float(sps.t.ppf((1 + confidence) / 2.0, data.size - 1))
    return mean, half
