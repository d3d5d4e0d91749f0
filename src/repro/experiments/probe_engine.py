"""Engine selection for the probe-style figures (fig5/6/7).

The hBench figures evaluate probe *methods* point by point instead of
fanning :class:`~repro.parallel.runspec.RunSpec` batches over the
executor, so :class:`~repro.engine.HybridEngine` does not apply
directly.  :func:`probe_series` mirrors its contract at series
granularity: ``"model"`` evaluates the analytic helper everywhere
(strict), ``"hybrid"`` certifies the helper against one simulated
midpoint per series and falls back to the simulated probe for the whole
series when the calibration error exceeds the tolerance.  ``"learned"``
takes the hybrid path too: a probe series has no corpus features, and
the hybrid engine is the learned tier's own fallback.  The engine is
the one the figure's executor names (``executor.engine``).  The same
``engine.*`` metrics are recorded (see ``docs/OBSERVABILITY.md``), and
the ``"sim"`` path records none.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import ConfigurationError
from repro.metrics.registry import get_registry


def probe_series(
    executor,
    xs: Sequence,
    sim_fn: Callable,
    model_fn: Callable,
    tolerance: float = 0.05,
    label: str = "",
) -> list[float]:
    """Evaluate one figure series under the engine ``executor`` names
    (one of :data:`~repro.engine.ENGINE_NAMES`)."""
    engine = executor.engine
    if engine == "sim":
        return [sim_fn(x) for x in xs]
    registry = get_registry()
    if engine == "model":
        values = [model_fn(x) for x in xs]
        registry.counter("engine.points", backend="model").inc(len(values))
        return values
    if engine in ("hybrid", "learned"):
        mid = xs[len(xs) // 2]
        simulated = sim_fn(mid)
        registry.counter("engine.calibration_points").inc()
        err = (
            abs(model_fn(mid) - simulated) / simulated
            if simulated > 0
            else float("inf")
        )
        registry.gauge("engine.calibration_error", family=label).set(err)
        if err <= tolerance:
            registry.counter("engine.families_certified").inc()
            values = [
                simulated if x == mid else model_fn(x) for x in xs
            ]
            n_sim = sum(1 for x in xs if x == mid)
            registry.counter("engine.points", backend="model").inc(
                len(xs) - n_sim
            )
            registry.counter("engine.points", backend="sim").inc(n_sim)
            return values
        registry.counter("engine.families_fallback").inc()
        registry.counter("engine.points", backend="sim").inc(len(xs))
        return [sim_fn(x) for x in xs]
    raise ConfigurationError(
        f"unknown engine {engine!r}; expected sim, model, hybrid or "
        "learned"
    )
