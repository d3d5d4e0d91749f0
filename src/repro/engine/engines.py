"""The pluggable evaluation engines behind ``SweepExecutor``.

Four ways to evaluate a batch of :class:`~repro.parallel.runspec.RunSpec`:

* ``sim`` — the discrete-event simulation (the executor's native path:
  process pool, cache, retries, fault injection).  Selecting it attaches
  no engine object at all.
* ``model`` — :func:`repro.engine.grid.predict_run` for every spec.
  Strict: a spec outside the analytic fast path raises
  :class:`~repro.errors.ModelUnsupportedError`.
* ``hybrid`` — the model everywhere it can be *certified*: specs are
  grouped into families (app class × run geometry × device-model
  fingerprint), a small spread of calibration points per family is
  simulated through the executor's normal cached path, and the family
  uses the model only if the worst calibration error is within
  tolerance; otherwise every point falls back to the DES.
* ``learned`` — :class:`repro.engine.learned.LearnedEngine`: a
  corpus-trained ridge answers points whose posterior predictive
  uncertainty clears a gate with **zero** DES work; uncertain or
  unsupported points ride the hybrid fallback (see ``docs/LEARNED.md``).

Engines record ``engine.*`` metrics into the active registry (see
``docs/OBSERVABILITY.md``); the default ``sim`` path records none, so
existing metric sets are unchanged.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.store import FamilyVerdict, family_store_key, resolve_store
from repro.errors import ConfigurationError
from repro.metrics.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import SweepExecutor
    from repro.parallel.runspec import RunSpec

#: Engine names accepted everywhere an ``engine=`` knob exists.
ENGINE_NAMES: tuple[str, ...] = ("sim", "model", "hybrid", "learned")

#: Max relative error vs the DES for a family to use the model.
DEFAULT_TOLERANCE = 0.05

#: Calibration points simulated per family before certification.
DEFAULT_CALIBRATION_POINTS = 3


def _family_key(spec: "RunSpec") -> tuple:
    """Specs whose timings come from the same model surface.

    One certification decision covers a family: same app class, same
    stream geometry class, same device-model fingerprint.  A fig9-style
    partition sweep is one family; a fig8 dataset sweep is too.

    App classes whose instances are *content* rather than a fixed shape
    (workload scenarios) refine the key via an optional
    ``family_signature`` classmethod: two different scenarios must never
    share one certification verdict.  A ``None`` signature means "no
    refinement needed" and leaves the key unchanged.
    """
    from repro.device.calibration import model_fingerprint

    key = (
        spec.app_cls,
        spec.streams_per_place,
        spec.num_devices,
        model_fingerprint(spec.device_spec),
    )
    signature = getattr(spec.app_cls, "family_signature", None)
    if signature is not None:
        sig = signature(spec)
        if sig is not None:
            key += (sig,)
    return key


def _family_label(spec: "RunSpec") -> str:
    return (
        f"{spec.app_cls.__name__.lower()}"
        f"-d{spec.num_devices}-s{spec.streams_per_place}"
    )


def _notify_all(executor, specs) -> None:
    """Fire the executor's per-spec progress for engine-answered points
    (guarded so bare test doubles without the hook still work)."""
    notify = getattr(executor, "_notify_progress", None)
    if notify is not None:
        for spec in specs:
            notify(spec)


class ModelEngine:
    """Evaluate every spec analytically; refuse anything unsupported.

    The batch goes through the grid path (:mod:`repro.engine.grid`):
    each shape is lowered once and each family evaluated point by
    point.
    """

    name = "model"

    def map(self, executor: "SweepExecutor", specs: list) -> list:
        from repro.engine.grid import predict_runs

        results = predict_runs(specs)
        _notify_all(executor, specs)
        if results:
            get_registry().counter("engine.points", backend="model").inc(
                len(results)
            )
        return results


class HybridEngine:
    """Model where certified against the DES, simulation elsewhere.

    Certification is per family (:func:`_family_key`): up to
    ``calibration_points`` spread specs are executed through the
    executor's normal simulation path — parallel, cached, so repeated
    sweeps re-certify for free — and the family's predictions are kept
    only if every calibration point's relative error is within
    ``tolerance``.  Calibration points always report their simulated
    result (never a prediction), so a certified sweep contains no
    unverified numbers at the calibration sites.

    With a persistent :class:`~repro.engine.store.EngineStore`
    (``store=`` / ``--engine-store``), certification verdicts and their
    calibration spreads survive the process: a family whose verdict is
    already on disk — same model fingerprint, same tolerance, same
    spread size — is answered with **zero** DES calibration runs
    (certified families report pure predictions; failed families route
    straight to the simulator).  Calibration cost is recorded as the
    ``engine.calibration.eval_seconds`` histogram either way.
    """

    name = "hybrid"

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        calibration_points: int = DEFAULT_CALIBRATION_POINTS,
        store=None,
    ) -> None:
        if tolerance <= 0:
            raise ConfigurationError(
                f"tolerance must be positive, got {tolerance}"
            )
        if calibration_points < 1:
            raise ConfigurationError(
                f"calibration_points must be >= 1, got {calibration_points}"
            )
        self.tolerance = tolerance
        self.calibration_points = calibration_points
        #: Persistent certified-family store (path or
        #: :class:`~repro.engine.store.EngineStore`), or None.
        self.store = resolve_store(store)

    def _store_key(self, key: tuple) -> str:
        """The on-disk identity of one family's verdict: the
        ``_family_key`` tuple flattened to a string, plus everything
        else the verdict depends on (tolerance, spread size)."""
        app_cls, spp, devices, fingerprint = key[:4]
        family = (
            f"{app_cls.__module__}.{app_cls.__qualname__}"
            f"|S={spp}|D={devices}"
        )
        for part in key[4:]:  # family_signature refinements
            family += f"|{part}"
        return family_store_key(
            fingerprint, family, self.tolerance, self.calibration_points
        )

    def map(self, executor: "SweepExecutor", specs: list) -> list:
        from repro.engine.grid import GridPlan

        registry = get_registry()
        n = len(specs)
        families: dict[tuple, list[int]] = {}
        for i, spec in enumerate(specs):
            families.setdefault(_family_key(spec), []).append(i)

        # Whole-grid prediction up front: the model answers every point
        # it can before any pool dispatch; only the points it refuses
        # (None) ride the simulator.
        grid_preds = GridPlan.build(specs).predict_runs(strict=False)

        predictions: dict[int, object] = {}
        calibration: dict[tuple, list[int]] = {}
        sim_indices: list[int] = []
        for key, members in families.items():
            if any(grid_preds[i] is None for i in members):
                # One refused member drops its whole family to the
                # simulator.
                sim_indices.extend(members)
                registry.counter("engine.families_fallback").inc()
                continue
            for i in members:
                predictions[i] = grid_preds[i]
            k = min(self.calibration_points, len(members))
            picks = np.unique(
                np.linspace(0, len(members) - 1, k).round().astype(int)
            )
            calibration[key] = [members[p] for p in picks]

        # Store pass: a persisted verdict (same fingerprint, tolerance
        # and spread size) answers its family with zero DES calibration
        # runs — certified families report pure predictions, failed
        # ones route straight to the simulator.
        stored: dict[tuple, FamilyVerdict] = {}
        if self.store is not None:
            for key in list(calibration):
                verdict = self.store.get(self._store_key(key))
                if verdict is not None:
                    stored[key] = verdict
                    del calibration[key]

        # One batched simulation pass covers every family's calibration
        # points (cache-backed; inline when small enough that a worker
        # spawn would cost more than simulating in-process).
        calib_indices = sorted(i for ids in calibration.values() for i in ids)
        calib_t0 = perf_counter()
        calib_runs = dict(
            zip(
                calib_indices,
                executor._map_sim(
                    [specs[i] for i in calib_indices], inline=True
                ),
            )
        )
        registry.counter("engine.calibration_points").inc(len(calib_indices))

        results: list = [None] * n
        #: Per family label, the worst verdict of the batch: families
        #: that share a label share one gauge.
        errors: dict[str, float] = {}
        for key, members in families.items():
            if key in stored:
                verdict = stored[key]
                label = _family_label(specs[members[0]])
                errors[label] = max(
                    errors.get(label, verdict.worst_error),
                    verdict.worst_error,
                )
                if verdict.certified:
                    registry.counter("engine.families_certified").inc()
                    for i in members:
                        results[i] = predictions[i]
                else:
                    registry.counter("engine.families_fallback").inc()
                    sim_indices.extend(members)
                continue
            if key not in calibration:
                continue  # unsupported family: simulated below
            worst = 0.0
            spread: "list[dict] | None" = []
            for i in calibration[key]:
                sim_elapsed = getattr(calib_runs[i], "elapsed", float("nan"))
                if not np.isfinite(sim_elapsed) or sim_elapsed <= 0:
                    worst = float("inf")
                    spread = None
                    break
                err = abs(predictions[i].elapsed - sim_elapsed) / sim_elapsed
                worst = max(worst, err)
                if spread is not None:
                    spread.append(
                        {
                            "places": specs[i].places,
                            "key": specs[i].cache_key(),
                            "predicted": predictions[i].elapsed,
                            "simulated": sim_elapsed,
                            "error": err,
                        }
                    )
            label = _family_label(specs[members[0]])
            errors[label] = max(errors.get(label, worst), worst)
            if worst <= self.tolerance:
                registry.counter("engine.families_certified").inc()
                for i in members:
                    if i in calib_runs:
                        results[i] = calib_runs[i]
                    else:
                        results[i] = predictions[i]
            else:
                registry.counter("engine.families_fallback").inc()
                for i in members:
                    if i in calib_runs:
                        results[i] = calib_runs[i]
                    else:
                        sim_indices.append(i)
            if self.store is not None and spread is not None:
                self.store.put(
                    self._store_key(key),
                    FamilyVerdict(
                        certified=worst <= self.tolerance,
                        worst_error=worst,
                        tolerance=self.tolerance,
                        calibration=tuple(spread),
                    ),
                )
        for label, worst in errors.items():
            registry.gauge("engine.calibration_error", family=label).set(worst)
        registry.histogram("engine.calibration.eval_seconds").observe(
            perf_counter() - calib_t0
        )

        sim_indices.sort()
        if sim_indices:
            sim_runs = executor._map_sim([specs[i] for i in sim_indices])
            for i, run in zip(sim_indices, sim_runs):
                results[i] = run

        # The simulated subsets fired their own per-spec progress inside
        # _map_sim; model-answered points complete here.
        simulated = set(calib_indices)
        simulated.update(sim_indices)
        _notify_all(
            executor,
            [spec for i, spec in enumerate(specs) if i not in simulated],
        )

        n_sim = sum(
            1 for r in results if getattr(r, "engine", "sim") != "model"
        )
        if n:
            registry.counter("engine.points", backend="model").inc(n - n_sim)
            registry.counter("engine.points", backend="sim").inc(n_sim)
            registry.gauge("engine.fallback_rate").set(n_sim / n)
            if n_sim:
                registry.counter("engine.grid.points", route="sim").inc(
                    n_sim
                )
        return results


def resolve_engine(engine, store=None):
    """Map an ``engine=`` knob value to an engine object (or ``None``).

    Accepts a name from :data:`ENGINE_NAMES` or a ready-made engine
    instance (anything with a ``map(executor, specs)`` method), so
    callers can pass e.g. ``HybridEngine(tolerance=0.02)`` directly.
    ``"sim"`` resolves to ``None``: the executor's native path.

    ``store`` (a path or :class:`~repro.engine.store.EngineStore`) is
    threaded into the name-built engines that certify (``hybrid`` and
    ``learned``; the strict model engine certifies nothing); an engine
    *instance* with a ``store`` attribute keeps its own store unless it
    has none, in which case the resolved one is attached.
    """
    if engine is None or engine == "sim":
        return None
    store = resolve_store(store)
    if engine == "model":
        return ModelEngine()
    if engine == "hybrid":
        return HybridEngine(store=store)
    if engine == "learned":
        from repro.engine.learned import LearnedEngine

        return LearnedEngine(store=store)
    if hasattr(engine, "map") and hasattr(engine, "name"):
        if store is not None and hasattr(engine, "store") and (
            engine.store is None
        ):
            engine.store = store
        return engine
    raise ConfigurationError(
        f"unknown engine {engine!r}; expected one of {ENGINE_NAMES} "
        "or an engine instance"
    )
