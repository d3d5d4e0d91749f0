"""The ``learned`` engine tier: zero-DES answers behind an uncertainty gate.

:class:`LearnedEngine` evaluates a batch the way the hybrid tier does —
but its certificate is *statistical* rather than per-family: every spec
is featurized (:class:`~repro.engine.learned.features.FeatureExtractor`)
and pushed through the trained ridge
(:class:`~repro.engine.learned.model.RidgeModel`), and the posterior
predictive standard deviation decides the route.  Confident points
(``std <= gate``, log-space, so the gate reads as a relative-error
bound) are answered directly with ``engine="learned"`` and **zero** DES
work; uncertain or unsupported points ride the hybrid fallback, which
certifies or simulates them exactly as ``--engine hybrid`` would.

The fallback is also the *active-learning* tap: every simulated or
certified answer that came back for a featurizable point is recorded as
a labeled observation, and once :data:`RETRAIN_MIN` of them accumulate
the model is refit on corpus + observations — the DES budget is spent
precisely where the model was least sure, and the next batch benefits.

The default model trains lazily from the default corpus
(:func:`~repro.engine.learned.corpus.build_corpus`) on first use and is
cached per ``(count, seed, device fingerprint)`` for the process, so
``--engine learned`` costs one sub-second fit per process, ever.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.engines import _notify_all
from repro.engine.learned.corpus import (
    DEFAULT_COUNT,
    DEFAULT_SEED,
    build_corpus,
)
from repro.engine.learned.features import FeatureExtractor
from repro.engine.learned.model import RidgeModel, train_model
from repro.engine.store import resolve_store
from repro.errors import ConfigurationError, ModelUnsupportedError
from repro.metrics.registry import get_registry
from repro.util.units import gflops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import SweepExecutor

#: Max posterior predictive std (log space, ~relative error) for a
#: point to be answered without any DES involvement.  The default
#: corpus trains to a typical in-distribution std of ~0.05, so 0.12
#: passes the training manifold with ~2x headroom while still routing
#: genuinely novel shapes to the fallback.
DEFAULT_GATE = 0.12

#: Fallback-labeled observations accumulated before a refit.
RETRAIN_MIN = 8

#: Process-wide cache of default-trained models, keyed by
#: ``(count, seed, device-model fingerprint)``.
_MODEL_CACHE: dict = {}


def default_model(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, spec=None
) -> "tuple[RidgeModel, np.ndarray, np.ndarray]":
    """The lazily-built default ``(model, X, y)`` for a device spec.

    Cached per process: the corpus build plus the ridge fit cost well
    under a second, and every executor/engine constructed afterwards
    reuses the same fit (and the same training matrices, which seed the
    active-learning refits).
    """
    from repro.device.calibration import model_fingerprint
    from repro.device.spec import PHI_31SP

    spec = spec if spec is not None else PHI_31SP
    key = (count, seed, model_fingerprint(spec))
    cached = _MODEL_CACHE.get(key)
    if cached is None:
        corpus = build_corpus(count=count, seed=seed, spec=spec)
        x, y = corpus.matrices()
        cached = (train_model(corpus), x, y)
        _MODEL_CACHE[key] = cached
    return cached


class LearnedEngine:
    """Corpus-trained predictions where confident, hybrid elsewhere.

    Parameters
    ----------
    model:
        A fitted :class:`RidgeModel`, or ``None`` to train the default
        corpus model lazily on first use.
    gate:
        Uncertainty gate: points whose predictive std (log space)
        exceeds it are routed to the fallback.  ``gate=0`` sends every
        point to the fallback (useful for tests and paranoid runs).
    fallback:
        Engine handling uncertain/unsupported points.  Default: a
        :class:`~repro.engine.engines.HybridEngine` sharing this
        engine's store, so routed points still come back certified or
        simulated — never as unverified model numbers.
    corpus_count / corpus_seed:
        Shape of the lazily-built default corpus (ignored when
        ``model`` is given).
    retrain_min:
        Fallback observations accumulated before refitting on
        corpus + observations.  ``0`` disables active learning.
    """

    name = "learned"

    def __init__(
        self,
        model: "RidgeModel | None" = None,
        gate: float = DEFAULT_GATE,
        fallback=None,
        store=None,
        corpus_count: int = DEFAULT_COUNT,
        corpus_seed: int = DEFAULT_SEED,
        retrain_min: int = RETRAIN_MIN,
    ) -> None:
        if gate < 0:
            raise ConfigurationError(f"gate must be >= 0, got {gate}")
        if retrain_min < 0:
            raise ConfigurationError(
                f"retrain_min must be >= 0, got {retrain_min}"
            )
        self.model = model
        self.gate = gate
        self.store = resolve_store(store)
        self._fallback = fallback
        self.corpus_count = corpus_count
        self.corpus_seed = corpus_seed
        self.retrain_min = retrain_min
        self.retrains = 0
        #: Training matrices behind ``self.model`` (None until known).
        #: Seeded from the default corpus for lazily-trained models;
        #: an externally supplied model without matrices cannot refit,
        #: so active learning stays off for it.
        self._base_x: "np.ndarray | None" = None
        self._base_y: "np.ndarray | None" = None
        #: Labeled fallback observations awaiting the next refit.
        self._pending: "list[tuple[np.ndarray, float]]" = []
        self._extractors: dict = {}

    # -- internals -----------------------------------------------------------

    def _extractor(self, device_spec) -> FeatureExtractor:
        ex = self._extractors.get(id(device_spec))
        if ex is None:
            ex = FeatureExtractor(device_spec)
            self._extractors[id(device_spec)] = ex
        return ex

    def _ensure_model(self, device_spec) -> RidgeModel:
        if self.model is None:
            self.model, self._base_x, self._base_y = default_model(
                self.corpus_count, self.corpus_seed, device_spec
            )
        return self.model

    def fallback_engine(self):
        """The engine uncertain/unsupported points route to (built
        lazily so a fully-confident batch constructs nothing)."""
        if self._fallback is None:
            from repro.engine.engines import HybridEngine

            self._fallback = HybridEngine(store=self.store)
        return self._fallback

    def predict_spec(self, spec) -> "tuple[float, float]":
        """``(predicted seconds, log-space std)`` for one spec — the
        point-query surface ``repro.serve`` and the benchmarks use.
        Raises :class:`~repro.errors.ModelUnsupportedError` outside the
        featurizable surface."""
        point = self._extractor(spec.device_spec).describe(spec)
        model = self._ensure_model(spec.device_spec)
        return model.predict_seconds(point.features)

    def observe(self, features: np.ndarray, elapsed: float) -> None:
        """Record one labeled (features, seconds) observation from the
        fallback path; refit once ``retrain_min`` accumulate."""
        if self.retrain_min < 1 or self._base_x is None:
            return
        if not np.isfinite(elapsed) or elapsed <= 0:
            return
        self._pending.append((np.asarray(features, float), float(elapsed)))
        if len(self._pending) >= self.retrain_min:
            self._retrain()

    def _retrain(self) -> None:
        obs_x = np.array([f for f, _ in self._pending])
        obs_y = np.log(np.array([t for _, t in self._pending]))
        self._base_x = np.vstack([self._base_x, obs_x])
        self._base_y = np.concatenate([self._base_y, obs_y])
        self._pending.clear()
        self.model = RidgeModel.fit(
            self._base_x,
            self._base_y,
            self.model.feature_names,
            lam=self.model.lam,
        )
        self.retrains += 1
        get_registry().counter("engine.learned.retrains").inc()

    # -- the engine surface --------------------------------------------------

    def map(self, executor: "SweepExecutor", specs: list) -> list:
        from repro.apps.base import AppRun

        registry = get_registry()
        n = len(specs)
        results: list = [None] * n

        # Featurize, then predict the whole batch in one matrix pass.
        points: dict[int, object] = {}
        routed: list[int] = []  # unsupported + uncertain
        for i, spec in enumerate(specs):
            try:
                points[i] = self._extractor(spec.device_spec).describe(spec)
            except (ModelUnsupportedError, ConfigurationError):
                routed.append(i)
        confident: list[int] = []
        if points:
            model = self._ensure_model(specs[next(iter(points))].device_spec)
            idx = sorted(points)
            mean, std = model.predict(
                np.array([points[i].features for i in idx])
            )
            std_hist = registry.histogram("engine.learned.std")
            for j, i in enumerate(idx):
                std_hist.observe(float(std[j]))
                if std[j] <= self.gate:
                    confident.append(i)
                    point = points[i]
                    elapsed = float(np.exp(mean[j]))
                    flops = point.total_flops
                    results[i] = AppRun(
                        app=point.app,
                        elapsed=elapsed,
                        places=point.places,
                        tiles=point.tiles,
                        gflops=gflops(flops, elapsed) if flops > 0 else None,
                        engine="learned",
                    )
                else:
                    routed.append(i)

        # Uncertain and unsupported points ride the hybrid fallback —
        # they come back certified-model or simulated, never as an
        # unverified learned number — and featurizable ones feed the
        # active-learning refit.
        routed.sort()
        if routed:
            fallback_runs = self.fallback_engine().map(
                executor, [specs[i] for i in routed]
            )
            for i, run in zip(routed, fallback_runs):
                results[i] = run
                point = points.get(i)
                if point is not None:
                    self.observe(
                        point.features, getattr(run, "elapsed", float("nan"))
                    )

        _notify_all(executor, [specs[i] for i in confident])
        if n:
            registry.counter("engine.points", backend="learned").inc(
                len(confident)
            )
            registry.counter("engine.learned.fallback").inc(len(routed))
            registry.gauge("engine.learned.fallback_rate").set(
                len(routed) / n
            )
        return results
