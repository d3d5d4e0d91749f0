"""The learned tier's regression model: Bayesian ridge on log-time.

Hand-rolled on purpose — the container policy keeps heavy ML deps
optional — and sufficient: with the physics-informed feature map
(:mod:`repro.engine.learned.features`) a 13-coefficient ridge predicts
held-out analytic makespans to a few percent (see ``docs/LEARNED.md``).
Working in log space makes the residual scale-free, so the predictive
standard deviation *is* an approximate relative error — exactly the
quantity the uncertainty gate thresholds.

The posterior is the standard conjugate form: with Gram matrix
``A = X'X + lam*I``, the coefficients are ``A^{-1} X'y`` and a point
``x`` predicts ``N(x.coef, sigma2 * (1 + x' A^{-1} x))`` — the noise
floor plus a leverage term that grows off the training manifold, which
is what routes out-of-distribution queries to the DES fallback.

Serialization is plain JSON: Python floats round-trip exactly through
``repr``, so a reloaded model predicts **bit-identically** (held by
``tests/engine/test_learned_model.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.learned.corpus import Corpus

#: Schema identifier embedded in serialized models.
MODEL_SCHEMA = "repro.learned.model"

#: Current model schema version (bumped on incompatible changes).
MODEL_VERSION = 1

#: Default ridge regularisation strength (matches
#: :mod:`repro.autotune.mltune`).
RIDGE_LAMBDA = 1e-3


@dataclass
class RidgeModel:
    """A fitted Bayesian ridge over a fixed feature layout."""

    feature_names: tuple
    lam: float
    coef: np.ndarray
    #: Posterior scale matrix ``(X'X + lam*I)^{-1}``.
    cov: np.ndarray
    #: Residual variance of the fit (log-space).
    sigma2: float
    n_samples: int

    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        feature_names: tuple,
        lam: float = RIDGE_LAMBDA,
    ) -> "RidgeModel":
        """Fit on ``(features, log-seconds)`` rows."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ConfigurationError(
                f"need matching 2-D X and 1-D y, got {x.shape} / {y.shape}"
            )
        d = x.shape[1]
        if d != len(feature_names):
            raise ConfigurationError(
                f"X has {d} columns but {len(feature_names)} feature names"
            )
        if len(y) < d + 2:
            raise ConfigurationError(
                f"need at least {d + 2} samples to fit {d} coefficients "
                f"with a residual estimate, got {len(y)}"
            )
        if lam <= 0:
            raise ConfigurationError(f"lam must be positive, got {lam}")
        gram = x.T @ x + lam * np.eye(d)
        cov = np.linalg.inv(gram)
        coef = cov @ (x.T @ y)
        resid = y - x @ coef
        sigma2 = float(resid @ resid) / max(len(y) - d, 1)
        return cls(
            feature_names=tuple(feature_names),
            lam=float(lam),
            coef=coef,
            cov=cov,
            sigma2=sigma2,
            n_samples=len(y),
        )

    # -- prediction ---------------------------------------------------------

    def predict(
        self, x: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(mean, std)`` in log-seconds for feature rows ``x``.

        ``std`` is the posterior predictive standard deviation; in log
        space it reads as an approximate relative error, which is what
        the engine's uncertainty gate compares against.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != len(self.coef):
            raise ConfigurationError(
                f"expected {len(self.coef)} features, got {x.shape[1]}"
            )
        mean = x @ self.coef
        leverage = np.einsum("ij,jk,ik->i", x, self.cov, x)
        std = np.sqrt(self.sigma2 * (1.0 + leverage))
        return mean, std

    def predict_seconds(self, x: np.ndarray) -> "tuple[float, float]":
        """``(seconds, log-space std)`` for one feature vector."""
        mean, std = self.predict(np.asarray(x)[None, :])
        return float(np.exp(mean[0])), float(std[0])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": MODEL_SCHEMA,
            "schema_version": MODEL_VERSION,
            "feature_names": list(self.feature_names),
            "lam": self.lam,
            "coef": [float(v) for v in self.coef],
            "cov": [[float(v) for v in row] for row in self.cov],
            "sigma2": self.sigma2,
            "n_samples": self.n_samples,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RidgeModel":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"model must be an object, got {payload!r}"
            )
        if payload.get("schema") != MODEL_SCHEMA:
            raise ConfigurationError(
                f"not a learned model (schema={payload.get('schema')!r}, "
                f"expected {MODEL_SCHEMA!r})"
            )
        if payload.get("schema_version") != MODEL_VERSION:
            raise ConfigurationError(
                f"unsupported model schema version "
                f"{payload.get('schema_version')!r} (this build reads "
                f"{MODEL_VERSION})"
            )
        try:
            return cls(
                feature_names=tuple(payload["feature_names"]),
                lam=float(payload["lam"]),
                coef=np.array(payload["coef"], dtype=np.float64),
                cov=np.array(payload["cov"], dtype=np.float64),
                sigma2=float(payload["sigma2"]),
                n_samples=int(payload["n_samples"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid model payload: {exc}")

    def to_json(self, indent: "int | None" = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RidgeModel":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"model is not JSON: {exc}")
        return cls.from_dict(payload)


def train_model(corpus: "Corpus", lam: float = RIDGE_LAMBDA) -> RidgeModel:
    """Fit the Bayesian ridge above to a labeled corpus."""
    x, y = corpus.matrices()
    return RidgeModel.fit(x, y, corpus.feature_names, lam=lam)
