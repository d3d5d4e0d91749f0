"""Labeled training corpora for the learned engine tier.

A corpus is ``count`` generated scenarios
(:class:`~repro.workload.generator.ScenarioGenerator`, so the set is a
pure function of the seed) crossed with a partition-count axis, each
point labeled with its analytic makespan through the grid path
(:func:`repro.engine.grid.predict_runs` — one lowering per scenario
family, the model's only evaluator).  Labels are
therefore *cheap* — building the default 48x9 corpus costs well under a
second — and exact for the model surface the learned tier approximates;
the DES enters later, through the uncertainty-gated fallback and the
active-learning observations (see :mod:`repro.engine.learned.engine`).

Serialization is schema-versioned (:data:`CORPUS_SCHEMA`,
:data:`CORPUS_VERSION`) and content-fingerprinted: two corpora share a
:meth:`Corpus.fingerprint` iff they hold the same entries under the
same feature layout, so the determinism contract (same seed, same
parameters -> identical fingerprint and labels) is directly testable
and drift is detectable in CI (``scripts/learned_drift.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.device.spec import DeviceSpec, PHI_31SP
from repro.engine.learned.features import FEATURE_NAMES, FeatureExtractor
from repro.errors import ConfigurationError

#: Schema identifier embedded in serialized corpora.
CORPUS_SCHEMA = "repro.learned.corpus"

#: Current corpus schema version (bumped on incompatible changes).
CORPUS_VERSION = 1

#: Default partition-count axis: the serve autotune candidates (core
#: divisors of the 31SP plus the power-of-two anchors).
DEFAULT_P_VALUES: tuple[int, ...] = (1, 2, 4, 7, 8, 14, 16, 28, 56)

#: Default corpus shape: 48 scenarios cycling over every generator
#: distribution, crossed with :data:`DEFAULT_P_VALUES`.
DEFAULT_COUNT = 48
DEFAULT_SEED = 0


@dataclass(frozen=True)
class CorpusEntry:
    """One labeled (scenario, P) point."""

    #: Scenario identity: the workload's content fingerprint.
    fingerprint: str
    #: Scenario name (human-readable; ``{dist}-{seed}-{index}``).
    scenario: str
    places: int
    #: Feature vector in :data:`FEATURE_NAMES` order.
    features: tuple
    #: Analytic makespan in seconds (the regression label).
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "scenario": self.scenario,
            "places": self.places,
            "features": list(self.features),
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusEntry":
        try:
            return cls(
                fingerprint=payload["fingerprint"],
                scenario=payload["scenario"],
                places=payload["places"],
                features=tuple(payload["features"]),
                elapsed=payload["elapsed"],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"invalid corpus entry: {exc}")


@dataclass(frozen=True)
class Corpus:
    """A labeled training set plus the provenance that regenerates it."""

    seed: int
    count: int
    p_values: tuple
    feature_names: tuple
    entries: tuple
    schema_version: int = CORPUS_VERSION
    _fingerprint: "str | None" = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)

    def matrices(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(X, y)`` with ``y`` the log of the labeled seconds — the
        regression target of :mod:`repro.engine.learned.model`."""
        if not self.entries:
            raise ConfigurationError("corpus is empty")
        x = np.array([e.features for e in self.entries])
        y = np.log(np.array([e.elapsed for e in self.entries]))
        return x, y

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": CORPUS_SCHEMA,
            "schema_version": self.schema_version,
            "seed": self.seed,
            "count": self.count,
            "p_values": list(self.p_values),
            "feature_names": list(self.feature_names),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Corpus":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"corpus must be an object, got {payload!r}"
            )
        schema = payload.get("schema")
        if schema != CORPUS_SCHEMA:
            raise ConfigurationError(
                f"not a learned corpus (schema={schema!r}, "
                f"expected {CORPUS_SCHEMA!r})"
            )
        version = payload.get("schema_version")
        if version != CORPUS_VERSION:
            raise ConfigurationError(
                f"unsupported corpus schema version {version!r} "
                f"(this build reads {CORPUS_VERSION})"
            )
        return cls(
            seed=payload.get("seed", DEFAULT_SEED),
            count=payload.get("count", 0),
            p_values=tuple(payload.get("p_values", ())),
            feature_names=tuple(payload.get("feature_names", ())),
            entries=tuple(
                CorpusEntry.from_dict(e) for e in payload.get("entries", [])
            ),
        )

    def to_json(self, indent: "int | None" = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Corpus":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"corpus is not JSON: {exc}")
        return cls.from_dict(payload)

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json(indent=2), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "Corpus":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON (16 hex chars): two
        corpora share a fingerprint iff they hold identical labeled
        entries under the same feature layout."""
        if self._fingerprint is None:
            digest = hashlib.sha256(
                self.to_json().encode("utf-8")
            ).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", digest)
        return self._fingerprint


def build_corpus(
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    p_values: tuple = DEFAULT_P_VALUES,
    distributions: "tuple[str, ...] | None" = None,
    spec: DeviceSpec = PHI_31SP,
) -> Corpus:
    """Generate and label a corpus (see the module docstring).

    Deterministic end to end: the scenario set is a pure function of
    ``(seed, count, distributions)``, features are straight arithmetic,
    and the grid-path labels are deterministic model answers — so the
    same arguments always produce the same :meth:`Corpus.fingerprint`.
    """
    from repro.engine.grid import predict_runs
    from repro.parallel.runspec import RunSpec
    from repro.workload.generator import ScenarioGenerator

    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    p_values = tuple(p_values)
    if not p_values or any(p < 1 for p in p_values):
        raise ConfigurationError(
            f"p_values must be positive partition counts, got {p_values!r}"
        )
    scenarios = ScenarioGenerator(seed).corpus(count, distributions)
    extractor = FeatureExtractor(spec)
    specs = [
        RunSpec.for_workload(w, places=p, spec=spec)
        for w in scenarios
        for p in p_values
    ]
    runs = predict_runs(specs)
    entries = []
    i = 0
    for w in scenarios:
        for p in p_values:
            entries.append(
                CorpusEntry(
                    fingerprint=w.fingerprint(),
                    scenario=w.name,
                    places=p,
                    features=tuple(
                        float(v) for v in extractor.features(w, p)
                    ),
                    elapsed=float(runs[i].elapsed),
                )
            )
            i += 1
    return Corpus(
        seed=seed,
        count=count,
        p_values=p_values,
        feature_names=FEATURE_NAMES,
        entries=tuple(entries),
    )
