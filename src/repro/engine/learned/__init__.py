"""The learned engine tier (see ``docs/LEARNED.md``).

Corpus-trained (P, T) makespan prediction with per-point uncertainty:
:func:`build_corpus` labels generated scenarios through the analytic
model's grid path, :func:`train_model` fits a Bayesian ridge over
physics-informed features, and :class:`LearnedEngine` answers confident
points with zero DES while routing the rest to hybrid certification.
"""

from repro.engine.learned.corpus import (
    CORPUS_SCHEMA,
    CORPUS_VERSION,
    DEFAULT_COUNT,
    DEFAULT_P_VALUES,
    DEFAULT_SEED,
    Corpus,
    CorpusEntry,
    build_corpus,
)
from repro.engine.learned.engine import (
    DEFAULT_GATE,
    RETRAIN_MIN,
    LearnedEngine,
    default_model,
)
from repro.engine.learned.features import (
    CONFIG_FEATURE_NAMES,
    FEATURE_NAMES,
    PHYSICS_FEATURE_NAMES,
    FeatureExtractor,
    WorkloadPoint,
    config_features,
)
from repro.engine.learned.model import (
    MODEL_SCHEMA,
    MODEL_VERSION,
    RIDGE_LAMBDA,
    RidgeModel,
    train_model,
)

__all__ = [
    "CONFIG_FEATURE_NAMES",
    "CORPUS_SCHEMA",
    "CORPUS_VERSION",
    "Corpus",
    "CorpusEntry",
    "DEFAULT_COUNT",
    "DEFAULT_GATE",
    "DEFAULT_P_VALUES",
    "DEFAULT_SEED",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "LearnedEngine",
    "MODEL_SCHEMA",
    "MODEL_VERSION",
    "PHYSICS_FEATURE_NAMES",
    "RIDGE_LAMBDA",
    "RidgeModel",
    "WorkloadPoint",
    "build_corpus",
    "config_features",
    "default_model",
    "train_model",
]
