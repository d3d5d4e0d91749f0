"""Ridge model: bit-identical JSON round-trip and fit validation."""

import json

import numpy as np
import pytest

from repro.engine.learned import (
    MODEL_SCHEMA,
    MODEL_VERSION,
    RidgeModel,
    build_corpus,
    train_model,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(count=4, seed=7, p_values=(2, 4, 8, 28, 56))


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus)


class TestFit:
    def test_in_sample_accuracy(self, corpus, model):
        x, y = corpus.matrices()
        mean, std = model.predict(x)
        rel = np.abs(np.exp(mean - y) - 1.0)
        assert float(np.median(rel)) < 0.05
        assert np.all(std > 0)

    def test_off_manifold_points_carry_more_uncertainty(self, model):
        x, _ = build_corpus(
            count=2, seed=7, p_values=(2, 8)
        ).matrices()
        _, in_std = model.predict(x)
        # An absurd feature vector far outside the training manifold:
        # the leverage term must inflate the predictive std.
        far = np.full((1, len(model.coef)), 50.0)
        _, out_std = model.predict(far)
        assert float(out_std[0]) > float(np.max(in_std)) * 10

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            RidgeModel.fit(np.zeros((3, 2)), np.zeros(4), ("a", "b"))
        with pytest.raises(ConfigurationError):
            RidgeModel.fit(np.zeros(6), np.zeros(6), ("a",))

    def test_feature_name_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RidgeModel.fit(np.zeros((8, 2)), np.zeros(8), ("only-one",))

    def test_too_few_samples_rejected(self):
        # d + 2 rows are the floor for a residual estimate.
        with pytest.raises(ConfigurationError):
            RidgeModel.fit(np.ones((3, 2)), np.ones(3), ("a", "b"))

    def test_bad_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            RidgeModel.fit(
                np.ones((5, 1)), np.ones(5), ("a",), lam=0.0
            )

    def test_predict_wrong_width_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.predict(np.zeros((1, len(model.coef) + 1)))


class TestRoundTrip:
    def test_json_round_trip_is_bit_identical(self, corpus, model):
        x, _ = corpus.matrices()
        loaded = RidgeModel.from_json(model.to_json())
        mean_a, std_a = model.predict(x)
        mean_b, std_b = loaded.predict(x)
        # Python floats round-trip exactly through repr, so the
        # reloaded model predicts bit-identically — not approximately.
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)
        assert loaded.n_samples == model.n_samples
        assert loaded.feature_names == model.feature_names

    def test_schema_guards(self, model):
        data = json.loads(model.to_json())
        assert data["schema"] == MODEL_SCHEMA
        assert data["schema_version"] == MODEL_VERSION
        bad = dict(data, schema="other")
        with pytest.raises(ConfigurationError):
            RidgeModel.from_dict(bad)
        bad = dict(data, schema_version=MODEL_VERSION + 1)
        with pytest.raises(ConfigurationError):
            RidgeModel.from_dict(bad)
        with pytest.raises(ConfigurationError):
            RidgeModel.from_json("[1, 2]")

    def test_missing_field_rejected(self, model):
        data = json.loads(model.to_json())
        del data["coef"]
        with pytest.raises(ConfigurationError):
            RidgeModel.from_dict(data)

