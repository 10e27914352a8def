"""Unit tests for the portable model format + registry (ONNX substitute)."""
import json
import zlib

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.portable import ModelRegistry, load_model, save_model


@pytest.fixture(scope="module")
def fitted_forest():
    rng = np.random.default_rng(0)
    X = rng.random((60, 4))
    y = np.stack([X[:, 0] * 2, X[:, 1] + 1], axis=1)
    return RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y), X


class TestPortableModel:
    def test_roundtrip_predictions_identical(self, fitted_forest, tmp_path):
        f, X = fitted_forest
        p = str(tmp_path / "m.repromodel")
        save_model(p, f, feature_names=list("abcd"), target_names=["s", "p"])
        m = load_model(p)
        assert np.array_equal(m.predict(X), f.predict(X))

    def test_size_reported(self, fitted_forest, tmp_path):
        f, _ = fitted_forest
        p = str(tmp_path / "m.repromodel")
        size = save_model(p, f, feature_names=list("abcd"), target_names=["s", "p"])
        import os

        assert size == os.path.getsize(p) > 0

    def test_schema_preserved(self, fitted_forest, tmp_path):
        f, _ = fitted_forest
        p = str(tmp_path / "m.repromodel")
        save_model(p, f, feature_names=list("abcd"), target_names=["s", "p"])
        m = load_model(p)
        assert m.feature_names == list("abcd")
        assert m.target_names == ["s", "p"]

    def test_feature_count_validated(self, fitted_forest, tmp_path):
        f, _ = fitted_forest
        p = str(tmp_path / "m.repromodel")
        save_model(p, f, feature_names=list("abcd"), target_names=["s", "p"])
        m = load_model(p)
        with pytest.raises(ValueError, match="expected 4 features"):
            m.predict(np.zeros(3))

    def test_old_format_version_rejected(self, fitted_forest, tmp_path):
        f, _ = fitted_forest
        p = str(tmp_path / "m.repromodel")
        save_model(p, f, feature_names=list("abcd"), target_names=["s", "p"])
        with open(p, "rb") as fh:
            doc = json.loads(zlib.decompress(fh.read()))
        doc["format_version"] = 1
        with open(p, "wb") as fh:
            fh.write(zlib.compress(json.dumps(doc).encode("utf-8")))
        with pytest.raises(ValueError, match="unsupported model format"):
            load_model(p)

    def test_1d_input_promoted(self, fitted_forest, tmp_path):
        f, X = fitted_forest
        p = str(tmp_path / "m.repromodel")
        save_model(p, f, feature_names=list("abcd"), target_names=["s", "p"])
        m = load_model(p)
        assert m.predict(X[0]).shape == (1, 2)


class TestModelRegistry:
    def test_register_and_get(self, fitted_forest, tmp_path):
        f, X = fitted_forest
        reg = ModelRegistry(str(tmp_path))
        reg.register("ae_pl", f, feature_names=list("abcd"), target_names=["s", "p"])
        m = reg.get("ae_pl")
        assert np.array_equal(m.predict(X), f.predict(X))

    def test_get_caches_instance(self, fitted_forest, tmp_path):
        f, _ = fitted_forest
        reg = ModelRegistry(str(tmp_path))
        reg.register("m", f, feature_names=list("abcd"), target_names=["s", "p"])
        assert reg.get("m") is reg.get("m")  # load-once (§4.4)

    def test_reregister_invalidates_cache(self, fitted_forest, tmp_path):
        f, _ = fitted_forest
        reg = ModelRegistry(str(tmp_path))
        reg.register("m", f, feature_names=list("abcd"), target_names=["s", "p"])
        first = reg.get("m")
        reg.register("m", f, feature_names=list("abcd"), target_names=["s", "p"])
        assert reg.get("m") is not first

    def test_missing_model_raises(self, tmp_path):
        reg = ModelRegistry(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            reg.get("nope")
