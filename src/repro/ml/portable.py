"""Portable model format + registry (ONNX substitute, §4.3–4.4).

The paper converts scikit-learn models to ONNX so the JVM-resident Spark
optimizer can score them in-process with load-once caching. ONNX and
onnxruntime are unavailable offline, so this module provides the same
contract:

- ``save_model`` / ``load_model``: a training-library-independent JSON
  serialisation of the fitted forest plus its feature and target schema
  (what ONNX gives the paper: interoperability + a self-describing graph).
- ``PortableModel``: a standalone evaluator, decoupled from the training
  class, analogous to an ONNX runtime session.
- ``ModelRegistry``: named model store with load-once in-process caching
  ("we cache the models once loaded inside the optimizer", §4.4).

Overheads of save/load/score are benchmarked next to the paper's ONNX
numbers in ``benchmarks/bench_overheads.py``.
"""
from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from repro.ml.forest import RandomForestRegressor

FORMAT_VERSION = 2


@dataclass
class PortableModel:
    """A loaded, scoring-ready model — analogous to an ONNX session."""

    forest: RandomForestRegressor
    feature_names: list[str]
    target_names: list[str]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )
        out = self.forest.predict(X)
        return out if out.ndim == 2 else out[:, None]


def save_model(
    path: str,
    forest: RandomForestRegressor,
    *,
    feature_names: list[str],
    target_names: list[str],
) -> int:
    """Serialise to a compressed JSON file; returns the on-disk size in bytes."""
    doc = {
        "format_version": FORMAT_VERSION,
        "feature_names": list(feature_names),
        "target_names": list(target_names),
        "forest": forest.to_dict(),
    }
    blob = zlib.compress(json.dumps(doc).encode("utf-8"), level=6)
    with open(path, "wb") as f:
        f.write(blob)
    return os.path.getsize(path)


def load_model(path: str) -> PortableModel:
    with open(path, "rb") as f:
        doc = json.loads(zlib.decompress(f.read()).decode("utf-8"))
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {doc.get('format_version')}")
    return PortableModel(
        forest=RandomForestRegressor.from_dict(doc["forest"]),
        feature_names=doc["feature_names"],
        target_names=doc["target_names"],
    )


class ModelRegistry:
    """Named model registry with load-once caching (AML-registry stand-in)."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._cache: dict[str, PortableModel] = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.repromodel")

    def register(
        self,
        name: str,
        forest: RandomForestRegressor,
        *,
        feature_names: list[str],
        target_names: list[str],
    ) -> int:
        self._cache.pop(name, None)
        return save_model(
            self._path(name),
            forest,
            feature_names=feature_names,
            target_names=target_names,
        )

    def get(self, name: str) -> PortableModel:
        """Load-once: the first call hits disk, later calls hit the cache."""
        if name not in self._cache:
            self._cache[name] = load_model(self._path(name))
        return self._cache[name]

    def names(self) -> list[str]:
        return sorted(
            f[: -len(".repromodel")]
            for f in os.listdir(self.root)
            if f.endswith(".repromodel")
        )
