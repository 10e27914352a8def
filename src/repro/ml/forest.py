"""Random Forest regressor (scikit-learn substitute).

The paper trains the parameter model with scikit-learn's
``RandomForestRegressor`` at its defaults (100 estimators, §5.6). This
implementation mirrors those defaults: 100 trees, bootstrap sampling,
all features considered at every split (the sklearn regression default),
unconstrained depth, and multi-output support (one forest jointly
predicts all PPM scalars for a query).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml import tree as tree_mod
from repro.ml.tree import Tree


@dataclass
class RandomForestRegressor:
    """Bagged CART trees, held back to back in one set of node arrays."""

    n_estimators: int = 100
    random_state: int | None = None
    nodes_: Tree | None = field(default=None, repr=False)
    roots_: np.ndarray | None = field(default=None, repr=False)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        samples = np.empty((self.n_estimators, len(X)), dtype=int)
        for t in range(self.n_estimators):
            samples[t] = rng.integers(0, len(X), size=len(X))  # bootstrap sample
            # Unused since trees stopped subsampling features; drawn anyway so
            # every later bootstrap sample, and so every forest, stays the same.
            rng.integers(0, 2**31 - 1)
        self.nodes_, self.roots_ = tree_mod.grow(X, y, samples)
        return self

    def _stack(self, trees: list[Tree]) -> None:
        self.nodes_ = Tree(*map(np.concatenate, zip(*trees)))
        self.roots_ = np.cumsum([0] + [len(t.feature) for t in trees])[:-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves = tree_mod.predict(self.nodes_, self.roots_, X)
        # cumsum adds the trees in order (a sum may add pairwise); + 0.0 maps
        # an all -0.0 total to 0.0, as adding to a zero accumulator does.
        out = (np.cumsum(leaves, axis=1)[:, -1] + 0.0) / leaves.shape[1]
        return out[:, 0] if out.shape[1] == 1 else out

    def to_dict(self) -> dict:
        """One dict of node lists per tree, the portable model layout."""
        ends = np.append(self.roots_[1:], len(self.nodes_.feature))
        return {
            "n_features": self.n_features_,
            "trees": [
                {k: a[s:e].tolist() for k, a in self.nodes_._asdict().items()}
                for s, e in zip(self.roots_, ends)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForestRegressor":
        f = cls(n_estimators=len(d["trees"]), n_features_=d["n_features"])
        f._stack([Tree(*(np.asarray(t[k]) for k in Tree._fields)) for t in d["trees"]])
        return f
