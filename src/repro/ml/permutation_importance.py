"""Permutation feature importance (scikit-learn substitute, §5.7).

Implements the same procedure as
``sklearn.inspection.permutation_importance``: score the fitted model on a
held-out set, then for each feature shuffle that column ``n_repeats``
times and record the drop in score. The score here is negative mean
squared error over all outputs (higher is better), so importances are
reported as the *increase* in MSE caused by permuting the feature.
"""
from __future__ import annotations

import numpy as np


def _neg_mse(pred: np.ndarray, y: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    if pred.ndim == 1:
        pred = pred[:, None]
    if y.ndim == 1:
        y = y[:, None]
    return -float(np.mean((pred - y) ** 2))


def permutation_importance(
    model,
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_repeats: int = 10,
    random_state: int | None = None,
) -> dict[str, np.ndarray]:
    """Return ``{"importances_mean", "importances_std", "importances"}``.

    ``importances`` has shape ``(n_features, n_repeats)``. The repeats of
    one feature are scored with one ``model.predict`` call on their
    stacked rows; predictions are row-independent, so each repeat's slice
    equals a prediction of that repeat alone.
    """
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(random_state)
    base = _neg_mse(model.predict(X), y)
    n, n_features = X.shape
    imp = np.zeros((n_features, n_repeats))
    for f in range(n_features):
        Xp = np.repeat(X[None], n_repeats, axis=0)
        for r in range(n_repeats):
            Xp[r, :, f] = rng.permutation(X[:, f])
        pred = model.predict(Xp.reshape(n_repeats * n, n_features))
        for r in range(n_repeats):
            imp[f, r] = base - _neg_mse(pred[r * n : (r + 1) * n], y)
    return {
        "importances_mean": imp.mean(axis=1),
        "importances_std": imp.std(axis=1),
        "importances": imp,
    }
