"""Unit and property tests for the flat node-array CART trees."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import _best_split, fit_tree, predict


def predict_one(tree, X):
    """Predictions ``(rows, outputs)`` of a single tree."""
    return predict(tree, np.array([0]), X)[:, 0]


def scan_split(X, y):
    """Reference split search: one feature at a time, first feature wins ties."""
    n = X.shape[0]
    best_score, best = np.inf, None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        csum, csum2 = np.cumsum(ys, axis=0), np.cumsum(ys * ys, axis=0)
        i = np.arange(1, n)
        i = i[xs[i - 1] != xs[i]]
        if i.size == 0:
            continue
        ls, ls2 = csum[i - 1], csum2[i - 1]
        left = (ls2 - ls * ls / i[:, None]).sum(axis=1)
        right = ((csum2[-1] - ls2) - (csum[-1] - ls) ** 2 / (n - i)[:, None]).sum(axis=1)
        sse = left + right
        j = int(np.argmin(sse))
        if sse[j] < best_score - 1e-12:
            best_score, k = float(sse[j]), int(i[j])
            best = (f, float((xs[k - 1] + xs[k]) / 2.0))
    return best


@pytest.fixture
def xor_like():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5)
    y = X[:, 0] * 10 + X[:, 1]
    return X, y


class TestDecisionTree:
    def test_memorizes_training_data(self, xor_like):
        X, y = xor_like
        t = fit_tree(X, y)
        assert np.allclose(predict_one(t, X).ravel(), y)

    def test_single_sample(self):
        t = fit_tree(np.array([[1.0]]), np.array([5.0]))
        assert predict_one(t, np.array([[99.0]]))[0, 0] == pytest.approx(5.0)

    def test_constant_target_is_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        t = fit_tree(X, np.full(10, 3.0))
        assert t.feature.tolist() == [-1]
        assert np.allclose(predict_one(t, X), 3.0)

    def test_multi_output(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.stack([X[:, 0], 2 * X[:, 0]], axis=1)
        pred = predict_one(fit_tree(X, y), X)
        assert pred.shape == (4, 2)
        assert np.allclose(pred, y)

    def test_threshold_splits_cleanly(self):
        # y steps at x = 5; the first split must be near there
        X = np.arange(10, dtype=float)[:, None]
        y = (X[:, 0] >= 5).astype(float) * 100
        t = fit_tree(X, y)
        assert t.feature[0] == 0
        assert 4.0 <= t.threshold[0] <= 5.0

    def test_prediction_on_unseen_is_leaf_mean(self):
        X = np.array([[0.0], [10.0]])
        y = np.array([1.0, 9.0])
        t = fit_tree(X, y)
        assert predict_one(t, np.array([[-100.0]]))[0, 0] == pytest.approx(1.0)
        assert predict_one(t, np.array([[100.0]]))[0, 0] == pytest.approx(9.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            predict(None, np.array([0]), np.zeros((1, 1)))


@st.composite
def training_sets(draw):
    """Integer-valued X (so columns tie) and dyadic y with 1–3 outputs.

    Dyadic targets sum exactly, so a leaf mean is the correctly rounded
    true mean and cannot leave its samples' range.
    """
    n = draw(st.integers(1, 25))
    n_features = draw(st.integers(1, 4))
    n_outputs = draw(st.integers(1, 3))
    X = draw(st.lists(st.integers(0, 4), min_size=n * n_features, max_size=n * n_features))
    y = draw(st.lists(st.integers(-800, 800), min_size=n * n_outputs, max_size=n * n_outputs))
    return (
        np.asarray(X, dtype=float).reshape(n, n_features),
        np.asarray(y, dtype=float).reshape(n, n_outputs) / 8,
    )


class TestTreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(training_sets(), st.integers(0, 2**16))
    def test_predictions_within_target_range(self, data, seed):
        X, y = data
        t = fit_tree(X, y)
        queries = np.random.default_rng(seed).integers(-1, 6, size=(10, X.shape[1]))
        pred = predict_one(t, np.vstack([X, queries]))
        assert np.all(pred >= y.min(axis=0)) and np.all(pred <= y.max(axis=0))

    @settings(max_examples=100, deadline=None)
    @given(training_sets())
    def test_split_matches_feature_by_feature_scan(self, data):
        X, y = data
        if len(X) > 1:
            assert _best_split(X, y) == scan_split(X, y)

    @settings(max_examples=30, deadline=None)
    @given(training_sets(), st.integers(0, 2**16))
    def test_forest_roundtrip_is_exact(self, data, seed):
        X, y = data
        f = RandomForestRegressor(n_estimators=4, random_state=seed).fit(X, y)
        g = RandomForestRegressor.from_dict(json.loads(json.dumps(f.to_dict())))
        assert np.array_equal(f.predict(X), g.predict(X))

    @settings(max_examples=60, deadline=None)
    @given(training_sets())
    def test_every_node_reached_once_in_preorder(self, data):
        t = fit_tree(*data)
        leaf = t.feature < 0
        assert np.all(t.left[leaf] == -1) and np.all(t.right[leaf] == -1)
        assert np.all(t.left[~leaf] >= 0) and np.all(t.right[~leaf] >= 0)
        seen, stack = [], [0]
        while stack:
            node = stack.pop()
            seen.append(node)
            if t.feature[node] >= 0:
                stack += [t.right[node], t.left[node]]
        assert seen == list(range(len(t.feature)))

    @settings(max_examples=60, deadline=None)
    @given(training_sets())
    def test_rows_with_distinct_x_are_reproduced(self, data):
        X, y = data
        _, inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
        distinct = counts[inverse.ravel()] == 1
        assert np.allclose(predict_one(fit_tree(X, y), X)[distinct], y[distinct])
