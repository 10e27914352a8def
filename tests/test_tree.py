"""Unit and property tests for the flat node-array CART trees."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_mod
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import Tree, _sum_outputs, fit_tree, predict
from tests.test_forest import PINNED_NODES_SHA256, nodes_sha256, pinned_case


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


def reference_tree(X, y):
    """Depth-first CART on :func:`scan_split`, nodes numbered in pre-order."""
    nodes = []  # [feature, threshold, left, right, value]

    def grow(rows):
        i = len(nodes)
        ys = y[rows]
        nodes.append([-1, 0.0, -1, -1, ys.mean(axis=0)])
        split = None if len(rows) < 2 or (ys == ys[0]).all() else scan_split(X[rows], ys)
        if split:
            mask = X[rows, split[0]] <= split[1]
            nodes[i][:2] = split
            nodes[i][2] = grow(rows[mask])
            nodes[i][3] = grow(rows[~mask])
        return i

    grow(np.arange(len(X)))
    return Tree(*(np.array(column) for column in zip(*nodes)))


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

    def test_identical_rows_make_one_leaf_of_their_mean(self):
        # impure, but no feature varies: there is no pair to score
        X = np.tile([[1.0, 2.0, 3.0]], (3, 1))
        t = fit_tree(X, np.array([1.0, 2.0, 6.0]))
        assert t.feature.tolist() == [-1]
        assert t.value.tolist() == [[3.0]]

    def test_constant_column_is_never_chosen(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 3, size=(40, 3)).astype(float)
        X[:, 1] = 7.0
        y = rng.integers(-50, 50, size=(40, 2)) / 10
        f = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        assert set(f.nodes_.feature.tolist()) == {-1, 0, 2}

    def test_negative_zero_means_keep_their_sign(self):
        # each running sum starts from its first row, as cumsum does: a sum
        # started from +0.0 would turn every -0.0 mean into +0.0
        X = np.array([[0.0], [1.0], [2.0]])
        t = fit_tree(X, np.array([[-0.0, 1.0], [-0.0, 1.0], [-0.0, 2.0]]))
        assert t.feature.tolist() == [0, -1, -1]
        assert np.signbit(t.value[:, 0]).all()
        assert t.value[:, 1].tolist() == [4 / 3, 1.0, 2.0]

    def test_node_separated_only_by_the_last_column_splits_on_it(self):
        # the root splits on column 0; in each child only column 2 varies
        X = np.array([[0.0, 5.0, 0.0], [0.0, 5.0, 1.0], [1.0, 5.0, 0.0], [1.0, 5.0, 1.0]])
        t = fit_tree(X, 100 * X[:, 0] + X[:, 2])
        assert t.feature.tolist() == [0, 2, -1, -1, 2, -1, -1]
        assert t.threshold[[0, 1, 4]].tolist() == [0.5, 0.5, 0.5]


@st.composite
def training_sets(draw, denominator=8):
    """Integer-valued X (so columns tie) and y = integers / ``denominator``
    with 1–3 outputs.

    The default makes targets dyadic: they sum exactly, so a leaf mean is
    the correctly rounded true mean and cannot leave its samples' range.
    Other denominators make sums round, so the order of every sum and the
    tie-break between near-equal splits show in the result.
    """
    n = draw(st.integers(1, 25))
    n_features = draw(st.integers(1, 4))
    n_outputs = draw(st.integers(1, 3))
    X = draw(st.lists(st.integers(0, 4), min_size=n * n_features, max_size=n * n_features))
    y = draw(st.lists(st.integers(-800, 800), min_size=n * n_outputs, max_size=n * n_outputs))
    return (
        np.asarray(X, dtype=float).reshape(n, n_features),
        np.asarray(y, dtype=float).reshape(n, n_outputs) / denominator,
    )


@st.composite
def pipeline_sets(draw):
    """Training sets of a CV fold's shape: 19 columns of 1–6 distinct values
    each (so some are constant), 30–120 rows that repeat, and 1–3 outputs
    of integers / 10, so that the order of every sum shows."""
    n = draw(st.integers(30, 120))
    n_outputs = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [rng.integers(-1000, 1000, size=k) for k in rng.integers(1, 7, size=19)]
    distinct = np.column_stack([rng.choice(v, size=n) for v in values]).astype(float)
    X = distinct[rng.integers(0, 2 * n // 3, size=n)]
    return X, rng.integers(-800, 800, size=(n, n_outputs)) / 10


def assert_forest_equals_reference(X, y, n_estimators, seed):
    """Every tree of a seeded forest equals :func:`reference_tree` on its
    bootstrap sample, node for node."""
    f = RandomForestRegressor(n_estimators=n_estimators, random_state=seed).fit(X, y)
    rng = np.random.default_rng(seed)
    ends = np.append(f.roots_[1:], len(f.nodes_.feature))
    for root, end in zip(f.roots_, ends):
        idx = rng.integers(0, len(X), size=len(X))
        rng.integers(0, 2**31 - 1)
        ref = reference_tree(X[idx], y[idx])
        got = Tree(*(a[root:end] for a in f.nodes_))
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        if y.shape[1] > 1:
            assert np.array_equal(got.value, ref.value)
        else:  # numpy sums a single column pairwise, the grower in row order;
            # either sum is within (n - 1) eps sum|y| of the true one
            bound = 2 * len(X) * np.finfo(float).eps * np.abs(y).max()
            assert np.allclose(got.value, ref.value, rtol=0, atol=bound)


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
        t = fit_tree(X, y)
        expected = None if len(X) < 2 or (y == y[0]).all() else scan_split(X, y)
        root = (int(t.feature[0]), float(t.threshold[0])) if t.feature[0] >= 0 else None
        assert root == expected

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(training_sets(), training_sets(denominator=10)), st.integers(0, 2**16))
    def test_forest_trees_equal_depth_first_reference(self, data, seed):
        assert_forest_equals_reference(*data, n_estimators=5, seed=seed)

    @pytest.mark.parametrize("chunk", [None, 64])
    @settings(max_examples=20, deadline=None)
    @given(pipeline_sets(), st.integers(0, 2**16))
    def test_forest_at_pipeline_shape_equals_reference(self, chunk, data, seed):
        """At a fold's shape a level holds pairs of many sizes; a small
        pair-row budget also cuts them into many sweeps."""
        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(tree_mod, "_CHUNK_PAIR_ROWS", chunk)
            assert_forest_equals_reference(*data, n_estimators=3, seed=seed)

    @pytest.mark.parametrize("case", sorted(PINNED_NODES_SHA256))
    def test_pinned_forest_nodes_at_small_budget(self, case):
        """Cutting every level into sweeps of 64 pair-rows, most of them one
        pair, grows the recorded forests bit for bit."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_mod, "_CHUNK_PAIR_ROWS", 64)
            forest = RandomForestRegressor(n_estimators=100, random_state=0).fit(*pinned_case(case))
        assert nodes_sha256(forest) == PINNED_NODES_SHA256[case]

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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**16))
    def test_output_sum_matches_numpy_order(self, n_outputs, seed):
        """Split scores sum their outputs exactly as ``sum(axis=-1)`` does."""
        scale = np.array([1.0, 1e3, 1e-3])[:n_outputs]
        a = np.random.default_rng(seed).standard_normal((7, 5, n_outputs)) * scale
        assert np.array_equal(_sum_outputs(a), a.sum(axis=-1))
