"""Unit tests for the Random-Forest substrate."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import tree as tree_mod
from repro.ml.forest import RandomForestRegressor
from tests.snapshot import snapshot_records


def tree_order_mean(forest, X):
    """Mean of the trees' leaf values, added one tree at a time from 0.0."""
    leaves = tree_mod.predict(forest.nodes_, forest.roots_, X)
    rows, trees, outputs = leaves.shape
    out = np.empty((rows, outputs))
    for r in range(rows):
        for o in range(outputs):
            acc = 0.0
            for t in range(trees):
                acc += float(leaves[r, t, o])
            out[r, o] = acc / trees
    return out[:, 0] if outputs == 1 else out


@st.composite
def forest_data(draw):
    rows = draw(st.integers(2, 30))
    outputs = draw(st.sampled_from([1, 2, 3]))
    X = draw(arrays(np.float64, (rows, 3), elements=st.floats(-1e3, 1e3)))
    y = draw(arrays(np.float64, (rows, outputs), elements=st.floats(-1e6, 1e6)))
    return X, y[:, 0] if outputs == 1 else y, draw(st.integers(8, 40)), draw(st.integers(0, 99))


@given(data=forest_data())
@example(data=(np.arange(12.0).reshape(4, 3), np.full(4, -0.0), 10, 0))
@settings(max_examples=60, deadline=None)
def test_predict_sums_trees_in_order(data):
    """Predictions equal a tree-order sum bit for bit, in batch and one row
    at a time; with one output a pairwise sum would differ. The explicit
    example's leaves are all -0.0, which a sum from 0.0 turns into 0.0."""
    X, y, n_estimators, seed = data
    forest = RandomForestRegressor(n_estimators=n_estimators, random_state=seed).fit(X, y)
    expected = tree_order_mean(forest, X)
    assert forest.predict(X).tobytes() == expected.tobytes()
    for row, want in zip(X, expected):
        assert forest.predict(row[None, :])[0].tobytes() == np.asarray(want).tobytes()


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(0)
    X = rng.random((120, 5))
    y = 4 * X[:, 0] + 2 * X[:, 1] ** 2 + 0.05 * rng.standard_normal(120)
    return X, y


class TestRandomForest:
    def test_fits_and_predicts(self, regression_data):
        X, y = regression_data
        f = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        pred = f.predict(X)
        assert pred.shape == (120,)
        # in-sample bagged fit should be decent
        assert np.mean(np.abs(pred - y)) < 0.5

    def test_multi_output_shape(self):
        rng = np.random.default_rng(1)
        X = rng.random((40, 3))
        y = np.stack([X[:, 0], X[:, 1], X.sum(axis=1)], axis=1)
        f = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        assert f.predict(X).shape == (40, 3)

    def test_default_is_100_estimators(self):
        assert RandomForestRegressor().n_estimators == 100  # sklearn default (§5.6)

    def test_deterministic_given_seed(self, regression_data):
        X, y = regression_data
        a = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self, regression_data):
        X, y = regression_data
        a = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=5, random_state=2).fit(X, y).predict(X)
        assert not np.allclose(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_serialization_roundtrip(self, regression_data):
        X, y = regression_data
        f = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        f2 = RandomForestRegressor.from_dict(f.to_dict())
        assert np.array_equal(f.predict(X), f2.predict(X))

    def test_bagging_smooths_vs_single_tree(self, regression_data):
        """Forest generalizes better than one deep tree on held-out data."""
        X, y = regression_data
        Xtr, ytr, Xte, yte = X[:90], y[:90], X[90:], y[90:]
        forest = RandomForestRegressor(n_estimators=50, random_state=0).fit(Xtr, ytr)
        from repro.ml.tree import fit_tree, predict

        tree = fit_tree(Xtr, ytr)
        err_f = np.mean((forest.predict(Xte) - yte) ** 2)
        err_t = np.mean((predict(tree, np.array([0]), Xte).ravel() - yte) ** 2)
        assert err_f <= err_t * 1.1


#: sha256 of the fold-0 test predictions; any change to a split, a leaf
#: value or the order in which tree outputs are summed changes them.
PINNED_SHA256 = {
    "AE_PL": "13930735b7a763b3309e6833bf1caf1e104cdde6cc2d323060511b9b90358a61",
    "AE_AL": "571ef25acf332c0c79d49b1440992089c57d34c5a794285bf76d7cc3217928fc",
}


def snapshot_fold(family):
    """Fold 0 of the 5-fold CV on the sf=0.1 snapshot: training features,
    PPM-parameter targets and test features."""
    from repro.core.parameter_model import fit_ppm_targets
    from repro.core.training import kfold_indices

    records = snapshot_records()
    train, test = kfold_indices(len(records), 5, seed=0)[0]
    examples = [records[i].to_example() for i in train]
    X = np.asarray([ex.features for ex in examples], dtype=float)
    Xte = np.asarray([records[i].features for i in test], dtype=float)
    return X, fit_ppm_targets(family, examples), Xte


@pytest.mark.parametrize("family", sorted(PINNED_SHA256))
def test_pinned_parameter_forest(family):
    """The PPM-parameter forests on the sf=0.1 snapshot predict bit for bit
    as recorded, and one-row predictions equal rows of the batch."""
    X, y, Xte = snapshot_fold(family)
    forest = RandomForestRegressor(n_estimators=100, random_state=0).fit(X, y)
    batch = forest.predict(Xte)
    assert hashlib.sha256(batch.tobytes()).hexdigest() == PINNED_SHA256[family]
    for row, expected in zip(Xte, batch):
        assert forest.predict(row[None, :])[0].tobytes() == expected.tobytes()


#: sha256 over every node array and the root ids of a 100-tree forest on
#: fold 0 of the snapshot; any change to a split, a threshold, a child id,
#: a leaf value or the node numbering changes them.
PINNED_NODES_SHA256 = {
    "AE_PL": "f95e77d601bcabdbe3c2267cdfed2bb351b31bef4c850e2b345ef737da8168b3",
    "AE_AL": "97afd758d8e7b2c9e9af603616d43ac01c4ca0a9eddeaae3d821e6112cf5c0c2",
    "AE_PL one output": "9843972b7b4f03cde5a0322d3ac0308d1e195e2c2e809c2bcfa866ac8d512f3f",
    "AE_PL F1 columns": "17caf9dc53d8d3b6d5906b4805aaff160d81e26f49032d728b6dd4a2cc445eab",
}


def pinned_case(case):
    """Training ``(X, y)`` of a :data:`PINNED_NODES_SHA256` case."""
    from repro.experiments.exp_importance import FEATURE_SETS

    family = case.split()[0]
    X, y, _ = snapshot_fold(family)
    if case.endswith("one output"):
        return X, y[:, 0]
    if case.endswith("F1 columns"):
        return X[:, FEATURE_SETS["F1"]], y
    return X, y


def nodes_sha256(forest):
    """sha256 over every node array and the root ids of ``forest``."""
    digest = hashlib.sha256()
    for a in (*forest.nodes_, forest.roots_):
        digest.update(np.ascontiguousarray(a, dtype=float if a.dtype.kind == "f" else np.int64))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_NODES_SHA256))
def test_pinned_forest_nodes(case):
    """The forests grow node for node as recorded: all-feature, one-output
    and masked-column (§5.7) fits on the sf=0.1 snapshot."""
    forest = RandomForestRegressor(n_estimators=100, random_state=0).fit(*pinned_case(case))
    assert nodes_sha256(forest) == PINNED_NODES_SHA256[case]


def test_forest_fit_memory_is_bounded():
    """The forest grows level by level in bounded chunks: a 100-tree fit on
    the snapshot fold allocates a few MB at its peak, not a whole level's
    padded temporaries (about 40 MB)."""
    X, y, _ = snapshot_fold("AE_PL")
    tracemalloc.start()
    try:
        RandomForestRegressor(n_estimators=100, random_state=0).fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
