"""Unit tests for the Random-Forest substrate."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from tests.snapshot import snapshot_records


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
    "AE_PL": "65becb9e894f7a4e6becadefe9300170652cf9d3a506536fb8548bab9ecb149c",
    "AE_AL": "b87f9698394f937c35292998a5e537a39639bedf35dbda2082e3dde8b4840e80",
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
    "AE_PL": "c683f17437b004554038a2d4c03860a85baa5395dc0ed83d6e7db4bc1cc068c1",
    "AE_AL": "d3e9186651f2983dcfc9a21150fb4d2085b626cadf2388fea756e71f672b5be0",
    "AE_PL one output": "e1f67583cd42d7cf378867b182a7d497ff1f7ee2bf58b1ec1f727506b648ec8b",
    "AE_PL F1 columns": "370b90f6803fca6d4413400d4520c9008d6ccddc14151a7b13df878287d352f9",
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
