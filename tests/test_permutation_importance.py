"""Unit tests for permutation feature importance (§5.7 substrate)."""
import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.permutation_importance import permutation_importance


def test_informative_feature_ranks_first():
    rng = np.random.default_rng(0)
    X = rng.random((150, 4))
    y = 10 * X[:, 2] + 0.01 * rng.standard_normal(150)  # only feature 2 matters
    f = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
    res = permutation_importance(f, X, y, n_repeats=10, random_state=0)
    assert int(np.argmax(res["importances_mean"])) == 2


def test_noise_features_near_zero():
    rng = np.random.default_rng(1)
    X = rng.random((150, 3))
    y = 5 * X[:, 0]
    f = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
    res = permutation_importance(f, X, y, n_repeats=10, random_state=0)
    top = res["importances_mean"][0]
    assert res["importances_mean"][1] < 0.2 * top
    assert res["importances_mean"][2] < 0.2 * top


def test_shapes():
    rng = np.random.default_rng(2)
    X = rng.random((40, 5))
    y = X[:, 0]
    f = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
    res = permutation_importance(f, X, y, n_repeats=7, random_state=0)
    assert res["importances"].shape == (5, 7)
    assert res["importances_mean"].shape == (5,)
    assert res["importances_std"].shape == (5,)


def test_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.random((50, 3))
    y = X[:, 1] * 2
    f = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
    a = permutation_importance(f, X, y, n_repeats=5, random_state=9)
    b = permutation_importance(f, X, y, n_repeats=5, random_state=9)
    assert np.allclose(a["importances"], b["importances"])


def test_multi_output_supported():
    rng = np.random.default_rng(4)
    X = rng.random((80, 3))
    y = np.stack([X[:, 0], X[:, 0] * 2], axis=1)
    f = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
    res = permutation_importance(f, X, y, n_repeats=5, random_state=0)
    assert int(np.argmax(res["importances_mean"])) == 0


def test_batched_repeats_equal_one_predict_per_repeat():
    """Scoring all repeats of a feature with one stacked predict gives the
    importances of one predict per repeat, bit for bit."""
    rng = np.random.default_rng(5)
    X = rng.random((30, 4))
    for y in (X[:, 0] + X[:, 1], np.stack([X[:, 0], X[:, 2] * 3, X[:, 3]], axis=1)):
        f = RandomForestRegressor(n_estimators=8, random_state=0).fit(X, y)
        res = permutation_importance(f, X, y, n_repeats=6, random_state=2)

        def neg_mse(Xs):
            pred = np.asarray(f.predict(Xs)).reshape(len(Xs), -1)
            return -float(np.mean((pred - y.reshape(len(Xs), -1)) ** 2))

        perm = np.random.default_rng(2)
        ref = np.zeros((4, 6))
        for j in range(4):
            for r in range(6):
                Xp = X.copy()
                Xp[:, j] = perm.permutation(Xp[:, j])
                ref[j, r] = neg_mse(X) - neg_mse(Xp)
        assert np.array_equal(res["importances"], ref)
