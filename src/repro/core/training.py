"""Training pipeline + cross-validation harness (§4.1–4.2, §5.1).

The paper's flow: run every query once at n=16, let Sparklens estimate
t(n) for other executor counts (training-data augmentation), fit the PPM
parameters per query, train the Random-Forest parameter model on
(features → parameters), then evaluate predictions against *actual* run
times with 10-repeated 5-fold cross validation over query templates.

This module is Spark-free: it consumes the per-query records produced by
``repro.experiments.common`` (features from real Catalyst plans, actual
and Sparklens times from the cluster simulator).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import ppm as ppm_mod
from repro.core.parameter_model import TrainingExample, fit_ppm
from repro.core.ppm import PPM, error_metric
from repro.ml.forest import RandomForestRegressor

#: the executor-count grid of §5.1
N_GRID: tuple[int, ...] = (1, 3, 8, 16, 32, 48)


@dataclass
class QueryRecord:
    """Everything the experiments need to know about one query at one SF."""

    name: str
    features: list[float]
    actual_times: dict[int, float]  # averaged ground truth per n (§5.1)
    sparklens_times: dict[int, float]  # estimates from one run at n=16

    def to_example(self) -> TrainingExample:
        """Training targets are the Sparklens estimates (the augmentation)."""
        return TrainingExample(self.name, self.features, dict(self.sparklens_times))


def kfold_indices(
    n: int, k: int, *, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold split; returns (train_idx, test_idx) per fold."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, test))
    return out


@dataclass
class FoldResult:
    """Predictions of one fold: per-query predicted PPMs + memberships."""

    repeat: int
    fold: int
    train_queries: list[str]
    test_queries: list[str]
    predicted: dict[str, PPM]  # test query -> predicted PPM
    fitted_train: dict[str, PPM]  # train query -> PPM fit on its own times
    model: RandomForestRegressor | None = field(repr=False, default=None)


def run_cross_validation(
    records: list[QueryRecord],
    *,
    family: str,
    repeats: int = 10,
    folds: int = 5,
    seed: int = 0,
    feature_mask: list[int] | None = None,
) -> list[FoldResult]:
    """10-repeated 5-fold CV exactly as §5.1.

    Training examples use Sparklens-estimated times (the augmentation);
    ``feature_mask`` optionally restricts to a feature subset (for the
    §5.7 ablation). Returns one :class:`FoldResult` per (repeat, fold),
    with the fold's fitted forest. Repeat ``r`` splits with seed
    ``seed + r``, so the first ``r`` repeats of a longer run are exactly
    an ``r``-repeat run.
    """
    from repro.core.features import FEATURE_NAMES

    results: list[FoldResult] = []
    mask = feature_mask if feature_mask is not None else list(range(len(FEATURE_NAMES)))
    X = np.asarray([[r.features[i] for i in mask] for r in records], dtype=float)
    # one PPM fit per query to its Sparklens times, reused as the forest's
    # target and as ``fitted_train`` (the "Fit" series of Fig. 9a)
    fits = {r.name: fit_ppm(family, r.sparklens_times) for r in records}
    for rep in range(repeats):
        for fi, (train_idx, test_idx) in enumerate(
            kfold_indices(len(records), folds, seed=seed + rep)
        ):
            train = [records[i] for i in train_idx]
            test = [records[i] for i in test_idx]
            forest = RandomForestRegressor(random_state=1000 * rep + fi).fit(
                X[train_idx], np.asarray([fits[r.name].params() for r in train], dtype=float)
            )
            # one batch scores every test query; a row's prediction is its own
            params = forest.predict(X[test_idx])
            predicted = {
                r.name: ppm_mod.from_params(family, p) for r, p in zip(test, params)
            }
            fitted_train = {r.name: fits[r.name] for r in train}
            results.append(
                FoldResult(
                    repeat=rep,
                    fold=fi,
                    train_queries=[r.name for r in train],
                    test_queries=[r.name for r in test],
                    predicted=predicted,
                    fitted_train=fitted_train,
                    model=forest,
                )
            )
    return results


def grid_errors(
    truth: dict[str, dict[int, float]], curves: dict[str, dict[int, float]]
) -> dict[int, float]:
    """E(n) (Eq. 6) at every n of :data:`N_GRID`: each query's curve
    ``curves[q]`` (n → t̂) against ``truth[q]`` (n → t), summed over the
    queries of ``curves`` in their order."""
    return {
        n: error_metric({q: truth[q][n] for q in curves}, {q: c[n] for q, c in curves.items()})
        for n in N_GRID
    }


def error_by_n(
    records: list[QueryRecord],
    fold_results: list[FoldResult],
    *,
    on_train: bool = False,
) -> dict[int, tuple[float, float]]:
    """Average E(n) (Eq. 6) over folds; returns n → (mean, std).

    ``on_train=False`` evaluates test-set predictions against actual run
    times; ``on_train=True`` evaluates the training-set PPM *fits* (the
    "Fit" series of Fig. 9a).
    """
    actual = {r.name: r.actual_times for r in records}
    per_fold = []
    for fr in fold_results:
        models = fr.fitted_train if on_train else fr.predicted
        per_fold.append(grid_errors(actual, {q: m.times(N_GRID) for q, m in models.items()}))
    out = {}
    for n in N_GRID:
        v = [e[n] for e in per_fold]
        out[n] = (float(np.mean(v)), float(np.std(v)))
    return out


def sparklens_error_by_n(records: list[QueryRecord]) -> dict[int, float]:
    """E(n) of raw Sparklens estimates against actual times (series "S")."""
    return grid_errors(
        {r.name: r.actual_times for r in records},
        {r.name: r.sparklens_times for r in records},
    )
