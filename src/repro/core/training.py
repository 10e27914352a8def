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

from repro.core.parameter_model import ParameterModel, TrainingExample
from repro.core.ppm import PPM, error_metric

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
    model: ParameterModel = field(repr=False, default=None)


def run_cross_validation(
    records: list[QueryRecord],
    *,
    family: str,
    repeats: int = 10,
    folds: int = 5,
    seed: int = 0,
    feature_mask: list[int] | None = None,
    keep_models: bool = False,
) -> list[FoldResult]:
    """10-repeated 5-fold CV exactly as §5.1.

    Training examples use Sparklens-estimated times (the augmentation);
    ``feature_mask`` optionally restricts to a feature subset (for the
    §5.7 ablation). Returns one :class:`FoldResult` per (repeat, fold).
    """
    from repro.core import ppm as ppm_mod
    from repro.core.features import FEATURE_NAMES

    results: list[FoldResult] = []
    names = [r.name for r in records]
    mask = feature_mask if feature_mask is not None else list(range(len(FEATURE_NAMES)))
    feat_names = tuple(FEATURE_NAMES[i] for i in mask)
    for rep in range(repeats):
        for fi, (train_idx, test_idx) in enumerate(
            kfold_indices(len(records), folds, seed=seed + rep)
        ):
            train = [records[i] for i in train_idx]
            test = [records[i] for i in test_idx]
            examples = [
                TrainingExample(
                    query=r.name,
                    features=[r.features[i] for i in mask],
                    times=dict(r.sparklens_times),
                )
                for r in train
            ]
            model = ParameterModel(
                family=family,
                random_state=1000 * rep + fi,
                feature_names=feat_names,
            ).fit(examples)
            predicted = {
                r.name: model.predict_ppm([r.features[i] for i in mask]) for r in test
            }
            fitted_train = {
                r.name: ppm_mod.fit(
                    family,
                    sorted(r.sparklens_times),
                    [r.sparklens_times[n] for n in sorted(r.sparklens_times)],
                )
                for r in train
            }
            results.append(
                FoldResult(
                    repeat=rep,
                    fold=fi,
                    train_queries=[r.name for r in train],
                    test_queries=[r.name for r in test],
                    predicted=predicted,
                    fitted_train=fitted_train,
                    model=model if keep_models else None,
                )
            )
    return results


def error_by_n(
    records: list[QueryRecord],
    fold_results: list[FoldResult],
    *,
    ns: tuple[int, ...] = N_GRID,
    on_train: bool = False,
) -> dict[int, tuple[float, float]]:
    """Average E(n) (Eq. 6) over folds; returns n → (mean, std).

    ``on_train=False`` evaluates test-set predictions against actual run
    times; ``on_train=True`` evaluates the training-set PPM *fits* (the
    "Fit" series of Fig. 9a).
    """
    by_name = {r.name: r for r in records}
    per_fold: dict[int, list[float]] = {n: [] for n in ns}
    for fr in fold_results:
        source = fr.fitted_train if on_train else fr.predicted
        for n in ns:
            per_fold[n].append(
                error_metric(
                    {q: by_name[q].actual_times[n] for q in source},
                    {q: model.time(n) for q, model in source.items()},
                )
            )
    return {
        n: (float(np.mean(v)), float(np.std(v))) for n, v in per_fold.items()
    }


def sparklens_error_by_n(
    records: list[QueryRecord], *, ns: tuple[int, ...] = N_GRID
) -> dict[int, float]:
    """E(n) of raw Sparklens estimates against actual times (series "S")."""
    return {
        n: error_metric(
            {r.name: r.actual_times[n] for r in records},
            {r.name: r.sparklens_times[n] for r in records},
        )
        for n in ns
    }
