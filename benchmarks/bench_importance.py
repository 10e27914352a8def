"""Benchmark: Fig 15 / §5.7 — permutation importance + ablation unit."""
import numpy as np

from repro.core.parameter_model import ParameterModel, fit_ppm_targets
from repro.ml.permutation_importance import permutation_importance


def test_bench_permutation_importance_one_fold(benchmark, ds100):
    """Importance of all 19 features on one held-out fold (paper: 100
    permutation repeats × 50 folds; the benchmarked unit is one fold at
    10 repeats)."""
    train, test = ds100.records[:82], ds100.records[82:]
    model = ParameterModel(family="AE_PL", random_state=0).fit(
        [r.to_example() for r in train]
    )
    X = np.asarray([r.features for r in test])
    y = fit_ppm_targets("AE_PL", [r.to_example() for r in test])

    res = benchmark.pedantic(
        permutation_importance,
        args=(model.forest, X, y),
        kwargs={"n_repeats": 10, "random_state": 0},
        rounds=1,
        iterations=1,
    )
    assert res["importances_mean"].shape == (19,)


def test_bench_ablation_fold(benchmark, ds100):
    """One reduced-feature-set training (the §5.7 F2 configuration)."""
    from repro.experiments.exp_importance import FEATURE_SETS

    mask = FEATURE_SETS["F2"]
    examples = [
        type(r.to_example())(
            query=r.name,
            features=[r.features[i] for i in mask],
            times=dict(r.sparklens_times),
        )
        for r in ds100.records[:82]
    ]
    model = benchmark.pedantic(
        lambda: ParameterModel(family="AE_PL", random_state=0).fit(examples),
        rounds=2,
        iterations=1,
    )
    assert model.forest.n_features_ == 2
