"""Unit tests for the parameter model g (§3.4) and the CV harness."""
import numpy as np
import pytest

from repro.core.parameter_model import TrainingExample, fit_ppm_targets
from repro.core.ppm import AmdahlPPM, PowerLawPPM, from_params
from repro.core.training import (
    N_GRID,
    QueryRecord,
    error_by_n,
    kfold_indices,
    run_cross_validation,
    sparklens_error_by_n,
)
from repro.ml.forest import RandomForestRegressor

NS = list(N_GRID)


def synth_records(n=30, seed=0) -> list[QueryRecord]:
    """Records whose PPM parameters are a function of the features."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        feats = [0.0] * 19
        work = float(rng.uniform(100, 2000))
        serial = float(rng.uniform(20, 60))
        feats[17] = work * 1e4  # input_bytes position
        feats[18] = work * 1e2  # rows_processed
        feats[15] = float(rng.integers(4, 12))  # max_depth
        truth = AmdahlPPM(s=serial, p=work)
        times = {nn: truth.time(nn) for nn in NS}
        noisy = {nn: t * float(rng.normal(1, 0.02)) for nn, t in times.items()}
        records.append(
            QueryRecord(
                name=f"q{i}",
                features=feats,
                actual_times=noisy,
                sparklens_times=times,
            )
        )
    return records


class TestFitTargets:
    def test_amdahl_targets_shape(self):
        exs = [r.to_example() for r in synth_records(5)]
        y = fit_ppm_targets("AE_AL", exs)
        assert y.shape == (5, 2)

    def test_power_law_targets_shape(self):
        exs = [r.to_example() for r in synth_records(5)]
        y = fit_ppm_targets("AE_PL", exs)
        assert y.shape == (5, 3)

    def test_targets_recover_truth(self):
        truth = AmdahlPPM(s=30.0, p=500.0)
        ex = TrainingExample(
            query="q", features=[0.0] * 19, times={n: truth.time(n) for n in NS}
        )
        y = fit_ppm_targets("AE_AL", [ex])
        assert y[0][0] == pytest.approx(30.0, rel=1e-6)
        assert y[0][1] == pytest.approx(500.0, rel=1e-6)


def fit_forest(family, examples, **kw) -> RandomForestRegressor:
    """The parameter model g of one family: a forest on the PPM targets."""
    return RandomForestRegressor(**kw).fit(
        [ex.features for ex in examples], fit_ppm_targets(family, examples)
    )


class TestParameterModel:
    def test_one_training_point_per_query(self):
        """§3.4: the parametric approach gives one row per query."""
        exs = [r.to_example() for r in synth_records(12)]
        f = fit_forest("AE_AL", exs, n_estimators=5)
        assert f.n_features_ == 19
        assert f.predict([exs[0].features]).shape == (1, 2)  # one row of (s, p)

    def test_predict_ppm_type(self):
        recs = synth_records(12)
        f = fit_forest("AE_PL", [r.to_example() for r in recs], n_estimators=5)
        ppm = from_params("AE_PL", f.predict([recs[0].features])[0])
        assert isinstance(ppm, PowerLawPPM)
        assert ppm.time(1) >= ppm.time(48)

    def test_learns_feature_dependence(self):
        """Predictions for a heavy query exceed those for a light one."""
        recs = synth_records(40)
        f = fit_forest("AE_AL", [r.to_example() for r in recs], n_estimators=30, random_state=0)
        heavy = max(recs, key=lambda r: r.features[17])
        light = min(recs, key=lambda r: r.features[17])
        t1 = [from_params("AE_AL", p).time(1) for p in f.predict([heavy.features, light.features])]
        assert t1[0] > t1[1]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict([[0.0] * 19])


class TestKFold:
    def test_partition_covers_all(self):
        folds = kfold_indices(23, 5, seed=0)
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(23))

    def test_train_test_disjoint(self):
        for train, test in kfold_indices(20, 4, seed=1):
            assert not set(train) & set(test)

    def test_deterministic(self):
        a = kfold_indices(10, 5, seed=2)
        b = kfold_indices(10, 5, seed=2)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(te1, te2)


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def cv(self):
        recs = synth_records(20)
        frs = run_cross_validation(
            recs, family="AE_AL", repeats=2, folds=4, seed=0
        )
        return recs, frs

    def test_fold_count(self, cv):
        _, frs = cv
        assert len(frs) == 2 * 4

    def test_no_leakage(self, cv):
        _, frs = cv
        for fr in frs:
            assert not set(fr.train_queries) & set(fr.test_queries)

    def test_each_repeat_covers_all_queries(self, cv):
        recs, frs = cv
        for rep in (0, 1):
            tested = set()
            for fr in frs:
                if fr.repeat == rep:
                    tested |= set(fr.test_queries)
            assert tested == {r.name for r in recs}

    def test_predictions_for_test_queries_only(self, cv):
        _, frs = cv
        for fr in frs:
            assert set(fr.predicted) == set(fr.test_queries)

    def test_error_by_n_reasonable(self, cv):
        recs, frs = cv
        errs = error_by_n(recs, frs)
        assert set(errs) == set(N_GRID)
        for n, (mu, sd) in errs.items():
            assert 0 <= mu < 1.0
            assert sd >= 0

    def test_train_fit_errors_small(self, cv):
        """PPM fits on a query's own times must be near-exact here."""
        recs, frs = cv
        errs = error_by_n(recs, frs, on_train=True)
        for n, (mu, _) in errs.items():
            assert mu < 0.1

    def test_fold_models_are_kept(self, cv):
        """Each fold keeps its forest; scoring one test query at a time
        gives the fold's (batch-scored) predictions bit for bit."""
        recs, frs = cv
        by_name = {r.name: r for r in recs}
        for fr in frs:
            for q in fr.test_queries:
                one = from_params("AE_AL", fr.model.predict([by_name[q].features])[0])
                assert np.array_equal(fr.predicted[q].params(), one.params())

    def test_first_repeats_equal_a_shorter_run(self):
        """The first 3·k folds of a 4-repeat CV are a 3-repeat CV: same
        splits, predicted parameters and forest node arrays."""
        recs = synth_records(14)
        long = run_cross_validation(recs, family="AE_PL", repeats=4, folds=3, seed=5)
        short = run_cross_validation(recs, family="AE_PL", repeats=3, folds=3, seed=5)
        assert len(short) == 9
        for a, b in zip(long, short):
            assert (a.repeat, a.fold) == (b.repeat, b.fold)
            assert (a.train_queries, a.test_queries) == (b.train_queries, b.test_queries)
            for q in b.test_queries:
                assert np.array_equal(a.predicted[q].params(), b.predicted[q].params())
            assert np.array_equal(a.model.roots_, b.model.roots_)
            for x, y in zip(a.model.nodes_, b.model.nodes_):
                assert np.array_equal(x, y)

    def test_feature_mask(self):
        recs = synth_records(16)
        frs = run_cross_validation(
            recs, family="AE_AL", repeats=1, folds=4, seed=0, feature_mask=[17, 18]
        )
        assert len(frs) == 4

    def test_sparklens_error_near_zero_on_clean_data(self):
        recs = synth_records(10)
        errs = sparklens_error_by_n(recs)
        for n, e in errs.items():
            assert e < 0.05  # only the 2% actual-noise remains
