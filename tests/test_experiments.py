"""Tests for the evaluation experiments, on a small synthetic workload.

A fake :class:`Dataset` of 15 queries (realistic skeletons + simulated
ground truth) exercises each experiment module end-to-end without Spark
and asserts the paper-shaped properties hold.
"""
import dataclasses

import numpy as np
import pytest

from repro.cluster.taskgraph import build_task_graph
from repro.core.features import FEATURE_NAMES, PlanNode
from repro.core.training import QueryRecord, error_by_n, run_cross_validation
from repro.experiments import (
    common,
    exp_allocation,
    exp_core_impact,
    exp_ground_truth,
    exp_importance,
    exp_overheads,
    exp_prediction,
    exp_selection,
)
from repro.experiments.common import (
    Dataset,
    ground_truth_times,
    sparklens_times,
)
from repro.ml.permutation_importance import permutation_importance


def _skeleton(i: int) -> PlanNode:
    fact = PlanNode("LogicalRelation", 800_000 + 550_000 * i, 6, [])
    dim = PlanNode("LogicalRelation", 40_000 + 1000 * i, 4, [])
    join = PlanNode("Join", 0, 8, [fact, dim])
    return PlanNode("Aggregate", 20_000, 3, [join])


@pytest.fixture(scope="module")
def mini_ds() -> Dataset:
    records, skeletons = [], {}
    for i in range(15):
        name = f"mq{i}"
        sk = _skeleton(i)
        g = build_task_graph(name, sk)
        feats = [0.0] * len(FEATURE_NAMES)
        feats[FEATURE_NAMES.index("input_bytes")] = float(
            sum(n.size_bytes for n in sk.walk() if not n.children)
        )
        feats[FEATURE_NAMES.index("rows_processed")] = feats[
            FEATURE_NAMES.index("input_bytes")
        ] / 48.0
        feats[FEATURE_NAMES.index("num_join")] = 1.0
        records.append(
            QueryRecord(
                name=name,
                features=feats,
                actual_times=ground_truth_times(g, runs=2),
                sparklens_times=sparklens_times(g),
            )
        )
        skeletons[name] = sk
    return Dataset(sf=0.00431, records=records, skeletons=skeletons)


def _small_cv(records, *, family):
    return run_cross_validation(records, family=family, repeats=2, folds=3)


@pytest.fixture(scope="module")
def folds(mini_ds):
    """A 2×3 CV per family in the dataset's memo, so sections use it."""
    for fam in ("AE_PL", "AE_AL"):
        mini_ds.folds[fam] = _small_cv(mini_ds.records, family=fam)
    return mini_ds.folds


class TestSharedCv:
    def test_cv_sections_share_one_cv_per_family(self, mini_ds, monkeypatch):
        """Prediction, selection, allocation and §5.7 read the same
        FoldResult objects, from one unmasked CV run per family; §5.7
        scores every fold of it, and F1–F3 run CVs of the default size."""
        runs, masked, scored = [], [], []

        def spy(records, *, family):
            runs.append((family, _small_cv(records, family=family)))
            return runs[-1][1]

        def masked_spy(records, *, family, feature_mask, **kwargs):
            assert kwargs == {}  # the default 10 repeats
            masked.append(feature_mask)
            return run_cross_validation(
                records, family=family, repeats=1, folds=3, feature_mask=feature_mask
            )

        def importance_spy(model, X, y, **kwargs):
            scored.append(model)
            return permutation_importance(model, X, y, **kwargs)

        monkeypatch.setattr(common, "run_cross_validation", spy)
        monkeypatch.setattr(exp_importance, "run_cross_validation", masked_spy)
        monkeypatch.setattr(exp_importance, "permutation_importance", importance_spy)
        ds = Dataset(sf=mini_ds.sf, records=mini_ds.records, skeletons=mini_ds.skeletons)
        exp_prediction.cv_errors(ds)
        exp_prediction.example_curves(ds, "mq5")
        exp_selection.limited_slowdown_table(ds)
        exp_selection.static_speedups(ds)
        exp_selection.elbow_distribution(ds)
        exp_allocation.rule_predictions(ds)
        exp_importance.importance_scores(ds)
        ab = exp_importance.ablation(ds)
        assert [fam for fam, _ in runs] == ["AE_PL", "AE_AL"]
        assert scored == [fr.model for _, folds in runs for fr in folds]
        for fam, folds in runs:
            assert ds.cv(fam) is folds
            assert ab[fam]["F0"] == {n: mu for n, (mu, _) in error_by_n(ds.records, folds).items()}
        assert len(runs) == 2
        # F1–F3 of both families; F0 is the shared CV's
        sets = exp_importance.FEATURE_SETS
        assert masked == [sets[f] for f in ("F1", "F2", "F3")] * 2


class TestPredictionExperiment:
    def test_fit_to_sparklens_structure(self, mini_ds):
        fits = exp_prediction.fit_to_sparklens(mini_ds)
        assert set(fits) == {"AE_PL", "AE_AL"}
        for err in fits.values():
            assert all(v >= 0 for v in err.values())

    def test_ae_al_fits_sparklens_well_at_low_n(self, mini_ds):
        """Fig 4's observation: AE_AL matches Sparklens closely for n<32."""
        fits = exp_prediction.fit_to_sparklens(mini_ds)
        assert fits["AE_AL"][3] < 0.15

    def test_ae_pl_exact_in_saturation(self, mini_ds):
        fits = exp_prediction.fit_to_sparklens(mini_ds)
        assert fits["AE_PL"][48] < 0.05


class TestSelectionExperiment:
    def test_table_structure(self, mini_ds, folds):
        table = exp_selection.limited_slowdown_table(mini_ds)
        assert set(table) == {"Actual", "S", "AE_PL", "AE_AL"}
        for series in table.values():
            assert set(series) == set(exp_selection.H_VALUES)

    def test_actual_h1_slowdown_is_1(self, mini_ds, folds):
        table = exp_selection.limited_slowdown_table(mini_ds)
        assert table["Actual"][1.0]["slowdown_mean"] == pytest.approx(1.0)

    def test_ae_al_selects_48_at_h1(self, mini_ds, folds):
        table = exp_selection.limited_slowdown_table(mini_ds)
        assert table["AE_AL"][1.0]["n_mean"] == pytest.approx(48.0)

    def test_larger_h_smaller_n(self, mini_ds, folds):
        table = exp_selection.limited_slowdown_table(mini_ds)
        for series in ("Actual", "AE_PL", "AE_AL"):
            ns = [table[series][h]["n_mean"] for h in exp_selection.H_VALUES]
            assert ns == sorted(ns, reverse=True)

    def test_elbow_ae_al_always_7(self, mini_ds, folds):
        dist = exp_selection.elbow_distribution(mini_ds)
        assert set(dist["AE_AL"]) == {7}


class TestAllocationExperiment:
    @pytest.fixture(scope="class")
    def comps(self, mini_ds, folds):
        return exp_allocation.compare_policies(mini_ds)

    def test_all_queries_compared(self, comps, mini_ds):
        assert len(comps) == len(mini_ds.records)

    def test_rule_saves_auc_vs_sa48(self, comps):
        s = exp_allocation.summarize(comps)
        assert s["auc_saved_vs_sa48_pct"] > 30

    def test_rule_saves_auc_vs_da(self, comps):
        s = exp_allocation.summarize(comps)
        assert s["auc_saved_vs_da_pct"] > 0

    def test_sa48_fastest(self, comps):
        s = exp_allocation.summarize(comps)
        assert s["slowdown_vs_sa48_pct"] >= 0

    def test_skyline_example(self, mini_ds, comps):
        """Fig 12 shows the §5.4 runs of the query, plus one SA(n̂) run."""
        comp = next(c for c in comps if c.query == "mq5")
        n = comp.prediction.n_selected
        out = exp_allocation.skyline_example(mini_ds, comp)
        assert [r.policy for r in out] == ["DA(1,48)", "SA(48)", f"SA({n})", f"Rule({n})"]
        da, sa48, san, rule = out
        assert (da, sa48, rule) == (comp.da, comp.sa48, comp.rule)
        assert san.max_executors == n
        assert sa48.auc > rule.auc

    def test_skyline_example_keeps_four_runs_at_48(self, mini_ds, comps):
        """When the rule picks n̂ = 48, SA(n̂) and SA(48) share a name and
        Fig 12 still shows both."""
        comp = next(c for c in comps if c.query == "mq5")
        comp = dataclasses.replace(
            comp, prediction=dataclasses.replace(comp.prediction, n_selected=48)
        )
        out = exp_allocation.skyline_example(mini_ds, comp)
        assert [r.policy for r in out] == ["DA(1,48)", "SA(48)", "SA(48)", comp.rule.policy]
        assert out[1] == comp.sa48
        assert out[2].max_executors == 48


class TestCoreImpactExperiment:
    @pytest.fixture(scope="class")
    def grid(self, mini_ds):
        return exp_core_impact.run_config_grid(mini_ds, runs=2)

    def test_all_13_configs(self, grid):
        assert all(len(v) == 13 for v in grid.values())

    def test_relative_errors_small(self, grid):
        errs = exp_core_impact.relative_errors(grid)
        s = exp_core_impact.summarize(errs)
        assert s["points"] == 6 * len(grid)
        assert s["mean_abs_pct"] < 25
        assert s["within_20_pct"] > 70

    def test_time_decreases_with_k_within_ec4(self, grid):
        for times in grid.values():
            ec4 = sorted((n, t) for (e, n), t in times.items() if e == 4)
            assert ec4[0][1] > ec4[-1][1]


class TestGroundTruthExperiment:
    def test_tradeoff_curve(self, mini_ds):
        curve = exp_ground_truth.tradeoff_curve(mini_ds, "mq9")
        rec = next(r for r in mini_ds.records if r.name == "mq9")
        assert curve == {n: {"t": t, "auc": n * t} for n, t in rec.actual_times.items()}
        assert curve[1]["t"] > curve[48]["t"]
        assert curve[48]["auc"] > curve[1]["auc"] * 0.5

    def test_optimal_distribution_total(self, mini_ds):
        dist = exp_ground_truth.optimal_executor_distribution(mini_ds)
        assert sum(dist.values()) == len(mini_ds.records)


class TestOverheadsExperiment:
    def test_measures_all_fields(self, mini_ds):
        o = exp_overheads.measure(mini_ds)
        assert o.ppm_fit_ms_per_point > 0
        assert o.rf_train_ms > 0
        assert o.score_ms > 0
        assert o.model_size_mb > 0
        assert o.inference_ms > 0
        assert o.cached_get_ms < o.load_ms + 1.0
