"""Integration: the full AutoExecutor pipeline end-to-end (§4, Fig 6–7).

Builds the complete dataset for the test scale factor (Catalyst features
+ simulated ground truth + Sparklens augmentation for all 103 queries),
trains the parameter model, registers it in the portable-model registry,
runs the optimizer rule on live Spark plans, and executes the predicted
allocation in the cluster simulator.
"""
import numpy as np
import pytest

from repro.cluster.allocation import PredictiveRule, StaticAllocation
from repro.cluster.simulator import simulate
from repro.core.autoexecutor import AutoExecutorRule, train_and_register
from repro.experiments.common import build_dataset, load_cached_dataset
from repro.ml.portable import ModelRegistry
from repro.workloads.tpcds_lite import query_by_name

from tests.conftest import TEST_SF


@pytest.fixture(scope="module")
def dataset(spark, tpcds_tables, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("ds_cache"))
    ds = build_dataset(spark, sf=TEST_SF, cache_root=cache)
    return ds, cache


class TestDatasetBuild:
    def test_all_queries_covered(self, dataset):
        ds, _ = dataset
        assert len(ds.records) == 103

    def test_features_populated(self, dataset):
        ds, _ = dataset
        for r in ds.records:
            assert r.features[-2] > 0  # input_bytes
            assert sum(r.features) > 0

    def test_times_on_grid(self, dataset):
        ds, _ = dataset
        for r in ds.records:
            assert sorted(r.actual_times) == [1, 3, 8, 16, 32, 48]
            assert sorted(r.sparklens_times) == list(range(1, 49))

    def test_times_broadly_decreasing(self, dataset):
        ds, _ = dataset
        worse = sum(1 for r in ds.records if r.actual_times[1] < r.actual_times[48])
        assert worse <= 5  # noise may flip tiny queries, not the workload

    def test_cache_roundtrip(self, dataset):
        ds, cache = dataset
        again = load_cached_dataset(TEST_SF, cache_root=cache)
        assert again is not None
        assert len(again.records) == 103
        assert again.records[0].actual_times == ds.records[0].actual_times
        g = again.graph(again.records[0].name)
        assert g.total_work == ds.graph(ds.records[0].name).total_work


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def rule(self, dataset, tmp_path_factory):
        ds, _ = dataset
        reg = ModelRegistry(str(tmp_path_factory.mktemp("registry")))
        train_and_register(
            reg, "ae_pl", "AE_PL", [r.to_example() for r in ds.records]
        )
        return AutoExecutorRule(registry=reg, model_name="ae_pl", family="AE_PL")

    def test_rule_on_live_plan(self, spark, tpcds_tables, rule):
        df = spark.sql(query_by_name("t7_ss_star_2000").sql)
        pred = rule.apply(df, query_name="t7_ss_star_2000")
        assert 1 <= pred.n_selected <= 48
        assert pred.timings_ms["featurize_ms"] > 0

    def test_predicted_allocation_saves_auc(self, spark, tpcds_tables, dataset, rule):
        """The paper's bottom line at workload scale: executing with the
        rule's predicted n occupies far fewer executor-seconds than SA(48)
        while staying within a modest slowdown."""
        ds, _ = dataset
        sample = ds.records[::10]
        auc_rule, auc_sa, t_rule, t_sa = 0.0, 0.0, 0.0, 0.0
        for rec in sample:
            pred = rule.predict_from_features(rec.features, query_name=rec.name)
            g = ds.graph(rec.name)
            r_rule = simulate(g, PredictiveRule(n_predicted=pred.n_selected), seed=1)
            r_sa = simulate(g, StaticAllocation(48), seed=1)
            auc_rule += r_rule.auc
            auc_sa += r_sa.auc
            t_rule += r_rule.elapsed
            t_sa += r_sa.elapsed
        assert auc_rule < 0.7 * auc_sa
        assert t_rule < 2.0 * t_sa

    def test_prediction_correlates_with_query_size(self, dataset, rule):
        """Bigger inputs should generally get more executors."""
        ds, _ = dataset
        recs = sorted(ds.records, key=lambda r: r.features[-2])
        small = np.mean(
            [rule.predict_from_features(r.features).n_selected for r in recs[:15]]
        )
        large = np.mean(
            [rule.predict_from_features(r.features).n_selected for r in recs[-15:]]
        )
        assert large >= small
