"""End-to-end tests for the AutoExecutor rule (§4)."""
import numpy as np
import pytest

from repro.core.autoexecutor import AutoExecutorRule, Prediction, decide, train_and_register
from repro.core.features import FEATURE_NAMES, featurize_plan
from repro.core.parameter_model import TrainingExample
from repro.core.ppm import MODEL_FAMILIES, AmdahlPPM, PowerLawPPM
from repro.ml.portable import ModelRegistry
from repro.workloads.tpcds_lite import query_by_name
from tests.snapshot import snapshot_cv, snapshot_records

NS = [1, 3, 8, 16, 32, 48]


def make_examples(n=25, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        feats = list(rng.random(19) * 10)
        feats[17] = float(rng.uniform(1e5, 1e7))
        truth = AmdahlPPM(s=30 + feats[17] / 1e6, p=feats[17] / 1e4)
        out.append(
            TrainingExample(
                query=f"q{i}",
                features=feats,
                times={nn: truth.time(nn) for nn in NS},
            )
        )
    return out


@pytest.fixture()
def registry(tmp_path):
    reg = ModelRegistry(str(tmp_path))
    train_and_register(reg, "ae_pl", "AE_PL", make_examples(), random_state=0)
    train_and_register(reg, "ae_al", "AE_AL", make_examples(), random_state=0)
    return reg


class TestTrainAndRegister:
    def test_model_size_reported(self, registry, tmp_path):
        reg = ModelRegistry(str(tmp_path / "x"))
        size = train_and_register(reg, "m", "AE_AL", make_examples(10))
        assert size > 1000


class TestRuleOnFeatures:
    def test_prediction_fields(self, registry):
        rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        pred = rule.predict_from_features([1.0] * 19, query_name="q")
        assert isinstance(pred, Prediction)
        assert isinstance(pred.ppm, PowerLawPPM)
        assert 1 <= pred.n_selected <= 48
        assert set(pred.times) == set(range(1, 49))

    def test_timings_recorded(self, registry):
        """§5.6 reads the rule's own timings, on the feature path too; the
        first decision of a fresh rule loads the model, later ones hit
        the registry's cache."""
        rule = AutoExecutorRule(
            registry=ModelRegistry(registry.root), model_name="ae_pl", family="AE_PL"
        )
        first, second = (rule.predict_from_features([1.0] * 19) for _ in range(2))
        for pred in (first, second):
            assert set(pred.timings_ms) == {"model_load_ms", "inference_ms", "selection_ms"}
            assert min(pred.timings_ms.values()) >= 0
        assert first.timings_ms["model_load_ms"] > second.timings_ms["model_load_ms"]

    def test_amdahl_family(self, registry):
        rule = AutoExecutorRule(registry=registry, model_name="ae_al", family="AE_AL")
        pred = rule.predict_from_features([1.0] * 19)
        assert isinstance(pred.ppm, AmdahlPPM)

    def test_h1_with_amdahl_selects_48(self, registry):
        """§5.3: no saturation term → AE_AL picks the max n at H=1."""
        rule = AutoExecutorRule(
            registry=registry, model_name="ae_al", family="AE_AL",
            strategy=("slowdown", 1.0),
        )
        pred = rule.predict_from_features([1.0] * 19)
        assert pred.n_selected == 48

    def test_elbow_with_amdahl_is_7(self, registry):
        """Fig 11: AE_AL's elbow is analytically always 7."""
        rule = AutoExecutorRule(
            registry=registry, model_name="ae_al", family="AE_AL",
            strategy=("elbow",),
        )
        for seed in range(5):
            feats = list(np.random.default_rng(seed).random(19))
            assert rule.predict_from_features(feats).n_selected == 7

    def test_factorization_consistent(self, registry):
        rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        pred = rule.predict_from_features([1.0] * 19)
        if pred.factorization is not None:
            n, e_c = pred.factorization
            assert n * e_c == pred.n_selected * 4

    def test_unknown_strategy_raises(self, registry):
        rule = AutoExecutorRule(
            registry=registry, model_name="ae_pl", family="AE_PL",
            strategy=("magic",),
        )
        with pytest.raises(ValueError):
            rule.predict_from_features([1.0] * 19)


@pytest.mark.parametrize("family", ["AE_PL", "AE_AL"])
def test_rule_decides_like_the_cv(tmp_path, family):
    """The experiments decide on a CV fold's batch predictions; the rule
    scores one row with the same forest, registered. Both give the same
    PPM and n̂ for every query the fold held out."""
    fr = snapshot_cv(family)[0]
    registry = ModelRegistry(str(tmp_path))
    registry.register(
        "fold",
        fr.model,
        feature_names=list(FEATURE_NAMES),
        target_names=list(MODEL_FAMILIES[family][1].param_names),
    )
    rule = AutoExecutorRule(registry=registry, model_name="fold", family=family)
    features = {r.name: r.features for r in snapshot_records()}
    for q in fr.test_queries:
        live = rule.predict_from_features(features[q], query_name=q)
        batch = decide(fr.predicted[q], query=q)
        assert live.ppm == batch.ppm, q
        assert live.n_selected == batch.n_selected, q


class TestRuleOnSparkPlan:
    def test_apply_featurizes_real_plan(self, spark, tpcds_tables, registry):
        rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        df = spark.sql(query_by_name("t1_ss_agg_1998").sql)
        pred = rule.apply(df, query_name="t1_ss_agg_1998")
        assert pred.query == "t1_ss_agg_1998"
        assert 1 <= pred.n_selected <= 48
        # §5.6 timing instrumentation present
        for key in ("model_load_ms", "featurize_ms", "inference_ms", "selection_ms"):
            assert pred.timings_ms[key] >= 0

    def test_apply_matches_predict_from_features(self, spark, tpcds_tables, registry):
        """The live rule and the feature path make the same decision."""
        rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        df = spark.sql(query_by_name("t7_ss_star_2000").sql)
        live = rule.apply(df)
        offline = rule.predict_from_features(featurize_plan(df).as_vector())
        assert np.array_equal(live.ppm.params(), offline.ppm.params())
        assert live.n_selected == offline.n_selected

    def test_model_cached_after_first_apply(self, spark, tpcds_tables, registry):
        rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        df = spark.sql("SELECT COUNT(*) AS c FROM item")
        first = rule.apply(df)
        second = rule.apply(df)
        assert second.timings_ms["model_load_ms"] <= max(first.timings_ms["model_load_ms"], 0.5)

    def test_bigger_query_not_smaller_allocation(self, spark, tpcds_tables, registry):
        """A heavy star join should get at least the tiny query's n."""
        rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        tiny = rule.apply(spark.sql("SELECT COUNT(*) AS c FROM promotion"))
        big = rule.apply(spark.sql(query_by_name("t7_ss_star_2000").sql))
        assert big.n_selected >= 1 and tiny.n_selected >= 1  # both valid selections
