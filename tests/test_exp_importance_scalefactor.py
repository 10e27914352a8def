"""Tests for the feature-importance and scale-factor experiments."""
import pytest

from repro.core.features import FEATURE_NAMES
from repro.experiments import exp_importance, exp_scalefactor
from repro.experiments.common import Dataset


@pytest.fixture(scope="module")
def mini_pair():
    """Two small datasets at different 'scale factors' (shared queries)."""
    from repro.cluster.taskgraph import build_task_graph
    from repro.core.features import PlanNode
    from repro.core.training import QueryRecord
    from repro.experiments.common import ground_truth_times, sparklens_times

    def make(scale: float, sf: float) -> Dataset:
        records, skeletons = [], {}
        for i in range(12):
            name = f"sq{i}"
            fact = PlanNode(
                "LogicalRelation", int((600_000 + 400_000 * i) * scale), 6, []
            )
            sk = PlanNode("Aggregate", 20_000, 3, [fact])
            g = build_task_graph(name, sk)
            feats = [0.0] * len(FEATURE_NAMES)
            feats[FEATURE_NAMES.index("input_bytes")] = float(fact.size_bytes)
            feats[FEATURE_NAMES.index("rows_processed")] = fact.size_bytes / 40.0
            records.append(
                QueryRecord(
                    name=name,
                    features=feats,
                    actual_times=ground_truth_times(g, runs=2),
                    sparklens_times=sparklens_times(g),
                )
            )
            skeletons[name] = sk
        return Dataset(sf=sf, records=records, skeletons=skeletons)

    return make(1.0, 0.00433), make(8.0, 0.00434)


class TestFeatureSets:
    def test_f0_is_all_features(self):
        assert exp_importance.FEATURE_SETS["F0"] == list(range(19))

    def test_f1_top6(self):
        assert len(exp_importance.FEATURE_SETS["F1"]) == 6

    def test_f2_is_input_size_features(self):
        names = [FEATURE_NAMES[i] for i in exp_importance.FEATURE_SETS["F2"]]
        assert set(names) == {"input_bytes", "rows_processed"}

    def test_f3_is_f1_minus_f2(self):
        f1 = set(exp_importance.FEATURE_SETS["F1"])
        f2 = set(exp_importance.FEATURE_SETS["F2"])
        assert set(exp_importance.FEATURE_SETS["F3"]) == f1 - f2


class TestImportance:
    def test_input_size_features_dominate(self, mini_pair):
        """Fig 15: input bytes / rows processed rank on top (by design of
        the mini workload, where they are the only informative features)."""
        ds, _ = mini_pair
        scores = exp_importance.importance_scores(ds)
        top_name, _ = exp_importance.top_features(scores, 1)[0]
        assert top_name in {"input_bytes", "rows_processed"}
        # the two collinear size features carry essentially all the signal
        size_score = scores["input_bytes"] + scores["rows_processed"]
        assert size_score >= 0.9 * sum(scores.values())

    def test_ablation_structure(self, mini_pair):
        ds, _ = mini_pair
        ab = exp_importance.ablation(ds)
        assert set(ab) == {"AE_PL", "AE_AL"}
        for fam in ab.values():
            assert set(fam) == {"F0", "F1", "F2", "F3"}
            for errs in fam.values():
                assert all(v >= 0 for v in errs.values())

    def test_ablation_f3_worse_than_f2_here(self, mini_pair):
        """Dropping the informative features (F3 keeps only plan shape)
        must hurt on a workload driven purely by input size."""
        ds, _ = mini_pair
        ab = exp_importance.ablation(ds)
        assert ab["AE_PL"]["F3"][8] >= ab["AE_PL"]["F2"][8] * 0.8


class TestScaleFactor:
    def test_cross_sf_structure(self, mini_pair):
        small, big = mini_pair
        res = exp_scalefactor.cross_sf_errors(small, big)
        assert set(res) == {"AE_PL", "AE_AL", "S_test", "S_train"}

    def test_wrong_sf_sparklens_is_much_worse(self, mini_pair):
        """§5.5: Sparklens cannot account for the data-size change."""
        small, big = mini_pair
        res = exp_scalefactor.cross_sf_errors(small, big)
        assert res["S_train"][1] > 2 * res["S_test"][1]

    def test_model_uses_size_features_to_adapt(self, mini_pair):
        small, big = mini_pair
        res = exp_scalefactor.cross_sf_errors(small, big)
        assert res["AE_PL"][48] < res["S_train"][1]
