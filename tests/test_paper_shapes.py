"""Paper-shape checks on the committed sf=0.1 dataset snapshot.

The snapshot (``perfbench/data/dataset_sf0.1.json``) holds the plan
skeletons of all 103 queries; the dataset is derived from them, so these
run without Spark.
"""
import pytest

from repro.cluster.allocation import DynamicAllocation, PredictiveRule, StaticAllocation
from repro.cluster.simulator import simulate
from repro.core.features import FEATURE_NAMES
from repro.core.parameter_model import fit_ppm_targets
from repro.core.ppm import PowerLawPPM, from_params
from repro.core.selection import elbow_point, interpolate_times, limited_slowdown
from repro.core.training import sparklens_error_by_n
from repro.experiments import common, exp_core_impact
from repro.ml.forest import RandomForestRegressor
from repro.ml.portable import save_model
from tests.snapshot import snapshot_skeletons


@pytest.fixture(scope="module")
def ds() -> common.Dataset:
    ds = common.dataset_from_skeletons(0.1, snapshot_skeletons())
    assert len(ds.records) == 103
    return ds


def test_actual_elbow_is_8_for_every_query(ds):
    """Fig 11: the elbow of the actual curves sits at L = 8."""
    elbows = [elbow_point(interpolate_times(r.actual_times)) for r in ds.records]
    assert elbows == [8] * len(ds.records)


def test_limited_slowdown_n_nonincreasing_in_h(ds):
    """Fig 10: a looser slowdown bound never selects more executors."""
    for r in ds.records:
        t = interpolate_times(r.actual_times)
        ns = [limited_slowdown(t, h) for h in (1.0, 1.05, 1.1, 1.2, 1.5, 2.0)]
        assert ns == sorted(ns, reverse=True), r.name


def test_workload_auc_rule_below_da_below_sa(ds):
    """Fig 13: summed over the workload, AUC orders Rule < DA < SA."""
    total = {"da": 0.0, "sa": 0.0, "rule": 0.0}
    for r in ds.records:
        g = ds.graph(r.name)
        total["da"] += simulate(g, DynamicAllocation(1, 48), seed=1).auc
        total["sa"] += simulate(g, StaticAllocation(48), seed=1).auc
        total["rule"] += simulate(g, PredictiveRule(n_predicted=16), seed=1).auc
    assert total["rule"] < total["da"] < total["sa"]


def test_table1_grid_within_20_pct(ds):
    """Table 1: total cores k alone predicts t within ±20 % for most points."""
    grid = exp_core_impact.run_config_grid(ds, runs=1)
    s = exp_core_impact.summarize(exp_core_impact.relative_errors(grid))
    assert s["points"] == 6 * len(ds.records)
    assert s["mean_abs_pct"] < 20
    assert s["within_20_pct"] > 80


def test_sparklens_error_worst_at_small_n(ds):
    """Fig 9: the raw Sparklens estimates are furthest off at n = 1."""
    errs = sparklens_error_by_n(ds.records)
    assert errs[1] > errs[16]


def test_model_on_all_queries(ds, tmp_path):
    """§5.2/§5.6: every predicted curve is non-increasing, and the saved
    model is between 10 kB and 5 MB (the paper's ONNX file: ~1 MB)."""
    forest = RandomForestRegressor(random_state=0).fit(
        [r.features for r in ds.records],
        fit_ppm_targets("AE_PL", [r.to_example() for r in ds.records]),
    )
    params = forest.predict([r.features for r in ds.records])
    assert params.shape == (len(ds.records), 3)  # AE_PL has three parameters
    assert all(p.time(1) >= p.time(48) for p in (from_params("AE_PL", x) for x in params))
    size = save_model(
        str(tmp_path / "m.repromodel"),
        forest,
        feature_names=list(FEATURE_NAMES),
        target_names=list(PowerLawPPM.param_names),
    )
    assert 10_000 < size < 5_000_000
