"""Experiment: generalisation across input data sizes (Fig 14, §5.5).

Train the parameter model on *all* queries of one scale factor, test on
all queries of the other. Since the Table-2 features include the input
bytes/rows, the model can adjust predictions for the new data size —
whereas a Sparklens estimate obtained at the training SF knows nothing
about the change (the paper's S_10 vs S_100 comparison).
"""
from __future__ import annotations

from repro.core import ppm as ppm_mod
from repro.core.parameter_model import fit_ppm_targets
from repro.core.training import N_GRID, grid_errors
from repro.experiments.common import Dataset
from repro.ml.forest import RandomForestRegressor


def cross_sf_errors(train_ds: Dataset, test_ds: Dataset) -> dict[str, dict[int, float]]:
    """E(n) on ``test_ds`` actuals for AE_PL/AE_AL trained on ``train_ds``,
    plus Sparklens references from both scale factors.
    """
    out: dict[str, dict[int, float]] = {}
    actual = {r.name: r.actual_times for r in test_ds.records}
    for family in ("AE_PL", "AE_AL"):
        forest = RandomForestRegressor(random_state=0).fit(
            [r.features for r in train_ds.records],
            fit_ppm_targets(family, [r.to_example() for r in train_ds.records]),
        )
        params = forest.predict([r.features for r in test_ds.records])
        out[family] = grid_errors(
            actual,
            {
                r.name: ppm_mod.from_params(family, p).times(N_GRID)
                for r, p in zip(test_ds.records, params)
            },
        )
    # Sparklens references: estimates from the test SF's own runs, and the
    # *training* SF's runs applied to the test SF's actual times.
    by_name_train = {r.name: r for r in train_ds.records}
    out["S_test"] = grid_errors(actual, {r.name: r.sparklens_times for r in test_ds.records})
    out["S_train"] = grid_errors(
        actual, {r.name: by_name_train[r.name].sparklens_times for r in test_ds.records}
    )
    return out


def format_report(ds10: Dataset, ds100: Dataset) -> str:
    lines = []
    for train, test, tag in ((ds100, ds10, "test SF=10, train SF=100"),
                             (ds10, ds100, "test SF=100, train SF=10")):
        res = cross_sf_errors(train, test)
        lines.append(f"== Fig 14: {tag} ==")
        lines.append("series   " + "  ".join(f"{n:>6}" for n in N_GRID))
        for series in ("S_test", "S_train", "AE_PL", "AE_AL"):
            lines.append(
                f"{series:<8} " + "  ".join(f"{res[series][n]:6.3f}" for n in N_GRID)
            )
        lines.append("")
    return "\n".join(lines)
