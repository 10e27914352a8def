"""Experiment: time-prediction accuracy (Fig 4, Fig 8, Fig 9; §3.2, §5.2).

- :func:`fit_to_sparklens` — Fig 4: how well AE_PL / AE_AL fit the
  Sparklens-estimated PPM over all queries, per executor count.
- :func:`example_curves` — Fig 8: actual vs Sparklens vs predicted
  curves for one held-out query.
- :func:`cv_errors` — Fig 9: E(n) (Eq. 6) for train (fit) and test
  (prediction) datasets of the 10×5-fold CV, plus raw Sparklens errors.
"""
from __future__ import annotations

import numpy as np

from repro.core.parameter_model import fit_ppm
from repro.core.training import N_GRID, error_by_n, grid_errors, sparklens_error_by_n
from repro.experiments.common import Dataset

#: the held-out query of Fig 8, our analogue of TPC-DS q94
FIG8_QUERY = "t7_ss_star_2000"


def fit_to_sparklens(ds: Dataset) -> dict[str, dict[int, float]]:
    """Fig 4: E(n) of each PPM family *against Sparklens estimates*."""
    sparklens = {r.name: r.sparklens_times for r in ds.records}
    return {
        family: grid_errors(
            sparklens, {q: fit_ppm(family, t).times(N_GRID) for q, t in sparklens.items()}
        )
        for family in ("AE_PL", "AE_AL")
    }


def example_curves(ds: Dataset, query: str) -> dict[str, dict[int, float]]:
    """Fig 8: Actual, Sparklens, and predicted series for one query.

    Predictions come from CV folds where ``query`` was in the *test* set
    (averaged over repeats), so the example is honestly held out.
    """
    rec = next(r for r in ds.records if r.name == query)
    series = {
        "Actual": {n: rec.actual_times[n] for n in N_GRID},
        "S": {n: rec.sparklens_times[n] for n in N_GRID},
    }
    for family in ("AE_PL", "AE_AL"):
        folds = ds.cv(family)
        preds = [fr.predicted[query] for fr in folds if query in fr.predicted]
        series[family] = {
            n: float(np.mean([p.time(n) for p in preds])) for n in N_GRID
        }
    return series


def cv_errors(ds: Dataset) -> dict:
    """Fig 9: mean±std E(n) per family for train (fit) and test datasets."""
    out: dict = {"S": sparklens_error_by_n(ds.records)}
    for family in ("AE_PL", "AE_AL"):
        frs = ds.cv(family)
        out[family] = {
            "train": error_by_n(ds.records, frs, on_train=True),
            "test": error_by_n(ds.records, frs, on_train=False),
        }
    return out


def format_report(ds: Dataset) -> str:
    """Paper-style text tables for Figures 4 and 9, then the Fig 8 series."""
    lines = ["== Fig 4: PPM fit error vs Sparklens estimates =="]
    fits = fit_to_sparklens(ds)
    lines.append("n      " + "  ".join(f"{n:>6}" for n in N_GRID))
    for fam, err in fits.items():
        lines.append(
            f"{fam:<6} " + "  ".join(f"{err[n]:6.3f}" for n in N_GRID)
        )
    res = cv_errors(ds)
    lines.append("")
    lines.append("== Fig 9: E(n) from 10-repeated 5-fold CV ==")
    lines.append("series           " + "  ".join(f"{n:>6}" for n in N_GRID))
    lines.append(
        "S (estimates)    " + "  ".join(f"{res['S'][n]:6.3f}" for n in N_GRID)
    )
    for fam in ("AE_PL", "AE_AL"):
        for split in ("train", "test"):
            vals = res[fam][split]
            lines.append(
                f"{fam} {split:<10} "
                + "  ".join(f"{vals[n][0]:6.3f}" for n in N_GRID)
            )
    lines.append("")
    lines.append(f"== Fig 8: series for {FIG8_QUERY} (q94 analogue) ==")
    for series, times in example_curves(ds, FIG8_QUERY).items():
        lines.append(f"{series:<7} {({n: round(t, 1) for n, t in times.items()})}")
    return "\n".join(lines)
