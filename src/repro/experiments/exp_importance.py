"""Experiment: feature importance + ablation (Fig 15, §5.7).

- :func:`importance_scores` — permutation importance of each Table-2
  feature for the parameter models on held-out CV folds, summed over
  AE_PL + AE_AL as the paper ranks them.
- :func:`ablation` — E(n) for the reduced feature sets:
  F0 = all features, F1 = top-6, F2 = top-2 (input-size features),
  F3 = F1 − F2 (the four plan features).

Both read the shared 10×5 CV (:meth:`Dataset.cv`), as the paper does:
the importances permute each feature 100 times on every fold's forest,
and F0 is that CV's E(n); F1–F3 run 10×5 CVs on their own features.
"""
from __future__ import annotations

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.parameter_model import fit_ppm_targets
from repro.core.training import error_by_n, run_cross_validation
from repro.experiments.common import Dataset
from repro.ml.permutation_importance import permutation_importance

#: permutations of each feature per fold, as in the paper
N_PERMUTATIONS = 100

#: Fig 15's top features, expressed in this repo's feature names
TOP6 = ("input_bytes", "rows_processed", "max_depth", "num_operators", "num_project", "num_filter")
TOP2 = ("input_bytes", "rows_processed")


def _mask(names) -> list[int]:
    return [FEATURE_NAMES.index(n) for n in names]


FEATURE_SETS = {
    "F0": list(range(len(FEATURE_NAMES))),
    "F1": _mask(TOP6),
    "F2": _mask(TOP2),
    "F3": [i for i in _mask(TOP6) if i not in _mask(TOP2)],
}


def importance_scores(ds: Dataset) -> dict[str, float]:
    """feature → summed (AE_PL + AE_AL) mean permutation importance.

    Scores use the held-out fold queries: X = their features, y = the
    PPM parameters fit on their own Sparklens estimates (the targets the
    forest was trained to predict). Importances are normalised per model
    so both families contribute comparably to the sum.
    """
    totals = np.zeros(len(FEATURE_NAMES))
    row = {r.name: i for i, r in enumerate(ds.records)}
    X_all = np.asarray([r.features for r in ds.records], dtype=float)
    for family in ("AE_PL", "AE_AL"):
        frs = ds.cv(family)
        acc = np.zeros(len(FEATURE_NAMES))
        # one PPM fit per query and family, as in ``run_cross_validation``
        y_all = fit_ppm_targets(family, [r.to_example() for r in ds.records])
        for k, fr in enumerate(frs):
            test = [row[q] for q in fr.test_queries]
            X, y = X_all[test], y_all[test]
            res = permutation_importance(
                fr.model, X, y, n_repeats=N_PERMUTATIONS, random_state=k
            )
            acc += res["importances_mean"]
        acc /= len(frs)
        if acc.max() > 0:
            acc = acc / acc.max()  # normalise so families are comparable
        totals += acc
    return dict(zip(FEATURE_NAMES, totals.tolist()))


def top_features(scores: dict[str, float], k: int = 10) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda kv: -kv[1])[:k]


def ablation(ds: Dataset) -> dict[str, dict[str, dict[int, float]]]:
    """E(n) per feature set per family (§5.7's F0–F3 study).

    F0 is the E(n) of the shared CV (Fig 9's test series); F1–F3 run a
    10×5 CV on their features.
    """
    out: dict[str, dict[str, dict[int, float]]] = {}
    for family in ("AE_PL", "AE_AL"):
        out[family] = {}
        for fs_name, mask in FEATURE_SETS.items():
            frs = (
                ds.cv(family)
                if fs_name == "F0"
                else run_cross_validation(ds.records, family=family, feature_mask=mask)
            )
            errs = error_by_n(ds.records, frs)
            out[family][fs_name] = {n: mu for n, (mu, _) in errs.items()}
    return out


def format_report(ds: Dataset) -> str:
    scores = importance_scores(ds)
    lines = ["== Fig 15: top-10 features by permutation importance (AE_PL + AE_AL) =="]
    for name, score in top_features(scores):
        lines.append(f"  {name:<16} {score:6.3f}")
    ab = ablation(ds)
    lines.append("")
    lines.append("== §5.7 ablation: E(8) per feature set ==")
    for family in ("AE_PL", "AE_AL"):
        row = "  ".join(f"{fs}={ab[family][fs][8]:.2f}" for fs in FEATURE_SETS)
        lines.append(f"  {family}: {row}")
    return "\n".join(lines)
