"""Experiment: feature importance + ablation (Fig 15, §5.7).

- :func:`importance_scores` — permutation importance of each Table-2
  feature for the parameter models on held-out CV folds, summed over
  AE_PL + AE_AL as the paper ranks them.
- :func:`ablation` — E(n) for the reduced feature sets:
  F0 = all features, F1 = top-6, F2 = top-2 (input-size features),
  F3 = F1 − F2 (the four plan features).

Cost deviation from the paper: the paper permutes 100× over all 50 CV
folds (5000 scores/feature); to keep the job within minutes with the
single-process numpy forest, this repo uses 20 permutations over the
folds of 3 repeats by default — the ranking is stable well before that.
"""
from __future__ import annotations

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.parameter_model import fit_ppm_targets
from repro.core.training import error_by_n, run_cross_validation
from repro.experiments.common import Dataset
from repro.ml.permutation_importance import permutation_importance

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


def importance_scores(
    ds: Dataset,
    *,
    repeats: int = 3,
    folds: int = 5,
    n_repeats: int = 20,
) -> dict[str, float]:
    """feature → summed (AE_PL + AE_AL) mean permutation importance.

    Scores use the held-out fold queries: X = their features, y = the
    PPM parameters fit on their own Sparklens estimates (the targets the
    forest was trained to predict). Importances are normalised per model
    so both families contribute comparably to the sum.
    """
    totals = np.zeros(len(FEATURE_NAMES))
    for family in ("AE_PL", "AE_AL"):
        frs = ds.cv(family, repeats=repeats, folds=folds, keep_models=True)
        acc = np.zeros(len(FEATURE_NAMES))
        by_name = {r.name: r for r in ds.records}
        for k, fr in enumerate(frs):
            test = [by_name[q] for q in fr.test_queries]
            X = np.asarray([r.features for r in test], dtype=float)
            y = fit_ppm_targets(family, [r.to_example() for r in test])
            res = permutation_importance(
                fr.model.forest, X, y, n_repeats=n_repeats, random_state=k
            )
            acc += res["importances_mean"]
        acc /= len(frs)
        if acc.max() > 0:
            acc = acc / acc.max()  # normalise so families are comparable
        totals += acc
    return dict(zip(FEATURE_NAMES, totals.tolist()))


def top_features(scores: dict[str, float], k: int = 10) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda kv: -kv[1])[:k]


def ablation(
    ds: Dataset, *, repeats: int = 3, folds: int = 5
) -> dict[str, dict[str, dict[int, float]]]:
    """E(n) per feature set per family (§5.7's F0–F3 study).

    F0 is the dataset's all-feature CV, the one :func:`importance_scores`
    reads models from.
    """
    out: dict[str, dict[str, dict[int, float]]] = {}
    for family in ("AE_PL", "AE_AL"):
        out[family] = {}
        for fs_name, mask in FEATURE_SETS.items():
            if fs_name == "F0":
                frs = ds.cv(family, repeats=repeats, folds=folds)
            else:
                frs = run_cross_validation(
                    ds.records, family=family, repeats=repeats, folds=folds, feature_mask=mask
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
