"""Experiment: feature importance + ablation (Fig 15, §5.7).

- :func:`importance_scores` — permutation importance of each Table-2
  feature for the parameter models on held-out CV folds, summed over
  AE_PL + AE_AL as the paper ranks them.
- :func:`ablation` — E(n) for the reduced feature sets:
  F0 = all features, F1 = top-6, F2 = top-2 (input-size features),
  F3 = F1 − F2 (the four plan features).

Both read the first 3 repeats of the shared 10×5 CV (:meth:`Dataset.cv`):
the importances permute features on its forests, and F0 is its E(n);
F1–F3 run 3×5 CVs on their own features. Cost deviation from the paper:
the paper permutes 100× over all 50 CV folds (5000 scores/feature); to
keep the job within minutes with the single-process numpy forest, this
repo uses 20 permutations over the first 3 repeats of the shared 10×5 CV
— the ranking is stable well before that.
"""
from __future__ import annotations

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.parameter_model import fit_ppm_targets
from repro.core.training import FoldResult, error_by_n, run_cross_validation
from repro.experiments.common import Dataset
from repro.ml.permutation_importance import permutation_importance

#: §5.7 uses the first this many repeats of each CV (the paper: all 10)
CV_REPEATS = 3
#: permutations of each feature per fold (the paper: 100)
N_PERMUTATIONS = 20

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


def _shared_folds(ds: Dataset, family: str) -> list[FoldResult]:
    """The first :data:`CV_REPEATS` repeats of the dataset's 10×5 CV."""
    return [fr for fr in ds.cv(family) if fr.repeat < CV_REPEATS]


def importance_scores(ds: Dataset) -> dict[str, float]:
    """feature → summed (AE_PL + AE_AL) mean permutation importance.

    Scores use the held-out fold queries: X = their features, y = the
    PPM parameters fit on their own Sparklens estimates (the targets the
    forest was trained to predict). Importances are normalised per model
    so both families contribute comparably to the sum.
    """
    totals = np.zeros(len(FEATURE_NAMES))
    for family in ("AE_PL", "AE_AL"):
        frs = _shared_folds(ds, family)
        acc = np.zeros(len(FEATURE_NAMES))
        by_name = {r.name: r for r in ds.records}
        for k, fr in enumerate(frs):
            test = [by_name[q] for q in fr.test_queries]
            X = np.asarray([r.features for r in test], dtype=float)
            y = fit_ppm_targets(family, [r.to_example() for r in test])
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

    F0 reads the folds :func:`importance_scores` reads; F1–F3 run a
    :data:`CV_REPEATS`×5 CV on their features.
    """
    out: dict[str, dict[str, dict[int, float]]] = {}
    for family in ("AE_PL", "AE_AL"):
        out[family] = {}
        for fs_name, mask in FEATURE_SETS.items():
            if fs_name == "F0":
                frs = _shared_folds(ds, family)
            else:
                frs = run_cross_validation(
                    ds.records, family=family, repeats=CV_REPEATS, feature_mask=mask
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
