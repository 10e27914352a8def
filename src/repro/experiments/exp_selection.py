"""Experiment: configuration selection (Fig 10, Fig 11; §5.3).

Each model series chooses n̂ from a fold's predicted PPM through the
rule's own :func:`~repro.core.autoexecutor.decide`; the Actual and
Sparklens series are curves of times, read by the same selections.

- :func:`limited_slowdown_table` — for each slowdown threshold H, the
  average selected n and the *actual* slowdown realised by running at the
  selected n (actual times piecewise-linearly interpolated to [1, 48]).
- :func:`static_speedups` — speedup of the H=1 selections over static
  n ∈ {2, 3, 8} defaults (§2.2 / §5.3 text).
- :func:`elbow_distribution` — Fig 11: distribution of elbow points L
  for Actual, Sparklens, AE_PL, AE_AL.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.autoexecutor import decide
from repro.core.selection import elbow_point, interpolate_times, limited_slowdown
from repro.experiments.common import Dataset

H_VALUES = (1.0, 1.05, 1.1, 1.2, 1.5, 2.0)


def _actual_interp(ds: Dataset) -> dict[str, dict[int, float]]:
    return {r.name: interpolate_times(r.actual_times) for r in ds.records}


def limited_slowdown_table(ds: Dataset) -> dict[str, dict[float, dict[str, float]]]:
    """Selection impact per series and H: mean selected n, mean realised
    slowdown, each averaged per fold then over folds (±std over repeats).
    """
    actual = _actual_interp(ds)
    sl = {r.name: r.sparklens_times for r in ds.records}
    folds = {f: ds.cv(f) for f in ("AE_PL", "AE_AL")}
    out: dict[str, dict[float, dict[str, float]]] = {}

    def realised(q: str, n_sel: int) -> float:
        t = actual[q]
        return t[n_sel] / min(t.values())

    # oracle + sparklens: one selection per query (no CV), every fold equal
    for series, times_by_q in (("Actual", actual), ("S", sl)):
        out[series] = {}
        for h in H_VALUES:
            sels = {q: limited_slowdown(times_by_q[q], h) for q in times_by_q}
            slow = [realised(q, n) for q, n in sels.items()]
            out[series][h] = {
                "n_mean": float(np.mean(list(sels.values()))),
                "slowdown_mean": float(np.mean(slow)),
                "n_std": 0.0,
                "slowdown_std": 0.0,
            }

    for family in ("AE_PL", "AE_AL"):
        out[family] = {}
        for h in H_VALUES:
            per_fold_n, per_fold_slow = [], []
            for fr in folds[family]:
                sels = {q: decide(m, ("slowdown", h)).n_selected for q, m in fr.predicted.items()}
                per_fold_n.append(np.mean(list(sels.values())))
                per_fold_slow.append(np.mean([realised(q, n) for q, n in sels.items()]))
            out[family][h] = {
                "n_mean": float(np.mean(per_fold_n)),
                "n_std": float(np.std(per_fold_n)),
                "slowdown_mean": float(np.mean(per_fold_slow)),
                "slowdown_std": float(np.std(per_fold_slow)),
            }
    return out


def static_speedups(ds: Dataset) -> dict[int, float]:
    """Average speedup of AE_PL's H=1 selections over static n ∈ {2, 3, 8}."""
    actual = _actual_interp(ds)
    speedups: dict[int, list[float]] = {2: [], 3: [], 8: []}
    for fr in ds.cv("AE_PL"):
        for q, m in fr.predicted.items():
            n_sel = decide(m, ("slowdown", 1.0)).n_selected
            t_sel = actual[q][n_sel]
            for n_static in speedups:
                speedups[n_static].append(actual[q][n_static] / t_sel)
    return {n: float(np.mean(v)) for n, v in speedups.items()}


def elbow_distribution(ds: Dataset) -> dict[str, Counter]:
    """Fig 11: histogram of elbow points L per series.

    For the model series, each query's L is computed per CV fold where
    the query was held out, then rounded mean over repeats (as the paper
    averages over the 10 repeats).
    """
    actual = _actual_interp(ds)
    sl = {r.name: r.sparklens_times for r in ds.records}
    out: dict[str, Counter] = {
        "Actual": Counter(elbow_point(actual[q]) for q in actual),
        "S": Counter(elbow_point(sl[q]) for q in sl),
    }
    for family in ("AE_PL", "AE_AL"):
        folds = ds.cv(family)
        per_query: dict[str, list[int]] = {}
        for fr in folds:
            for q, m in fr.predicted.items():
                per_query.setdefault(q, []).append(decide(m, ("elbow",)).n_selected)
        out[family] = Counter(
            int(round(np.mean(v))) for v in per_query.values()
        )
    return out


def format_report(ds: Dataset) -> str:
    lines = ["== Fig 10 / §5.3: limited-slowdown selection =="]
    table = limited_slowdown_table(ds)
    lines.append(f"{'series':<8}" + "".join(f"  H={h:<12}" for h in H_VALUES))
    for series in ("Actual", "S", "AE_PL", "AE_AL"):
        row = [f"{series:<8}"]
        for h in H_VALUES:
            c = table[series][h]
            row.append(f"  n={c['n_mean']:5.1f} s={c['slowdown_mean']:4.2f}")
        lines.append("".join(row))
    lines.append("")
    sp = static_speedups(ds)
    lines.append(
        "== §5.3: speedup of H=1 selections over static n (AE_PL) ==\n"
        + "  ".join(f"n={n}: {v:.2f}x" for n, v in sorted(sp.items()))
    )
    lines.append("")
    lines.append("== Fig 11: elbow point distribution ==")
    dist = elbow_distribution(ds)
    for series, counter in dist.items():
        desc = ", ".join(f"L={l}:{c}" for l, c in sorted(counter.items()))
        lines.append(f"{series:<8} {desc}")
    return "\n".join(lines)
