"""Experiment: impact of total cores k = n·e_c (Table 1, Fig 5; §3.3).

Runs every query at the paper's Table-1 configurations (cores/executor
e_c ∈ {2,4,6,8} with the listed executor counts), then measures how well
run time is explained by the total core count alone: for each config
with e_c ≠ 4, the estimate is linear interpolation of the e_c = 4 series
at the same k, and the relative error is 1 − t(e_c≠4)/t̂(e_c=4).

Paper headline (Fig 5c): mean |relative error| ≈ 8.8 %, 68.4 % of
points within ±10 %, 92.9 % within ±20 %.
"""
from __future__ import annotations

import numpy as np

from repro.cluster.allocation import StaticAllocation
from repro.cluster.simulator import simulate
from repro.core.selection import DEFAULT_EC
from repro.experiments.common import Dataset, iqr_mean, stable_seed

#: Table 1 — (e_c, n) with k = n * e_c
TABLE1_CONFIGS: tuple[tuple[int, int], ...] = (
    (2, 3), (2, 16),
    (4, 1), (4, 3), (4, 4), (4, 8), (4, 16), (4, 32), (4, 48),
    (6, 3), (6, 16),
    (8, 3), (8, 16),
)


def run_config_grid(
    ds: Dataset, *, runs: int = 3
) -> dict[str, dict[tuple[int, int], float]]:
    """query → {(e_c, n): averaged t} over all Table-1 configs."""
    out: dict[str, dict[tuple[int, int], float]] = {}
    for rec in ds.records:
        graph = ds.graph(rec.name)
        times: dict[tuple[int, int], float] = {}
        for e_c, n in TABLE1_CONFIGS:
            ts = [
                simulate(
                    graph,
                    StaticAllocation(n),
                    e_c=e_c,
                    seed=stable_seed(rec.name, e_c, n, r, "t1"),
                ).elapsed
                for r in range(runs)
            ]
            times[(e_c, n)] = iqr_mean(ts)
        out[rec.name] = times
    return out


def relative_errors(times_by_query: dict[str, dict[tuple[int, int], float]]) -> list[float]:
    """Fig 5c: per-(query, non-default-config) relative errors in percent."""
    errors = []
    for times in times_by_query.values():
        base = sorted(
            (e_c * n, t) for (e_c, n), t in times.items() if e_c == DEFAULT_EC
        )
        ks = [k for k, _ in base]
        ts = [t for _, t in base]
        for (e_c, n), t in times.items():
            if e_c == DEFAULT_EC:
                continue
            k = e_c * n
            t_hat = float(np.interp(k, ks, ts))
            errors.append(100.0 * (1.0 - t / t_hat))
    return errors


def summarize(errors: list[float]) -> dict[str, float]:
    e = np.asarray(errors)
    return {
        "points": len(e),
        "mean_abs_pct": float(np.mean(np.abs(e))),
        "within_10_pct": float(np.mean(np.abs(e) <= 10) * 100),
        "within_20_pct": float(np.mean(np.abs(e) <= 20) * 100),
    }


def format_report(ds: Dataset) -> str:
    grid = run_config_grid(ds)
    errs = relative_errors(grid)
    s = summarize(errs)
    lines = [
        "== Table 1 / Fig 5c: k = n*e_c as the PPM resource axis ==",
        f"points (6 non-default configs x {len(grid)} queries): {s['points']}",
        f"mean |relative error|: {s['mean_abs_pct']:.1f}%  (paper: 8.8%)",
        f"within +-10%: {s['within_10_pct']:.1f}%  (paper: 68.4%)",
        f"within +-20%: {s['within_20_pct']:.1f}%  (paper: 92.9%)",
    ]
    # Fig 5a/b analogue: one example query's series
    q = ds.records[0].name
    lines.append(f"\nexample query {q}: t by (e_c, n):")
    for (e_c, n), t in sorted(grid[q].items()):
        lines.append(f"  e_c={e_c} n={n:>2} k={e_c*n:>3}: t={t:7.1f}s")
    return "\n".join(lines)
