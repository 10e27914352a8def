"""Experiment: the motivating price-perf trade-off (Fig 1, Fig 3c; §1, §2.4).

- :func:`tradeoff_curve` — Fig 1: t(n) and AUC over the executor grid,
  read off one query's ground truth (the paper uses TPC-DS query 94;
  ours is :data:`~repro.experiments.common.Q94_ANALOGUE`).
- :func:`optimal_executor_distribution` — Fig 3c: distribution of the
  optimal executor count (smallest n within the run-to-run-variance band
  of the minimum time) across all queries, per scale factor.
"""
from __future__ import annotations

from collections import Counter

from repro.core.selection import limited_slowdown
from repro.experiments.common import Q94_ANALOGUE, Dataset

#: the optimum's band over t_min: it absorbs run-to-run variance (§5.1
#: reports 4–7 % CoV), as a practitioner reads "the optimum" off a noisy curve
OPTIMUM_TOLERANCE = 1.05


def tradeoff_curve(ds: Dataset, query: str = Q94_ANALOGUE) -> dict[int, dict[str, float]]:
    """n → {t, auc}: the query's ground-truth t(n) and AUC = n·t(n). A
    static allocation's n executors all arrive at t=0 and none leaves, so
    each run's AUC is exactly n times its run time."""
    rec = next(r for r in ds.records if r.name == query)
    return {n: {"t": t, "auc": n * t} for n, t in sorted(rec.actual_times.items())}


def optimal_executor_counts(ds: Dataset) -> dict[str, int]:
    """query → smallest grid n with t(n) ≤ :data:`OPTIMUM_TOLERANCE` × t_min."""
    return {r.name: limited_slowdown(r.actual_times, OPTIMUM_TOLERANCE) for r in ds.records}


def optimal_executor_distribution(ds: Dataset) -> Counter:
    return Counter(optimal_executor_counts(ds).values())


def format_report(ds10: Dataset, ds100: Dataset) -> str:
    lines = ["== Fig 1: t(n) and AUC for the q94 analogue (SF=100) =="]
    for n, m in tradeoff_curve(ds100).items():
        lines.append(f"  n={n:>2}: t={m['t']:7.1f}s  AUC={m['auc']:8.0f} executor-s")
    lines.append("")
    lines.append("== Fig 3c: optimal executor count distribution ==")
    for tag, ds in (("SF=10", ds10), ("SF=100", ds100)):
        dist = optimal_executor_distribution(ds)
        desc = ", ".join(f"n={n}:{c}" for n, c in sorted(dist.items()))
        lines.append(f"  {tag:<7} {desc}")
    return "\n".join(lines)
