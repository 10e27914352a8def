"""Experiment: predictive vs static vs dynamic allocation (Fig 12/13, §5.4).

For every query, run the cluster simulator under three policies:

- ``DA(1,48)`` — Spark dynamic allocation restricted to [1, 48];
- ``SA(48)`` — static allocation of the full pool;
- ``Rule(n̂)`` — AutoExecutor: n̂ chosen by the rule's own
  :func:`~repro.core.autoexecutor.decide` (H=1.05 limited slowdown) on
  AE_PL's PPM predicted by one set of 5-fold CV experiments (each
  query's PPM comes from the fold where it was held out).

Reported per query and on average: ratios of max executors n, AUC
(executor occupancy), and run time t, DA/Rule and SA/Rule — the paper's
headline being 48 % AUC saved vs DA and 73 % vs SA with <5 % and ~16 %
slowdown respectively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.allocation import (
    RULE_INITIAL_N,
    DynamicAllocation,
    PredictiveRule,
    StaticAllocation,
)
from repro.cluster.simulator import RunResult, simulate
from repro.core.autoexecutor import DEFAULT_STRATEGY, Prediction, decide
from repro.experiments.common import Q94_ANALOGUE, Dataset, stable_seed


def rule_predictions(ds: Dataset) -> dict[str, Prediction]:
    """query → the rule's decision on its AE_PL PPM predicted by the CV
    folds of the first repeat (held-out)."""
    return {
        q: decide(m, query=q)
        for fr in ds.cv("AE_PL")
        if fr.repeat == 0
        for q, m in fr.predicted.items()
    }


@dataclass
class PolicyComparison:
    """Per-query metrics for the three §5.4 policies."""

    query: str
    prediction: Prediction
    da: RunResult
    sa48: RunResult
    rule: RunResult
    fully_allocated: bool  # ran long enough for Rule's request to complete


def compare_policies(ds: Dataset) -> list[PolicyComparison]:
    preds = rule_predictions(ds)
    out = []
    for rec in ds.records:
        graph = ds.graph(rec.name)
        pred = preds[rec.name]
        da = simulate(
            graph, DynamicAllocation(1, 48), seed=stable_seed(rec.name, "da")
        )
        sa = simulate(
            graph, StaticAllocation(48), seed=stable_seed(rec.name, "sa48")
        )
        rule = simulate(
            graph,
            PredictiveRule(n_predicted=pred.n_selected),
            seed=stable_seed(rec.name, "rule"),
        )
        out.append(
            PolicyComparison(
                query=rec.name,
                prediction=pred,
                da=da,
                sa48=sa,
                rule=rule,
                fully_allocated=rule.max_executors >= max(pred.n_selected, RULE_INITIAL_N),
            )
        )
    return out


def summarize(comps: list[PolicyComparison]) -> dict[str, float]:
    """The §5.4 aggregate numbers."""

    def ratios(metric):
        da = [metric(c.da) / metric(c.rule) for c in comps]
        sa = [metric(c.sa48) / metric(c.rule) for c in comps]
        return float(np.mean(da)), float(np.mean(sa))

    n_da, n_sa = ratios(lambda r: max(r.max_executors, 1))
    auc_da, auc_sa = ratios(lambda r: max(r.auc, 1e-9))
    t_da = [c.da.elapsed / c.rule.elapsed for c in comps]
    t_sa = [c.sa48.elapsed / c.rule.elapsed for c in comps]
    total_auc = {
        "rule": sum(c.rule.auc for c in comps),
        "da": sum(c.da.auc for c in comps),
        "sa48": sum(c.sa48.auc for c in comps),
    }
    return {
        "n_ratio_da": n_da,
        "n_ratio_sa48": n_sa,
        "auc_ratio_da": auc_da,
        "auc_ratio_sa48": auc_sa,
        "speedup_vs_da": float(np.mean(t_da)),
        "speedup_vs_sa48": float(np.mean(t_sa)),
        "auc_saved_vs_da_pct": 100.0 * (1 - total_auc["rule"] / total_auc["da"]),
        "auc_saved_vs_sa48_pct": 100.0 * (1 - total_auc["rule"] / total_auc["sa48"]),
        "slowdown_vs_da_pct": 100.0 * (np.mean([1 / x for x in t_da]) - 1),
        "slowdown_vs_sa48_pct": 100.0 * (np.mean([1 / x for x in t_sa]) - 1),
        "fully_allocated": sum(c.fully_allocated for c in comps),
        "queries": len(comps),
    }


def skyline_example(ds: Dataset, comp: PolicyComparison) -> list[RunResult]:
    """Fig 12: one query's §5.4 runs of DA(1,48) and SA(48), a static run
    at the rule's n̂, SA(n̂), and its Rule(n̂) run, in that order; four runs
    even when n̂ = 48 and two of them are named SA(48)."""
    san = simulate(
        ds.graph(comp.query),
        StaticAllocation(comp.prediction.n_selected),
        seed=stable_seed(comp.query, "f12san"),
    )
    return [comp.da, comp.sa48, san, comp.rule]


def format_report(ds: Dataset) -> str:
    comps = compare_policies(ds)
    s = summarize(comps)
    lines = [
        f"== Fig 13 / §5.4: DA(1,48) and SA(48) vs Rule (AE_PL, H={DEFAULT_STRATEGY[1]}) ==",
        f"avg n ratio:    DA/Rule={s['n_ratio_da']:.1f}  SA48/Rule={s['n_ratio_sa48']:.1f}",
        f"avg AUC ratio:  DA/Rule={s['auc_ratio_da']:.1f}  SA48/Rule={s['auc_ratio_sa48']:.1f}",
        f"AUC saved:      vs DA={s['auc_saved_vs_da_pct']:.0f}%  vs SA48={s['auc_saved_vs_sa48_pct']:.0f}%",
        f"Rule slowdown:  vs DA={s['slowdown_vs_da_pct']:.0f}%  vs SA48={s['slowdown_vs_sa48_pct']:.0f}%",
        f"fully-allocated queries: {s['fully_allocated']}/{s['queries']}",
        "",
        f"== Fig 12: example skylines ({Q94_ANALOGUE}, q94 analogue) ==",
    ]
    comp = next(c for c in comps if c.query == Q94_ANALOGUE)
    for r in skyline_example(ds, comp):
        lines.append(f"{r.policy:<10} t={r.elapsed:6.0f}s  max_n={r.max_executors:>2}  AUC={r.auc:7.0f}")
    return "\n".join(lines)
