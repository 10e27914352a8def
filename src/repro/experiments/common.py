"""Shared experiment infrastructure: dataset building + caching (§5.1).

``build_dataset`` reproduces the paper's data-collection procedure for
one scale factor:

1. materialize the TPC-DS-lite tables and compile all 103 queries
   through Catalyst and walk each optimized plan once into a skeleton,
   from which the Table-2 features are derived,
2. ground truth: simulate each query at n ∈ {1,3,8,16,32,48} several
   times, discard outliers outside ±1.5×IQR, average (§5.1),
3. Sparklens: one run at n=16, post-hoc estimates for all n ∈ [1,48].

Everything is cached as JSON under ``.cache/repro`` keyed by scale
factor and a dataset version (bump :data:`DATASET_VERSION` when the cost
model changes), so only the first build needs a SparkSession.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core.features import PlanNode, extract_skeleton, plan_features
from repro.core.selection import CANDIDATES
from repro.core.training import N_GRID, QueryRecord
from repro.cluster.allocation import StaticAllocation
from repro.cluster.simulator import simulate
from repro.cluster.sparklens import analyze
from repro.cluster.taskgraph import TaskGraph, build_task_graph
from repro.workloads.tpcds_lite import QUERIES, materialize

DATASET_VERSION = 3
DEFAULT_CACHE = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))), ".cache", "repro")

#: paper SF → our synthetic scale factor (DESIGN.md scale mapping)
SF_MAP = {10: 0.01, 100: 0.1}

RUNS_PER_N = 5


def stable_seed(*parts) -> int:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:4], "big")


def iqr_mean(values) -> float:
    """Mean after discarding points outside ±1.5×IQR (§5.1)."""
    v = np.asarray(values, dtype=float)
    q1, q3 = np.percentile(v, [25, 75])
    iqr = q3 - q1
    keep = v[(v >= q1 - 1.5 * iqr) & (v <= q3 + 1.5 * iqr)]
    return float(keep.mean()) if keep.size else float(v.mean())


def ground_truth_times(graph: TaskGraph, *, runs: int = RUNS_PER_N) -> dict[int, float]:
    """Averaged actual t(n) over repeated simulated runs on the n grid."""
    out = {}
    for n in N_GRID:
        ts = [
            simulate(graph, StaticAllocation(n), seed=stable_seed(graph.query, n, r, "gt")).elapsed
            for r in range(runs)
        ]
        out[int(n)] = iqr_mean(ts)
    return out


def sparklens_times(graph: TaskGraph) -> dict[int, float]:
    """Estimates for every candidate n from a single run at n=16 (§5.1)."""
    run16 = simulate(graph, StaticAllocation(16), seed=stable_seed(graph.query, 16, "sparklens"))
    return analyze(run16).estimates(CANDIDATES)


def _skeleton_to_json(node: PlanNode) -> dict:
    return {
        "name": node.name,
        "size": node.size_bytes,
        "width": node.width,
        "children": [_skeleton_to_json(c) for c in node.children],
    }


def _skeleton_from_json(d: dict) -> PlanNode:
    return PlanNode(
        name=d["name"],
        size_bytes=d["size"],
        width=d["width"],
        children=[_skeleton_from_json(c) for c in d["children"]],
    )


@dataclass
class Dataset:
    """All per-query artifacts for one scale factor."""

    sf: float
    records: list[QueryRecord]
    skeletons: dict[str, PlanNode]

    def graph(self, query: str) -> TaskGraph:
        return build_task_graph(query, self.skeletons[query])


def _cache_path(sf: float, cache_root: str) -> str:
    return os.path.join(cache_root, f"dataset_sf{sf}_v{DATASET_VERSION}.json")


def load_cached_dataset(sf: float, *, cache_root: str = DEFAULT_CACHE) -> Dataset | None:
    path = _cache_path(sf, cache_root)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    records = [
        QueryRecord(
            name=q["name"],
            features=q["features"],
            actual_times={int(k): v for k, v in q["actual"].items()},
            sparklens_times={int(k): v for k, v in q["sparklens"].items()},
        )
        for q in doc["queries"]
    ]
    skeletons = {
        q["name"]: _skeleton_from_json(q["skeleton"]) for q in doc["queries"]
    }
    return Dataset(sf=sf, records=records, skeletons=skeletons)


def build_dataset(
    spark,
    *,
    sf: float,
    cache_root: str = DEFAULT_CACHE,
    data_root: str | None = None,
    runs: int = RUNS_PER_N,
    force: bool = False,
) -> Dataset:
    """Build (or load from cache) the full per-query dataset for ``sf``."""
    if not force:
        cached = load_cached_dataset(sf, cache_root=cache_root)
        if cached is not None:
            return cached
    data_root = data_root or os.path.join(cache_root, "data")
    materialize(spark, sf=sf, root=data_root)
    queries_doc = []
    records: list[QueryRecord] = []
    skeletons: dict[str, PlanNode] = {}
    for q in QUERIES:
        skel = extract_skeleton(spark.sql(q.sql))
        feats = plan_features(skel).as_vector()
        graph = build_task_graph(q.name, skel)
        actual = ground_truth_times(graph, runs=runs)
        sl = sparklens_times(graph)
        records.append(
            QueryRecord(
                name=q.name,
                features=feats,
                actual_times=actual,
                sparklens_times=sl,
            )
        )
        skeletons[q.name] = skel
        queries_doc.append(
            {
                "name": q.name,
                "features": feats,
                "actual": {str(k): v for k, v in actual.items()},
                "sparklens": {str(k): v for k, v in sl.items()},
                "skeleton": _skeleton_to_json(skel),
            }
        )
    os.makedirs(cache_root, exist_ok=True)
    with open(_cache_path(sf, cache_root), "w") as f:
        json.dump({"sf": sf, "version": DATASET_VERSION, "queries": queries_doc}, f)
    return Dataset(sf=sf, records=records, skeletons=skeletons)


def dataset_for_paper_sf(spark, paper_sf: int, **kw) -> Dataset:
    """Dataset for a paper scale factor (10 or 100) via the SF mapping."""
    return build_dataset(spark, sf=SF_MAP[paper_sf], **kw)


# --------------------------------------------------------------------------
# Cross-validation result caching
# --------------------------------------------------------------------------

def run_cv_cached(
    ds: Dataset,
    *,
    family: str,
    repeats: int = 10,
    folds: int = 5,
    seed: int = 0,
    cache_root: str = DEFAULT_CACHE,
    force: bool = False,
):
    """10×5-fold CV with on-disk caching of the per-fold PPM parameters.

    The CV is deterministic in ``seed``; predicted and train-fit PPMs are
    stored as parameter vectors and reconstructed on load, so downstream
    experiments (prediction error, selection, elbow) share one CV run.
    """
    from repro.core import ppm as ppm_mod
    from repro.core.training import FoldResult, run_cross_validation

    path = os.path.join(
        cache_root,
        f"cv_sf{ds.sf}_{family}_r{repeats}f{folds}s{seed}_v{DATASET_VERSION}.json",
    )
    if not force and os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
        return [
            FoldResult(
                repeat=fr["repeat"],
                fold=fr["fold"],
                train_queries=list(fr["train"]),
                test_queries=list(fr["test"]),
                predicted={
                    q: ppm_mod.from_params(family, p) for q, p in fr["predicted"].items()
                },
                fitted_train={
                    q: ppm_mod.from_params(family, p) for q, p in fr["fitted"].items()
                },
            )
            for fr in doc["folds"]
        ]
    results = run_cross_validation(
        ds.records, family=family, repeats=repeats, folds=folds, seed=seed
    )
    os.makedirs(cache_root, exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {
                "folds": [
                    {
                        "repeat": fr.repeat,
                        "fold": fr.fold,
                        "train": fr.train_queries,
                        "test": fr.test_queries,
                        "predicted": {
                            q: list(map(float, m.params())) for q, m in fr.predicted.items()
                        },
                        "fitted": {
                            q: list(map(float, m.params()))
                            for q, m in fr.fitted_train.items()
                        },
                    }
                    for fr in results
                ]
            },
            f,
        )
    return results
