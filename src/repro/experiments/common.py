"""Shared experiment infrastructure: the per-query dataset (§5.1).

Only what needs Spark is cached. ``build_dataset`` materializes the
TPC-DS-lite tables, compiles all 103 queries through Catalyst and walks
each optimized plan once into a skeleton; ``dataset_sf{sf}.json`` under
``.cache/repro`` holds those skeletons and :func:`dataset_key`, a sha256
over every input of the Spark side. A file whose key differs from the
code's is rebuilt, never served.

Everything else is a pure function of the skeletons, computed in the
process on load:

1. the Table-2 features (:func:`repro.core.features.plan_features`),
2. ground truth: simulate each query at n ∈ {1,3,8,16,32,48} several
   times, discard outliers outside ±1.5×IQR, average (§5.1),
3. Sparklens: one run at n=16, post-hoc estimates for all n ∈ [1,48],
4. the 10×5-fold CV of each PPM family (:meth:`Dataset.cv`), run once
   per dataset and shared by the §5.2–§5.4 and §5.7 experiments.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro import synth_data
from repro.core import features
from repro.core.features import PlanNode, extract_skeleton, plan_features
from repro.core.selection import CANDIDATES
from repro.core.training import N_GRID, FoldResult, QueryRecord, run_cross_validation
from repro.cluster.allocation import StaticAllocation
from repro.cluster.simulator import simulate
from repro.cluster.sparklens import analyze
from repro.cluster.taskgraph import TaskGraph, build_task_graph, stable_hash as stable_seed
from repro.workloads import tpcds_lite
from repro.workloads.tpcds_lite import QUERIES, materialize

DEFAULT_CACHE = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))), ".cache", "repro")

#: paper SF → our synthetic scale factor (DESIGN.md scale mapping)
SF_MAP = {10: 0.01, 100: 0.1}

RUNS_PER_N = 5

#: our TPC-DS q94 analogue, a 5-way star join: the example of Fig 1, 8 and 12
Q94_ANALOGUE = "t7_ss_star_2000"


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
    #: family → its 10×5 CV on all features, filled by :meth:`cv`
    folds: dict[str, list[FoldResult]] = field(default_factory=dict, repr=False)

    def graph(self, query: str) -> TaskGraph:
        return build_task_graph(query, self.skeletons[query])

    def cv(self, family: str) -> list[FoldResult]:
        """The 10×5 CV of ``family`` on all features (§5.1), with its
        forests, run once per dataset."""
        if family not in self.folds:
            self.folds[family] = run_cross_validation(self.records, family=family)
        return self.folds[family]


def dataset_from_skeletons(sf: float, skeletons: dict[str, PlanNode]) -> Dataset:
    """Features, ground truth and Sparklens estimates of every skeleton."""
    records = []
    for name, skel in skeletons.items():
        graph = build_task_graph(name, skel)
        records.append(
            QueryRecord(
                name=name,
                features=plan_features(skel).as_vector(),
                actual_times=ground_truth_times(graph),
                sparklens_times=sparklens_times(graph),
            )
        )
    return Dataset(sf=sf, records=records, skeletons=skeletons)


def dataset_key(sf: float) -> str:
    """sha256 over what the skeletons are computed from: the queries' SQL,
    the source of the table generators, the schema, the session settings
    and the plan walk, and ``sf``."""
    h = hashlib.sha256()
    for q in QUERIES:
        h.update(f"{q.name}\0{q.sql}\0".encode())
    for module in (tpcds_lite, synth_data, features):
        with open(module.__file__, "rb") as f:
            h.update(f.read())
    h.update(f"sf={sf!r}".encode())
    return h.hexdigest()


def _cache_path(sf: float, cache_root: str) -> str:
    return os.path.join(cache_root, f"dataset_sf{sf}.json")


def load_cached_dataset(sf: float, *, cache_root: str = DEFAULT_CACHE) -> Dataset | None:
    """The cached dataset for ``sf``, or None if it is missing or its key
    is not the code's."""
    path = _cache_path(sf, cache_root)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    if doc.get("key") != dataset_key(sf):
        return None
    skeletons = {q["name"]: _skeleton_from_json(q["skeleton"]) for q in doc["queries"]}
    return dataset_from_skeletons(sf, skeletons)


def build_dataset(spark, *, sf: float, cache_root: str = DEFAULT_CACHE) -> Dataset:
    """Compile every query at ``sf``, cache the skeletons, derive the rest."""
    materialize(spark, sf=sf, root=os.path.join(cache_root, "data"))
    skeletons = {q.name: extract_skeleton(spark.sql(q.sql)) for q in QUERIES}
    os.makedirs(cache_root, exist_ok=True)
    with open(_cache_path(sf, cache_root), "w") as f:
        json.dump(
            {
                "sf": sf,
                "key": dataset_key(sf),
                "queries": [
                    {"name": name, "skeleton": _skeleton_to_json(skel)}
                    for name, skel in skeletons.items()
                ],
            },
            f,
        )
    return dataset_from_skeletons(sf, skeletons)


def dataset_for_paper_sf(paper_sf: int, session) -> Dataset:
    """Dataset for a paper scale factor (10 or 100) via the SF mapping:
    from the cache when its key matches, else built with ``session()``,
    so Spark starts only on a miss."""
    sf = SF_MAP[paper_sf]
    return load_cached_dataset(sf) or build_dataset(session(), sf=sf)
