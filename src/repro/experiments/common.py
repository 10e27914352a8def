"""Shared experiment infrastructure: the per-query dataset (§5.1).

Only what needs Spark is stored. ``dataset_sf{sf}.json`` under
``.cache/repro`` holds the plan skeleton of each of the 103 queries,
compiled through Catalyst at that scale factor; the committed files are
the datasets' inputs. :func:`load_dataset` reads one, and records it
first from a Spark session if it is missing. Tier-1 checks that each
committed skeleton has the shape (names, widths, children) that the code
compiles; its sizes depend on sf and the parquet layout, so a re-recorded
file moves the reported numbers.

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

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import PlanNode, extract_skeleton, plan_features
from repro.core.selection import CANDIDATES
from repro.core.training import N_GRID, FoldResult, QueryRecord, run_cross_validation
from repro.cluster.allocation import StaticAllocation
from repro.cluster.simulator import simulate
from repro.cluster.sparklens import analyze
from repro.cluster.taskgraph import TaskGraph, build_task_graph, stable_hash as stable_seed
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


def load_dataset(sf: float, session, *, root: str = DEFAULT_CACHE) -> Dataset:
    """The dataset for ``sf``, derived from the plan skeletons in
    ``dataset_sf{sf}.json`` under ``root``.

    A missing file is recorded first: ``session()`` materializes the tables
    and compiles every query, so Spark starts only then. The file is
    written whole or not at all, and a fresh record is read back like a
    committed one.
    """
    path = os.path.join(root, f"dataset_sf{sf}.json")
    if not os.path.exists(path):
        spark = session()
        materialize(spark, sf=sf, root=os.path.join(root, "data"))
        queries = [
            {"name": q.name, "skeleton": _skeleton_to_json(extract_skeleton(spark.sql(q.sql)))}
            for q in QUERIES
        ]
        os.makedirs(root, exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump({"sf": sf, "queries": queries}, f)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        doc = json.load(f)
    skeletons = {q["name"]: _skeleton_from_json(q["skeleton"]) for q in doc["queries"]}
    return dataset_from_skeletons(sf, skeletons)
