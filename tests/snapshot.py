"""The committed sf=0.1 dataset snapshot, parsed once for every test module.

``perfbench/data/dataset_sf0.1.json`` holds, per query, its name, the
Table-2 features, the ground truth, the Sparklens estimates and the plan
skeleton, so the tests that read it run without Spark. A one-repeat CV
of each family on it is run once for every test module too.
"""
import functools
import json
from pathlib import Path

from repro.core.features import PlanNode
from repro.core.training import FoldResult, QueryRecord, run_cross_validation
from repro.experiments.common import _skeleton_from_json

SNAPSHOT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "dataset_sf0.1.json"


@functools.cache
def _queries() -> list[dict]:
    return json.loads(SNAPSHOT.read_text())["queries"]


def snapshot_records() -> list[QueryRecord]:
    """Every query's stored features, ground truth and Sparklens estimates."""
    return [
        QueryRecord(
            name=q["name"],
            features=list(q["features"]),
            actual_times={int(n): t for n, t in q["actual"].items()},
            sparklens_times={int(n): t for n, t in q["sparklens"].items()},
        )
        for q in _queries()
    ]


def snapshot_skeletons() -> dict[str, PlanNode]:
    """query → plan skeleton, in the snapshot's order."""
    return {q["name"]: _skeleton_from_json(q["skeleton"]) for q in _queries()}


@functools.cache
def snapshot_cv(family: str) -> list[FoldResult]:
    """A one-repeat 5-fold CV of ``family`` on the snapshot, with its forests."""
    return run_cross_validation(snapshot_records(), family=family, repeats=1)
