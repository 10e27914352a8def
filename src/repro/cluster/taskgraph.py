"""Catalyst plan → stage/task DAG with a cost model (Synapse substitute).

The paper's ground truth `t(n)` comes from running TPC-DS on Azure
Synapse Spark pools. Offline we cannot run a multi-node cluster, so the
reproduction derives, for each workload query, a *task graph*: Spark-like
stages (split at shuffle boundaries: joins, aggregates, sorts) with
per-task durations driven by the query's **real Catalyst size
statistics**. The event-driven simulator (``repro.cluster.simulator``)
then schedules these tasks on ``n`` executors × ``e_c`` cores, which
yields exactly the mechanics the paper's price-performance model
captures: Amdahl-like decay (serial driver/stage overheads + parallel
work) and saturation (no stage has more runnable tasks than slots).

Cost-model units are seconds; rates are calibrated so that the "SF=100"
workload (sf=0.1, DESIGN.md) lands in the paper's run-time range
(~40–600 s) with optimal executor counts spread over 1–48 (§2.4).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.core.features import PlanNode

#: nodes that cut a new (shuffle) stage, with their per-MB cost rates
_SHUFFLE_RATE = {
    "Aggregate": 90.0,
    "Join": 135.0,
    "Sort": 66.0,
    "Distinct": 90.0,
    "Window": 105.0,
}
#: pipelined nodes folded into their child stage as a multiplier
_PIPELINE_FACTOR = {
    "Project": 1.04,
    "Filter": 1.10,
    "GlobalLimit": 1.01,
    "LocalLimit": 1.01,
    "Expand": 1.15,
    "Generate": 1.15,
}
_LEAF_NODES = {"LogicalRelation", "LogicalRDD", "LocalRelation", "Relation", "OneRowRelation"}


# The cost model's fixed calibration
SCAN_RATE = 54.0  # sec of task work per MB scanned
BYTES_PER_SCAN_TASK = 64e3
BYTES_PER_SHUFFLE_TASK = 32e3
MAX_TASKS = 256  # upper bound on stage width
MIN_TASK_SEC = 0.4  # scheduling + JVM floor per task
STAGE_OVERHEAD_SEC = 1.6  # serial driver work per stage
APP_STARTUP_SEC = 22.0  # driver/app submit + context init
SKEW_FACTOR = 1.8  # longest task ≈ (1 + skew) × mean


@dataclass
class Stage:
    """One Spark stage: runnable when all parent stages have finished."""

    stage_id: int
    parents: tuple[int, ...]
    task_durations: tuple[float, ...]  # noise-free base durations, seconds

    def __post_init__(self) -> None:
        if not self.task_durations:
            raise ValueError(f"stage {self.stage_id} has no tasks")

    @property
    def num_tasks(self) -> int:
        return len(self.task_durations)

    @property
    def total_work(self) -> float:
        return float(sum(self.task_durations))

    @property
    def critical_task(self) -> float:
        return float(max(self.task_durations))


@dataclass
class TaskGraph:
    """A query's executable shape: stages + serial overheads."""

    query: str
    stages: list[Stage]
    stage_overhead_sec: float
    app_startup_sec: float

    @property
    def total_work(self) -> float:
        return sum(s.total_work for s in self.stages)

    @property
    def serial_time(self) -> float:
        """Driver-side serial component (Amdahl's fixed part)."""
        return self.app_startup_sec + self.stage_overhead_sec * len(self.stages)


def stable_hash(*parts, nbytes: int = 4) -> int:
    """Deterministic integer from the first ``nbytes`` bytes of a sha256
    over the ``"|"``-joined parts; ``hash()`` is salted per process."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:nbytes], "big")


def _split_tasks(total_sec: float, n_tasks: int, *, salt: str) -> tuple[float, ...]:
    """Distribute stage work over tasks with deterministic mild skew.

    A Zipf-flavoured multiplier concentrates extra work in the first few
    tasks (one straggler per stage is typical of real shuffles); the salt
    makes the skew query- and stage-specific but reproducible.
    """
    n_tasks = max(1, n_tasks)
    base = total_sec / n_tasks
    skew_seed = stable_hash(salt, "skew", nbytes=8) / 2**64
    out = []
    for i in range(n_tasks):
        bump = SKEW_FACTOR * skew_seed / (1 + i) ** 1.5
        jitter = 0.85 + 0.3 * (stable_hash(salt, i, nbytes=8) / 2**64)
        out.append(max(MIN_TASK_SEC, base * (1 + bump) * jitter))
    return tuple(out)


class _Builder:
    def __init__(self, query: str):
        self.query = query
        self.stages: list[Stage] = []

    def _add_stage(
        self, parents: tuple[int, ...], total_sec: float, n_tasks: int, salt: str
    ) -> int:
        sid = len(self.stages)
        self.stages.append(
            Stage(
                stage_id=sid,
                parents=parents,
                task_durations=_split_tasks(
                    total_sec, n_tasks, salt=f"{self.query}|{salt}|{sid}"
                ),
            )
        )
        return sid

    def build(self, node: PlanNode) -> list[tuple[int, float]]:
        """Return the (stage_id, effective_output_bytes) frontier of ``node``.

        Effective sizes are propagated bottom-up with fixed heuristics
        instead of Catalyst's non-leaf estimates: without column
        statistics Catalyst *multiplies* child sizes through joins, and
        that blow-up cascading through a 5-way star join would dominate
        every cost. Leaf sizes (real parquet footprints) stay authoritative.
        """
        name = node.name
        if not node.children or name in _LEAF_NODES:
            bytes_ = max(node.size_bytes, 1)
            n_tasks = min(MAX_TASKS, max(1, math.ceil(bytes_ / BYTES_PER_SCAN_TASK)))
            total = bytes_ / 1e6 * SCAN_RATE
            sid = self._add_stage((), total, n_tasks, f"scan:{name}")
            return [(sid, float(bytes_))]

        child_frontiers = [self.build(c) for c in node.children]
        flat = [fs for frontier in child_frontiers for fs in frontier]
        child_bytes = sum(b for _, b in flat)

        if name in _SHUFFLE_RATE:
            work_bytes = max(child_bytes, 1.0)
            if name == "Join":
                # FK star-join keeps ~fact cardinality, slightly widened
                eff_bytes = max(b for _, b in flat) * 1.25
            elif name in ("Aggregate", "Distinct"):
                # group-bys collapse to few groups
                eff_bytes = min(child_bytes, child_bytes * 0.05 + 10e3)
            else:  # Sort, Window keep cardinality
                eff_bytes = child_bytes
            total = work_bytes / 1e6 * _SHUFFLE_RATE[name]
            n_tasks = min(MAX_TASKS, max(1, math.ceil(work_bytes / BYTES_PER_SHUFFLE_TASK)))
            sid = self._add_stage(
                tuple(s for s, _ in flat), total, n_tasks, f"shuffle:{name}"
            )
            return [(sid, eff_bytes)]

        if name == "Union":
            return flat

        out_factor = {
            "Filter": 0.5,
            "Project": 0.8,
            "GlobalLimit": 0.05,
            "LocalLimit": 0.05,
            "Expand": 2.0,
            "Generate": 2.0,
        }.get(name, 1.0)
        cost_factor = _PIPELINE_FACTOR.get(name, 1.02)
        for sid, _ in flat:
            st = self.stages[sid]
            self.stages[sid] = Stage(
                stage_id=st.stage_id,
                parents=st.parents,
                task_durations=tuple(d * cost_factor for d in st.task_durations),
            )
        return [(s, max(1.0, b * out_factor)) for s, b in flat]


def build_task_graph(query: str, skeleton: PlanNode) -> TaskGraph:
    """Translate an optimized-plan skeleton into a schedulable task graph.

    The final frontier gets a small serial "collect" stage so every graph
    has a single sink (like Spark's result stage).
    """
    b = _Builder(query)
    frontier = b.build(skeleton)
    result_bytes = max(1.0, min(b_ for _, b_ in frontier))
    b._add_stage(
        tuple(s for s, _ in frontier),
        max(MIN_TASK_SEC, result_bytes / 1e6 * 2.0),
        1,
        "result",
    )
    return TaskGraph(
        query=query,
        stages=b.stages,
        stage_overhead_sec=STAGE_OVERHEAD_SEC,
        app_startup_sec=APP_STARTUP_SEC,
    )
