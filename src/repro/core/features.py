"""Compile-time query featurization (paper Table 2, §3.4/§4.4).

One py4j walk of the *real* Catalyst optimized logical plan of a Spark
SQL query (``df._jdf.queryExecution().optimizedPlan()``) copies it into
a pure-Python :class:`PlanNode` skeleton. Everything downstream is
JVM-free: :func:`plan_features` derives the paper's feature vector from
the skeleton, and the cluster simulator builds its task graph from it.
Training (dataset build) and the live rule featurize through this same
path. The feature vector holds:

- count of each operator type in a fixed 14-operator vocabulary
  ("14 operators for TPC-DS", Table 2),
- Σ all operators,
- maximum plan depth,
- number of input sources (leaf relations),
- Σ estimated input bytes (Catalyst ``stats().sizeInBytes`` of leaves),
- Σ estimated rows processed by all operators (per-node ``sizeInBytes``
  divided by an output-width estimate — Catalyst propagates only
  sizeInBytes without CBO column stats, so row counts are derived).

Only compile/optimization-time information is used — no runtime
statistics — because the model must score *before* the query runs and
with the same features as at training time (§3.4).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from pyspark.sql import DataFrame

#: Fixed operator vocabulary — one count feature per entry (Table 2 lists
#: "14 operators for TPC-DS"). Node names are Catalyst ``nodeName`` values
#: of optimized logical plans.
OPERATOR_VOCABULARY: tuple[str, ...] = (
    "Aggregate",
    "Project",
    "Join",
    "Filter",
    "Sort",
    "Union",
    "GlobalLimit",
    "LocalLimit",
    "LogicalRelation",
    "LogicalRDD",
    "Window",
    "Expand",
    "Generate",
    "Distinct",
)

#: Full ordered feature-name list; every feature vector follows this order.
FEATURE_NAMES: tuple[str, ...] = tuple(
    f"num_{op.lower()}" for op in OPERATOR_VOCABULARY
) + (
    "num_operators",
    "max_depth",
    "num_sources",
    "input_bytes",
    "rows_processed",
)


@dataclass
class PlanFeatures:
    """Featurization result: the vector plus a few raw diagnostics."""

    values: dict[str, float]

    def as_vector(self) -> list[float]:
        return [float(self.values[name]) for name in FEATURE_NAMES]


def _node_size_bytes(node) -> int:
    """Catalyst estimated sizeInBytes of a plan node.

    py4j maps scala BigInt to a Java/py4j object on some call paths and to
    a Python int on others, so accept both.
    """
    size = node.stats().sizeInBytes()
    return size if isinstance(size, int) else int(size.toString())


@dataclass
class PlanNode:
    """Lightweight, pure-Python copy of a Catalyst plan node.

    Extracted once per query via py4j and then consumed JVM-free by
    :func:`plan_features` and by the cluster simulator's task-graph
    builder (``repro.cluster.taskgraph``).
    """

    name: str
    size_bytes: int
    width: int  # number of output attributes
    children: list["PlanNode"]

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def height(self) -> int:
        return 1 + max((c.height() for c in self.children), default=0)


def _extract(node) -> PlanNode:
    children = node.children()
    return PlanNode(
        name=str(node.nodeName()),
        size_bytes=_node_size_bytes(node),
        width=int(node.output().size()),
        children=[_extract(children.apply(i)) for i in range(children.size())],
    )


def extract_skeleton(df: DataFrame) -> PlanNode:
    """Pure-Python skeleton of the optimized logical plan of ``df``."""
    return _extract(df._jdf.queryExecution().optimizedPlan())


def plan_features(root: PlanNode) -> PlanFeatures:
    """Feature vector of Table 2 for a plan skeleton."""
    nodes = list(root.walk())
    leaves = [n for n in nodes if not n.children]
    counts = Counter(n.name for n in nodes)
    values: dict[str, float] = {
        f"num_{op.lower()}": float(counts[op]) for op in OPERATOR_VOCABULARY
    }
    values.update(
        num_operators=float(len(nodes)),
        max_depth=float(root.height()),
        num_sources=float(len(leaves)),
        input_bytes=float(sum(n.size_bytes for n in leaves)),
        # 8 bytes per output attribute: a crude avg row width estimate
        rows_processed=float(
            sum(n.size_bytes // max(1, 8 * n.width) for n in nodes)
        ),
    )
    return PlanFeatures(values=values)


def featurize_plan(df: DataFrame) -> PlanFeatures:
    """Feature vector of Table 2 for a DataFrame's optimized logical plan."""
    return plan_features(extract_skeleton(df))
