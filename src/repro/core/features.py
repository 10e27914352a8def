"""Compile-time query featurization (paper Table 2, §3.4/§4.4).

The *real* Catalyst optimized logical plan of a Spark SQL query
(``df._jdf.queryExecution().optimizedPlan()``) is copied into a
pure-Python :class:`PlanNode` skeleton by four passes that run inside
the JVM: ``plan.map(f).mkString(sep)`` applies one ``scala.Function1``
per skeleton field (node name, ``stats().sizeInBytes``, output width,
child count) to every node in pre-order, and Python rebuilds the tree
from the four lists. That is 10 py4j calls per plan whatever its size;
a per-node walk from Python makes about 9 per node. Everything
downstream is JVM-free: :func:`plan_features` derives the paper's
feature vector from the skeleton, and the cluster simulator builds its
task graph from it. Training (dataset build) and the live rule
featurize through this same path. The feature vector holds:

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

import functools
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


@dataclass
class PlanNode:
    """Lightweight, pure-Python copy of a Catalyst plan node.

    Extracted once per query by :func:`extract_skeleton` and then
    consumed JVM-free by :func:`plan_features` and by the cluster
    simulator's task-graph builder (``repro.cluster.taskgraph``).
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


#: Separates the nodes' values in one field's string; no node name,
#: integer or ``BigInt`` contains it.
_SEP = ","


@functools.lru_cache(maxsize=1)
def _field_functions(jvm) -> tuple:
    """``scala.Function1`` objects for the skeleton fields of a plan node:
    name, ``stats().sizeInBytes``, output width and child count.

    They are JDK method handles behind a ``Function1`` proxy, so no Scala
    is compiled; they are built once per py4j gateway.
    """
    handles = jvm.java.lang.invoke.MethodHandles
    lookup = handles.publicLookup()
    method_type = jvm.java.lang.invoke.MethodType.methodType
    cls = jvm.java.lang.Class.forName
    seq = cls("scala.collection.immutable.Seq")
    length = lookup.findVirtual(seq, "length", method_type(jvm.java.lang.Integer.TYPE))

    def method(catalyst_class: str, name: str, result):
        receiver = cls(f"org.apache.spark.sql.catalyst.{catalyst_class}")
        return lookup.findVirtual(receiver, name, method_type(result))

    statistics = cls("org.apache.spark.sql.catalyst.plans.logical.Statistics")
    fields = (
        method("trees.TreeNode", "nodeName", cls("java.lang.String")),
        handles.filterReturnValue(
            method("plans.logical.LogicalPlan", "stats", statistics),
            method("plans.logical.Statistics", "sizeInBytes", cls("scala.math.BigInt")),
        ),
        handles.filterReturnValue(method("plans.QueryPlan", "output", seq), length),
        handles.filterReturnValue(method("trees.TreeNode", "children", seq), length),
    )
    function1 = cls("scala.Function1")
    proxy = jvm.java.lang.invoke.MethodHandleProxies.asInterfaceInstance
    return tuple(proxy(function1, mh) for mh in fields)


def extract_skeleton(df: DataFrame) -> PlanNode:
    """Pure-Python skeleton of the optimized logical plan of ``df``.

    ``TreeNode.map`` visits the nodes in pre-order, so the child counts
    rebuild the tree from the four field lists. ``BigInt.toString`` is
    exact, so sizes are not rounded.
    """
    plan = df._jdf.queryExecution().optimizedPlan()
    names, sizes, widths, counts = (
        plan.map(f).mkString(_SEP).split(_SEP)
        for f in _field_functions(df.sparkSession._jvm)
    )
    nodes = zip(names, map(int, sizes), map(int, widths), map(int, counts), strict=True)

    def build() -> PlanNode:
        name, size_bytes, width, n_children = next(nodes)
        return PlanNode(name, size_bytes, width, [build() for _ in range(n_children)])

    return build()


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
