"""Compile-time query featurization (paper Table 2, §3.4/§4.4).

The *real* Catalyst optimized logical plan of a Spark SQL query
(``df._jdf.queryExecution().optimizedPlan()``) is copied into a
pure-Python :class:`PlanNode` skeleton by one ``scala.Function1`` that
runs inside the JVM. It is a single composed JDK method handle: from the
Dataset it reaches the optimized plan, maps every node in pre-order to
its skeleton fields (node name, ``stats().sizeInBytes``, output width,
child count) and joins them into one string, which Python splits to
rebuild the tree. That is one py4j call per plan whatever its size; a
per-node walk from Python makes about 9 per node. Everything
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


#: Separate a node's fields and the nodes of a plan in the string that
#: :func:`extract_skeleton` reads; no node name, integer or ``BigInt``
#: contains either.
_FIELD_SEP = ","
_NODE_SEP = ";"

#: The plan function of each py4j gateway (PySpark starts one per
#: process), built on the first plan it sees.
_plan_functions: dict = {}


def _plan_function(gateway, dataset_class):
    """``scala.Function1`` from a Dataset to its optimized plan's skeleton
    string: each node as ``name,sizeInBytes,output width,child count``, the
    nodes joined by :data:`_NODE_SEP` in pre-order.

    It is one composed JDK method handle behind a ``Function1`` proxy, so
    no Scala is compiled. py4j cannot pass Java varargs, so every varargs
    parameter gets an array made with ``gateway.new_array``.
    """
    jvm = gateway.jvm
    handles = jvm.java.lang.invoke.MethodHandles
    lookup = handles.publicLookup()
    cls = jvm.java.lang.Class.forName

    def array(element_class, *items):
        a = gateway.new_array(element_class, len(items))
        for i, item in enumerate(items):
            a[i] = item
        return a

    def method_type(result, *params):
        return jvm.java.lang.invoke.MethodType.methodType(result, array(jvm.java.lang.Class, *params))

    def method(receiver, name, result, *params):
        return lookup.findVirtual(receiver, name, method_type(result, *params))

    def catalyst(name: str):
        return cls(f"org.apache.spark.sql.catalyst.{name}")

    chain = handles.filterReturnValue
    string, seq = cls("java.lang.String"), cls("scala.collection.immutable.Seq")
    plan, tree_node = catalyst("plans.logical.LogicalPlan"), catalyst("trees.TreeNode")
    statistics, big_int = catalyst("plans.logical.Statistics"), cls("scala.math.BigInt")
    int_type = jvm.java.lang.Integer.TYPE
    length_string = chain(
        method(seq, "length", int_type),
        lookup.findStatic(string, "valueOf", method_type(string, int_type)),
    )
    fields = array(
        jvm.java.lang.invoke.MethodHandle,
        method(tree_node, "nodeName", string),
        chain(
            chain(method(plan, "stats", statistics), method(statistics, "sizeInBytes", big_int)),
            method(big_int, "toString", string),
        ),
        chain(method(catalyst("plans.QueryPlan"), "output", seq), length_string),
        chain(method(tree_node, "children", seq), length_string),
    )
    # node -> String.join(_FIELD_SEP, field_0(node), ..., field_3(node))
    char_sequences = cls("[Ljava.lang.CharSequence;")
    join = lookup.findStatic(
        string, "join", method_type(string, cls("java.lang.CharSequence"), char_sequences)
    )
    join = handles.insertArguments(join, 0, array(jvm.java.lang.Object, _FIELD_SEP))
    join = join.asCollector(char_sequences, 4).asType(method_type(string, *[string] * 4))
    node = handles.filterArguments(join, 0, fields).asType(method_type(string, *[plan] * 4))
    # the four fields all read the one node: a new int[4] is {0, 0, 0, 0}
    node = handles.permuteArguments(node, method_type(string, plan), gateway.new_array(jvm.int, 4))

    function1 = cls("scala.Function1")
    proxy = jvm.java.lang.invoke.MethodHandleProxies.asInterfaceInstance
    each_node = handles.insertArguments(
        method(tree_node, "map", seq, function1), 1, array(jvm.java.lang.Object, proxy(function1, node))
    ).asType(method_type(seq, plan))
    joined = handles.insertArguments(
        method(seq, "mkString", string, string), 1, array(jvm.java.lang.Object, _NODE_SEP)
    )
    query_execution = cls("org.apache.spark.sql.execution.QueryExecution")
    optimized_plan = chain(
        method(dataset_class, "queryExecution", query_execution),
        method(query_execution, "optimizedPlan", plan),
    )
    return proxy(function1, chain(chain(optimized_plan, each_node), joined))


def decode_skeleton(fused: str) -> PlanNode:
    """Rebuild the :class:`PlanNode` tree from a plan function's string.

    The nodes come in pre-order, so the child counts rebuild the tree.
    A record without exactly four fields, or a count that does not match
    the number of records, raises ``ValueError``.
    """
    records = iter(fused.split(_NODE_SEP))

    def build() -> PlanNode:
        name, size_bytes, width, n_children = next(records, "").split(_FIELD_SEP)
        return PlanNode(
            name, int(size_bytes), int(width), [build() for _ in range(int(n_children))]
        )

    root = build()
    if next(records, None) is not None:
        raise ValueError("plan string has records after its tree ends")
    return root


def extract_skeleton(df: DataFrame) -> PlanNode:
    """Pure-Python skeleton of the optimized logical plan of ``df``.

    One py4j call: the gateway's plan function maps ``df``'s Java Dataset
    to one string. ``BigInt.toString`` is exact, so sizes are not rounded.
    """
    jdf, gateway = df._jdf, df.sparkSession._sc._gateway
    if gateway not in _plan_functions:
        _plan_functions[gateway] = _plan_function(gateway, jdf.getClass())
    return decode_skeleton(_plan_functions[gateway].apply(jdf))


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
