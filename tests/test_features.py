"""Tests for the Table-2 featurizer over real Catalyst plans and skeletons."""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    FEATURE_NAMES,
    OPERATOR_VOCABULARY,
    PlanNode,
    decode_skeleton,
    extract_skeleton,
    featurize_plan,
    plan_features,
)
from repro.experiments.common import DEFAULT_CACHE, _skeleton_from_json
from repro.workloads.tpcds_lite import QUERIES, query_by_name
from tests.snapshot import SNAPSHOT, snapshot_records, snapshot_skeletons

#: The ad-hoc SQL of this file, besides the TPC-DS-lite queries.
ADHOC_SQL = (
    "SELECT COUNT(*) AS c FROM item",
    "SELECT COUNT(*) AS c FROM store_sales, item WHERE ss_item_sk = i_item_sk",
    "SELECT COUNT(*) AS c FROM promotion",
    "SELECT COUNT(*) AS c FROM store_sales",
)


def featurize_sql(spark, sql):
    return featurize_plan(spark.sql(sql))


#: the committed files whose skeletons the datasets are derived from
COMMITTED_SKELETONS = {
    "sf0.01": Path(DEFAULT_CACHE) / "dataset_sf0.01.json",
    "sf0.1": Path(DEFAULT_CACHE) / "dataset_sf0.1.json",
    "perfbench snapshot": SNAPSHOT,
}


def plan_shape(node: PlanNode) -> tuple:
    """A skeleton without its sizes, which depend on sf and the parquet layout."""
    return (node.name, node.width, tuple(plan_shape(c) for c in node.children))


@pytest.fixture(scope="module")
def compiled_shapes(spark, tpcds_tables) -> list[tuple[str, tuple]]:
    """(query, the shape of the plan the code compiles), in workload order."""
    return [(q.name, plan_shape(extract_skeleton(spark.sql(q.sql)))) for q in QUERIES]


def walk_from_python(node) -> PlanNode:
    """Reference skeleton: a py4j walk from Python, about 9 calls per node.

    py4j maps scala BigInt to a Java object on some call paths and to a
    Python int on others, so the size accepts both.
    """
    size = node.stats().sizeInBytes()
    children = node.children()
    return PlanNode(
        name=str(node.nodeName()),
        size_bytes=size if isinstance(size, int) else int(size.toString()),
        width=int(node.output().size()),
        children=[walk_from_python(children.apply(i)) for i in range(children.size())],
    )


class TestFeatureSchema:
    def test_vocabulary_has_14_operators(self):
        assert len(OPERATOR_VOCABULARY) == 14  # Table 2: "14 operators"

    def test_feature_names_order_and_count(self):
        assert len(FEATURE_NAMES) == 19
        assert FEATURE_NAMES[-5:] == (
            "num_operators",
            "max_depth",
            "num_sources",
            "input_bytes",
            "rows_processed",
        )

    def test_vector_follows_feature_names(self, spark, tpcds_tables):
        f = featurize_sql(spark, "SELECT COUNT(*) AS c FROM item")
        vec = f.as_vector()
        assert len(vec) == 19
        assert vec[FEATURE_NAMES.index("num_aggregate")] == f.values["num_aggregate"]


class TestFeaturization:
    def test_single_scan(self, spark, tpcds_tables):
        f = featurize_sql(spark, "SELECT COUNT(*) AS c FROM item")
        assert f.values["num_aggregate"] == 1
        assert f.values["num_sources"] == 1
        assert f.values["input_bytes"] > 0

    def test_join_counted(self, spark, tpcds_tables):
        f = featurize_sql(
            spark,
            "SELECT COUNT(*) AS c FROM store_sales, item WHERE ss_item_sk = i_item_sk",
        )
        assert f.values["num_join"] == 1
        assert f.values["num_sources"] == 2

    def test_union_counted(self, spark, tpcds_tables):
        q = query_by_name("t3_union_2000")
        f = featurize_sql(spark, q.sql)
        assert f.values["num_union"] == 1
        assert f.values["num_sources"] == len(q.tables) + 2  # date_dim scanned per arm

    def test_deep_star_join(self, spark, tpcds_tables):
        f = featurize_sql(spark, query_by_name("t7_ss_star_2000").sql)
        assert f.values["num_join"] == 4
        assert f.values["num_sources"] == 5
        assert f.values["max_depth"] >= 6

    def test_operator_total_consistent(self, spark, tpcds_tables):
        f = featurize_sql(spark, query_by_name("t1_ss_agg_1998").sql)
        counted = sum(
            f.values[f"num_{op.lower()}"] for op in OPERATOR_VOCABULARY
        )
        assert counted <= f.values["num_operators"]
        assert f.values["num_operators"] >= f.values["max_depth"]

    def test_input_bytes_grow_with_fact_table(self, spark, tpcds_tables):
        small = featurize_sql(spark, "SELECT COUNT(*) AS c FROM promotion")
        big = featurize_sql(spark, "SELECT COUNT(*) AS c FROM store_sales")
        assert big.values["input_bytes"] > small.values["input_bytes"]

    def test_deterministic(self, spark, tpcds_tables):
        sql = query_by_name("t5_promo_1999").sql
        assert featurize_sql(spark, sql).values == featurize_sql(spark, sql).values

    def test_compile_time_only(self, spark, tpcds_tables):
        """Featurization must not execute the query (no runtime stats)."""
        df = spark.sql("SELECT COUNT(*) AS c FROM store_sales")
        tracker = spark.sparkContext.statusTracker()
        listener_bus = spark.sparkContext._jsc.sc().listenerBus()

        def job_ids():
            listener_bus.waitUntilEmpty()  # jobs reach the tracker asynchronously
            return sorted(tracker.getJobIdsForGroup())

        before = job_ids()
        featurize_plan(df)
        assert job_ids() == before
        df.collect()
        assert job_ids() != before  # the tracker does see a job that runs


class TestSkeleton:
    def test_extract_matches_plan_shape(self, spark, tpcds_tables):
        df = spark.sql(query_by_name("t1_ss_agg_1998").sql)
        sk = extract_skeleton(df)
        names = [n.name for n in sk.walk()]
        assert "Join" in names
        assert "Aggregate" in names
        assert sum(1 for n in sk.walk() if not n.children) == 3  # leaves

    def test_leaf_sizes_positive(self, spark, tpcds_tables):
        sk = extract_skeleton(spark.sql("SELECT COUNT(*) AS c FROM item"))
        leaves = [n for n in sk.walk() if not n.children]
        assert all(l.size_bytes > 0 for l in leaves)

    def test_equals_walk_from_python(self, spark, tpcds_tables):
        """Node for node (name, size, width, children) on every query."""
        sqls = [q.sql for q in QUERIES] + list(ADHOC_SQL)
        for sql in sqls:
            df = spark.sql(sql)
            reference = walk_from_python(df._jdf.queryExecution().optimizedPlan())
            assert extract_skeleton(df) == reference, sql

    @pytest.mark.parametrize("committed", list(COMMITTED_SKELETONS))
    def test_committed_skeletons_have_compiled_shape(self, compiled_shapes, committed):
        """Every committed skeleton is the plan the code compiles, up to sizes."""
        queries = json.loads(COMMITTED_SKELETONS[committed].read_text())["queries"]
        stored = [(q["name"], plan_shape(_skeleton_from_json(q["skeleton"]))) for q in queries]
        assert [name for name, _ in stored] == [name for name, _ in compiled_shapes]
        differ = [name for (name, s), (_, c) in zip(stored, compiled_shapes) if s != c]
        assert differ == []

    def test_call_count_independent_of_plan_size(self, spark, tpcds_tables, monkeypatch):
        """A fixed number of py4j calls per plan, not a per-node walk."""
        client = spark.sparkContext._gateway._gateway_client
        send = client.send_command
        calls = []

        def counting(command, *args, **kwargs):
            # memory ("m") commands arrive whenever Python collects a proxy
            if command.startswith("c\n"):
                calls.append(command)
            return send(command, *args, **kwargs)

        frames = [spark.sql(q.sql) for q in QUERIES]
        sizes = [sum(1 for _ in extract_skeleton(df).walk()) for df in frames]

        def calls_for(df):
            calls.clear()
            extract_skeleton(df)
            return len(calls)

        monkeypatch.setattr(client, "send_command", counting)
        smallest, largest = (calls_for(frames[sizes.index(n)]) for n in (min(sizes), max(sizes)))
        monkeypatch.undo()
        assert max(sizes) > 4 * min(sizes)
        assert smallest == largest == 1, (smallest, largest)

    def test_decode_nested(self):
        fused = (
            "Aggregate,100,2,1;Join,90,3,2;Filter,7,2,1;LogicalRelation,10,4,0;"
            "LogicalRelation,12,1,0"
        )
        relation = PlanNode("LogicalRelation", 10, 4, [])
        assert decode_skeleton(fused) == PlanNode("Aggregate", 100, 2, [
            PlanNode("Join", 90, 3, [
                PlanNode("Filter", 7, 2, [relation]),
                PlanNode("LogicalRelation", 12, 1, []),
            ]),
        ])

    def test_decode_leaf(self):
        assert decode_skeleton("LogicalRelation,42,6,0") == PlanNode("LogicalRelation", 42, 6, [])

    def test_decode_size_beyond_int64(self):
        """``BigInt`` sizes are unbounded; Python ints keep them exact."""
        size = 2**64 + 5
        root = decode_skeleton(f"Join,{size},3,2;LogicalRelation,1,1,0;LogicalRelation,2,2,0")
        assert root.size_bytes == size
        assert [c.size_bytes for c in root.children] == [1, 2]

    @pytest.mark.parametrize("fused", [
        "Project,1,2;LogicalRelation,3,4,0",  # a record with three fields
        "Project,1,2,1,0;LogicalRelation,3,4,0",  # a record with five fields
        "Project,1,2,2;LogicalRelation,3,4,0",  # fewer records than counted
        "LogicalRelation,3,4,0;LogicalRelation,3,4,0",  # records after the tree
        "",
    ])
    def test_decode_malformed_raises(self, fused):
        with pytest.raises(ValueError):
            decode_skeleton(fused)

    def test_walk_covers_all_nodes(self):
        tree = PlanNode("A", 1, 1, [PlanNode("B", 1, 1, []), PlanNode("C", 1, 1, [])])
        assert [n.name for n in tree.walk()] == ["A", "B", "C"]


def _nodes(children):
    # vocabulary names plus one name outside it
    return st.builds(
        PlanNode,
        name=st.sampled_from(OPERATOR_VOCABULARY + ("SubqueryAlias",)),
        size_bytes=st.integers(0, 10**12),
        width=st.integers(0, 40),
        children=children,
    )


plan_trees = st.recursive(
    _nodes(st.just([])),
    lambda kids: _nodes(st.lists(kids, min_size=1, max_size=3)),
    max_leaves=20,
)


def _levels(tree: PlanNode) -> int:
    level, n = [tree], 0
    while level:
        n += 1
        level = [c for node in level for c in node.children]
    return n


class TestPlanFeatures:
    @given(tree=plan_trees)
    @settings(max_examples=200, deadline=None)
    def test_invariants_on_random_trees(self, tree):
        v = plan_features(tree).values
        nodes = list(tree.walk())
        leaves = [n for n in nodes if not n.children]
        assert v["num_operators"] == len(nodes)
        assert v["num_sources"] == len(leaves)
        assert v["input_bytes"] == sum(n.size_bytes for n in leaves)
        assert v["max_depth"] == _levels(tree)
        vocab = sum(v[f"num_{op.lower()}"] for op in OPERATOR_VOCABULARY)
        assert vocab <= v["num_operators"]

    def test_stored_features_match_skeletons(self):
        """The snapshot's stored features derive exactly from its skeletons."""
        skeletons = snapshot_skeletons()
        for r in snapshot_records():
            derived = plan_features(skeletons[r.name]).as_vector()
            assert derived == r.features, r.name
