"""Tests for the Table-2 featurizer over real Catalyst plans and skeletons."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    FEATURE_NAMES,
    OPERATOR_VOCABULARY,
    PlanNode,
    extract_skeleton,
    featurize_plan,
    plan_features,
)
from repro.workloads.tpcds_lite import query_by_name
from tests.snapshot import snapshot_records, snapshot_skeletons


def featurize_sql(spark, sql):
    return featurize_plan(spark.sql(sql))


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
        featurize_plan(df)  # would be slow/visible if it ran the query
        # no assertion beyond not raising: the plan-only path is the API


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
