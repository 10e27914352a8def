"""The 103-query workload: Catalyst compilation + DuckDB result equality.

Every query must (a) compile through the Catalyst optimizer and
(b) produce exactly the rows DuckDB produces for the same SQL over the
same inputs — a wrong join/aggregation in any template is a failure, not
just "it ran".
"""
import pytest

from repro.oracle import assert_equivalent
from repro.workloads.tpcds_lite import CHANNELS, QUERIES, query_by_name

QUERY_NAMES = [q.name for q in QUERIES]

#: one representative query per template family (kept for quick local runs)
REPRESENTATIVES = [
    "t1_ss_agg_1998", "t2_cs_topstate_2000", "t3_union_2000",
    "t4_returns_books", "t5_promo_1999", "t6_ws_scan_10_60",
    "t7_ss_star_2001", "t8_ws_distinct", "t9_cs_yoy_1999",
    "t10_cross_home", "t11_having_sports", "t12_ss_sorted_1998",
    "t13_store_2002", "t14_cohort_ca", "t15_trend_women",
    "t16_cs_stats", "t17_manager_50", "t18_ss_preferred",
]


def test_exactly_103_queries():
    assert len(QUERIES) == 103  # "99 queries + variants" (§5.1)


def test_unique_names():
    assert len(set(QUERY_NAMES)) == 103


def test_every_template_family_present():
    families = {q.name.split("_")[0] for q in QUERIES}
    assert families == {f"t{i}" for i in range(1, 19)}


def test_all_tables_used_by_some_query():
    used = {t for q in QUERIES for t in q.tables}
    assert set(CHANNELS.values()) <= used
    assert {"item", "date_dim", "customer", "store", "promotion", "store_returns"} <= used


def test_query_by_name_roundtrip():
    q = query_by_name("t1_ss_agg_1998")
    assert q.name == "t1_ss_agg_1998"
    with pytest.raises(KeyError):
        query_by_name("nope")


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_compiles_through_catalyst(spark, tpcds_tables, name):
    q = query_by_name(name)
    df = spark.sql(q.sql)
    plan = df._jdf.queryExecution().optimizedPlan()
    assert plan.toString()  # optimization succeeded


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_result_matches_duckdb(spark, tpcds_tables, tpcds_pandas, name):
    q = query_by_name(name)
    inputs = {t: tpcds_pandas[t] for t in q.tables}
    assert_equivalent(spark.sql(q.sql), q.sql, **inputs)


def test_session_has_the_plan_shaping_settings(spark):
    """The test session comes from the builder the jobs use."""
    assert spark.conf.get("spark.sql.shuffle.partitions") == "64"
    assert spark.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
