"""TPC-DS-lite workload: synthetic star schema + 103 Spark SQL queries.

The paper evaluates AutoExecutor on "103 TPC-DS queries (99 queries +
variants)" at SF=10 and SF=100 (§5.1). dsdgen and spark-sql-perf are
unavailable offline, so this module provides:

- :func:`materialize` — generate the star schema from
  :mod:`repro.synth_data` at a scale factor, persist it to parquet (so
  Catalyst sees real file-size statistics for the Σ-input-bytes feature),
  and register temp views.
- :data:`QUERIES` / :func:`queries` — exactly 103 named analytic queries
  built from 18 parameterised templates spanning the feature ranges the
  parameter model consumes: 1–5 joins, unions, aggregates, sorts,
  filters, distinct counts, and scans over four fact tables.

SF mapping (DESIGN.md): paper SF=10 → ``sf=0.01``; SF=100 → ``sf=0.1``.
All SQL runs unmodified on both Spark SQL and DuckDB, so results can be
checked with :func:`repro.oracle.assert_equivalent`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro import synth_data

#: table name -> generator in repro.synth_data
TABLES = {
    "store_sales": synth_data.store_sales,
    "catalog_sales": synth_data.catalog_sales,
    "web_sales": synth_data.web_sales,
    "store_returns": synth_data.store_returns,
    "date_dim": synth_data.date_dim,
    "item": synth_data.item,
    "customer": synth_data.tpcds_customer,
    "store": synth_data.store,
    "promotion": synth_data.promotion,
}

#: sales-channel column prefix -> fact table
CHANNELS = {"ss": "store_sales", "cs": "catalog_sales", "ws": "web_sales"}

_YEARS = [1998, 1999, 2000, 2001, 2002]
_CATEGORIES = ["Books", "Electronics", "Home", "Sports", "Women"]
_STATES = ["CA", "TX", "NY", "WA", "FL"]


def materialize(spark: SparkSession, *, sf: float, root: str) -> dict[str, DataFrame]:
    """Generate (once), persist to parquet, and register temp views.

    Reading back from parquet gives Catalyst leaf relations with real
    ``sizeInBytes`` statistics, which the Table-2 featurizer relies on.
    Re-registering views lets one session switch between scale factors.
    """
    out: dict[str, DataFrame] = {}
    sf_dir = os.path.join(root, f"sf_{sf}")
    for name, gen in TABLES.items():
        path = os.path.join(sf_dir, name)
        if not os.path.exists(os.path.join(path, "_SUCCESS")):
            gen(spark, sf=sf).write.mode("overwrite").parquet(path)
        df = spark.read.parquet(path)
        df.createOrReplaceTempView(name)
        out[name] = df
    return out


@dataclass(frozen=True)
class Query:
    """One workload query: a stable name, its SQL, and the tables it reads."""

    name: str
    sql: str
    tables: tuple[str, ...] = field(default_factory=tuple)


def _q(name: str, sql: str, *tables: str) -> Query:
    return Query(name=name, sql=" ".join(sql.split()), tables=tuple(tables))


def _build_queries() -> list[Query]:
    qs: list[Query] = []

    # T1: per-channel yearly category report (2 joins, group, sort). 3x5 = 15
    for ch, fact in CHANNELS.items():
        for y in _YEARS:
            qs.append(_q(
                f"t1_{ch}_agg_{y}",
                f"""SELECT i_category AS category,
                           SUM({ch}_ext_sales_price) AS total_sales,
                           COUNT(*) AS cnt
                    FROM {fact}, item, date_dim
                    WHERE {ch}_item_sk = i_item_sk
                      AND {ch}_sold_date_sk = d_date_sk
                      AND d_year = {y}
                    GROUP BY i_category
                    ORDER BY category""",
                fact, "item", "date_dim"))

    # T2: top states by profit (3 joins, sort+limit w/ tie-break). 3x3 = 9
    for ch, fact in CHANNELS.items():
        for y in (1998, 2000, 2002):
            qs.append(_q(
                f"t2_{ch}_topstate_{y}",
                f"""SELECT c_state AS state,
                           SUM({ch}_net_profit) AS profit
                    FROM {fact}, customer, date_dim
                    WHERE {ch}_customer_sk = c_customer_sk
                      AND {ch}_sold_date_sk = d_date_sk
                      AND d_year = {y}
                    GROUP BY c_state
                    ORDER BY profit DESC, state
                    LIMIT 5""",
                fact, "customer", "date_dim"))

    # T3: all-channel union rollup by quarter (union of 3 joins). 5
    for y in _YEARS:
        arms = " UNION ALL ".join(
            f"""SELECT d_qoy AS qoy, {ch}_ext_sales_price AS price
                FROM {fact}, date_dim
                WHERE {ch}_sold_date_sk = d_date_sk AND d_year = {y}"""
            for ch, fact in CHANNELS.items()
        )
        qs.append(_q(
            f"t3_union_{y}",
            f"""SELECT qoy, SUM(price) AS total_sales, COUNT(*) AS cnt
                FROM ({arms}) u
                GROUP BY qoy ORDER BY qoy""",
            "store_sales", "catalog_sales", "web_sales", "date_dim"))

    # T4: returns ratio per category (fact-fact join). 5
    for cat in _CATEGORIES:
        qs.append(_q(
            f"t4_returns_{cat.lower()}",
            f"""SELECT i_class AS class,
                       SUM(sr_return_amt) AS returned,
                       SUM(ss_ext_sales_price) AS sold
                FROM store_sales, store_returns, item
                WHERE ss_item_sk = sr_item_sk
                  AND ss_ticket_number = sr_ticket_number
                  AND ss_item_sk = i_item_sk
                  AND i_category = '{cat}'
                GROUP BY i_class ORDER BY class""",
            "store_sales", "store_returns", "item"))

    # T5: promotion effect (3 joins, two-level grouping). 5
    for y in _YEARS:
        qs.append(_q(
            f"t5_promo_{y}",
            f"""SELECT p_channel_email AS email, p_channel_tv AS tv,
                       SUM(ss_ext_sales_price) AS total_sales,
                       AVG(ss_quantity) AS avg_qty
                FROM store_sales, promotion, date_dim
                WHERE ss_promo_sk = p_promo_sk
                  AND ss_sold_date_sk = d_date_sk
                  AND d_year = {y}
                GROUP BY p_channel_email, p_channel_tv
                ORDER BY email, tv""",
            "store_sales", "promotion", "date_dim"))

    # T6: filter-heavy single-table scans (no join). 3x2 = 6
    for ch, fact in CHANNELS.items():
        for lo, hi, qty in ((50, 150, 40), (10, 60, 80)):
            qs.append(_q(
                f"t6_{ch}_scan_{lo}_{hi}",
                f"""SELECT COUNT(*) AS cnt,
                           SUM({ch}_ext_sales_price) AS total_sales,
                           MAX({ch}_net_profit) AS max_profit
                    FROM {fact}
                    WHERE {ch}_sales_price BETWEEN {lo} AND {hi}
                      AND {ch}_quantity > {qty}""",
                fact))

    # T7: deep 5-way star join. 2x5 = 10
    for ch in ("ss", "cs"):
        fact = CHANNELS[ch]
        for y in _YEARS:
            qs.append(_q(
                f"t7_{ch}_star_{y}",
                f"""SELECT i_category AS category, c_state AS state,
                           SUM({ch}_ext_sales_price) AS total_sales,
                           SUM({ch}_net_profit) AS profit
                    FROM {fact}, item, date_dim, customer, promotion
                    WHERE {ch}_item_sk = i_item_sk
                      AND {ch}_sold_date_sk = d_date_sk
                      AND {ch}_customer_sk = c_customer_sk
                      AND {ch}_promo_sk = p_promo_sk
                      AND d_year = {y}
                      AND p_channel_email = 'Y'
                    GROUP BY i_category, c_state
                    ORDER BY category, state""",
                fact, "item", "date_dim", "customer", "promotion"))

    # T8: distinct customers per year. 3
    for ch, fact in CHANNELS.items():
        qs.append(_q(
            f"t8_{ch}_distinct",
            f"""SELECT d_year AS year,
                       COUNT(DISTINCT {ch}_customer_sk) AS customers
                FROM {fact}, date_dim
                WHERE {ch}_sold_date_sk = d_date_sk
                GROUP BY d_year ORDER BY year""",
            fact, "date_dim"))

    # T9: year-over-year growth (join of two aggregated subqueries). 3x2 = 6
    for ch, fact in CHANNELS.items():
        for y in (1999, 2001):
            sub = (
                "SELECT i_category AS category, SUM({p}_ext_sales_price) AS s "
                f"FROM {fact}, item, date_dim "
                "WHERE {p}_item_sk = i_item_sk AND {p}_sold_date_sk = d_date_sk "
                "AND d_year = {y} GROUP BY i_category"
            )
            qs.append(_q(
                f"t9_{ch}_yoy_{y}",
                f"""SELECT cur.category AS category,
                           CAST(cur.s AS DOUBLE) / prev.s AS growth
                    FROM ({sub.format(p=ch, y=y)}) cur,
                         ({sub.format(p=ch, y=y - 1)}) prev
                    WHERE cur.category = prev.category
                    ORDER BY category""",
                fact, "item", "date_dim"))

    # T10: cross-channel comparison per category (two aggregated arms). 5
    for cat in _CATEGORIES:
        qs.append(_q(
            f"t10_cross_{cat.lower()}",
            f"""SELECT s.class AS class, s.amt AS store_amt, w.amt AS web_amt
                FROM (SELECT i_class AS class, SUM(ss_ext_sales_price) AS amt
                      FROM store_sales, item
                      WHERE ss_item_sk = i_item_sk AND i_category = '{cat}'
                      GROUP BY i_class) s,
                     (SELECT i_class AS class, SUM(ws_ext_sales_price) AS amt
                      FROM web_sales, item
                      WHERE ws_item_sk = i_item_sk AND i_category = '{cat}'
                      GROUP BY i_class) w
                WHERE s.class = w.class
                ORDER BY class""",
            "store_sales", "web_sales", "item"))

    # T11: HAVING rollup over brands. 5
    for cat in _CATEGORIES:
        qs.append(_q(
            f"t11_having_{cat.lower()}",
            f"""SELECT i_brand_id AS brand, SUM(ss_ext_sales_price) AS s,
                       COUNT(*) AS cnt
                FROM store_sales, item
                WHERE ss_item_sk = i_item_sk AND i_category = '{cat}'
                GROUP BY i_brand_id
                HAVING COUNT(*) > 5
                ORDER BY brand""",
            "store_sales", "item"))

    # T12: wide sorted report (big sort). 3 channels + 2 variants = 5
    for ch, fact in CHANNELS.items():
        qs.append(_q(
            f"t12_{ch}_sorted",
            f"""SELECT {ch}_item_sk AS item_sk, {ch}_ticket_number AS ticket,
                       {ch}_ext_sales_price AS price
                FROM {fact}
                WHERE {ch}_ext_sales_price > 15000
                ORDER BY price DESC, item_sk, ticket
                LIMIT 100""",
            fact))
    for y in (1998, 2002):
        qs.append(_q(
            f"t12_ss_sorted_{y}",
            f"""SELECT ss_store_sk AS store_sk, ss_item_sk AS item_sk,
                       SUM(ss_quantity) AS qty
                FROM store_sales, date_dim
                WHERE ss_sold_date_sk = d_date_sk AND d_year = {y}
                GROUP BY ss_store_sk, ss_item_sk
                ORDER BY qty DESC, store_sk, item_sk
                LIMIT 100""",
            "store_sales", "date_dim"))

    # T13: per-store performance. 5
    for y in _YEARS:
        qs.append(_q(
            f"t13_store_{y}",
            f"""SELECT s_state AS state,
                       SUM(ss_net_profit) AS profit,
                       CAST(SUM(ss_ext_sales_price) AS DOUBLE)
                           / SUM(ss_quantity) AS price_per_unit
                FROM store_sales, store, date_dim
                WHERE ss_store_sk = s_store_sk
                  AND ss_sold_date_sk = d_date_sk
                  AND d_year = {y}
                GROUP BY s_state ORDER BY state""",
            "store_sales", "store", "date_dim"))

    # T14: customer cohorts with CASE aggregation. 5
    for st in _STATES:
        qs.append(_q(
            f"t14_cohort_{st.lower()}",
            f"""SELECT FLOOR(c_birth_year / 10) * 10 AS decade,
                       SUM(CASE WHEN c_preferred_cust_flag = 'Y'
                                THEN ss_ext_sales_price ELSE 0 END) AS pref_sales,
                       SUM(ss_ext_sales_price) AS all_sales
                FROM store_sales, customer
                WHERE ss_customer_sk = c_customer_sk AND c_state = '{st}'
                GROUP BY FLOOR(c_birth_year / 10) * 10
                ORDER BY decade""",
            "store_sales", "customer"))

    # T15: quarterly trend for a category. 5
    for cat in _CATEGORIES:
        qs.append(_q(
            f"t15_trend_{cat.lower()}",
            f"""SELECT d_year AS year, d_qoy AS qoy,
                       SUM(cs_ext_sales_price) AS total_sales
                FROM catalog_sales, item, date_dim
                WHERE cs_item_sk = i_item_sk
                  AND cs_sold_date_sk = d_date_sk
                  AND i_category = '{cat}'
                GROUP BY d_year, d_qoy
                ORDER BY year, qoy""",
            "catalog_sales", "item", "date_dim"))

    # T16: global min/max/avg stats per channel. 3
    for ch, fact in CHANNELS.items():
        qs.append(_q(
            f"t16_{ch}_stats",
            f"""SELECT MIN({ch}_sales_price) AS min_price,
                       MAX({ch}_sales_price) AS max_price,
                       AVG({ch}_ext_sales_price) AS avg_ext,
                       SUM({ch}_wholesale_cost) AS total_cost
                FROM {fact}""",
            fact))

    # T17: brand/manager drill-down. 3
    for m in (10, 50, 90):
        qs.append(_q(
            f"t17_manager_{m}",
            f"""SELECT i_brand_id AS brand, SUM(ws_ext_sales_price) AS s
                FROM web_sales, item, date_dim
                WHERE ws_item_sk = i_item_sk
                  AND ws_sold_date_sk = d_date_sk
                  AND i_manager_id <= {m}
                  AND d_moy = 12
                GROUP BY i_brand_id ORDER BY s DESC, brand LIMIT 10""",
            "web_sales", "item", "date_dim"))

    # T18: preferred-customer share per state. 3
    for ch, fact in CHANNELS.items():
        qs.append(_q(
            f"t18_{ch}_preferred",
            f"""SELECT c_state AS state, COUNT(*) AS cnt
                FROM {fact}, customer
                WHERE {ch}_customer_sk = c_customer_sk
                  AND c_preferred_cust_flag = 'Y'
                GROUP BY c_state ORDER BY state""",
            fact, "customer"))

    assert len(qs) == 103, f"expected 103 queries, built {len(qs)}"
    assert len({q.name for q in qs}) == 103, "duplicate query names"
    return qs


QUERIES: list[Query] = _build_queries()


def queries() -> list[Query]:
    """All 103 workload queries (a fresh list; QUERIES itself is shared)."""
    return list(QUERIES)


def query_by_name(name: str) -> Query:
    for q in QUERIES:
        if q.name == name:
            return q
    raise KeyError(name)
