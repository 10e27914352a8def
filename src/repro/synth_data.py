"""Synthetic TPC-DS-lite star schema at a configurable scale factor.

The paper evaluates on TPC-DS SF=10/100. dsdgen is unavailable offline, so
these generators produce a synthetic star schema with the same shape: three
sales channels + returns facts, and conformed dimensions. Row counts scale
like TPC-DS (facts linear in SF, dims sub-linear). SF mapping used by the
reproduction: paper SF=10 -> sf=0.01, SF=100 -> sf=0.1 (see DESIGN.md).
Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_N_STORE_SALES_PER_SF = 2_880_000
_N_CATALOG_SALES_PER_SF = 1_440_000
_N_WEB_SALES_PER_SF = 720_000
_N_STORE_RETURNS_PER_SF = 288_000

_DATE_SK0 = 2450815  # julian-ish date_sk of 1998-01-01, as in TPC-DS
_N_DATES = 365 * 5  # 1998-01-01 .. 2002-12-30


def _dim_n(base: int, sf: float, floor: int) -> int:
    """Sub-linear dimension scaling, roughly like TPC-DS dimension growth."""
    return max(floor, int(base * (max(sf, 1e-6) * 100) ** 0.5))


def date_dim(spark: SparkSession, *, sf: float = 0.01, seed: int = 10) -> DataFrame:
    """Calendar dimension; fixed size (TPC-DS date_dim does not scale)."""
    del sf, seed  # fixed-size, deterministic
    sks = np.arange(_DATE_SK0, _DATE_SK0 + _N_DATES)
    dates = pd.to_datetime("1998-01-01") + pd.to_timedelta(np.arange(_N_DATES), unit="D")
    pdf = pd.DataFrame(
        {
            "d_date_sk": sks,
            "d_date": dates,
            "d_year": dates.year.astype("int64"),
            "d_moy": dates.month.astype("int64"),
            "d_qoy": ((dates.month - 1) // 3 + 1).astype("int64"),
            "d_dom": dates.day.astype("int64"),
            "d_day_name": dates.day_name(),
        }
    )
    return spark.createDataFrame(pdf)


def item(spark: SparkSession, *, sf: float = 0.01, seed: int = 11) -> DataFrame:
    n = _dim_n(1800, sf, 50)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "i_item_sk": np.arange(1, n + 1),
            "i_brand_id": g.integers(1, 1000, n),
            "i_class": g.choice([f"class#{i}" for i in range(1, 17)], n),
            "i_category": g.choice(
                ["Books", "Electronics", "Home", "Jewelry", "Men",
                 "Music", "Shoes", "Sports", "Women", "Children"], n
            ),
            "i_current_price": (g.random(n) * 99 + 1).round(2),
            "i_manager_id": g.integers(1, 101, n),
        }
    )
    return spark.createDataFrame(pdf)


def tpcds_customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 12) -> DataFrame:
    n = _dim_n(10_000, sf, 200)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_customer_sk": np.arange(1, n + 1),
            "c_birth_year": g.integers(1930, 2000, n),
            "c_state": g.choice(
                ["CA", "TX", "NY", "WA", "FL", "IL", "GA", "OH", "MI", "NC"], n
            ),
            "c_preferred_cust_flag": g.choice(["Y", "N"], n),
        }
    )
    return spark.createDataFrame(pdf)


def store(spark: SparkSession, *, sf: float = 0.01, seed: int = 13) -> DataFrame:
    n = _dim_n(12, sf, 4)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "s_store_sk": np.arange(1, n + 1),
            "s_state": g.choice(["CA", "TX", "NY", "WA", "FL"], n),
            "s_number_employees": g.integers(200, 300, n),
        }
    )
    return spark.createDataFrame(pdf)


def promotion(spark: SparkSession, *, sf: float = 0.01, seed: int = 14) -> DataFrame:
    n = _dim_n(30, sf, 10)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_promo_sk": np.arange(1, n + 1),
            "p_channel_email": g.choice(["Y", "N"], n),
            "p_channel_tv": g.choice(["Y", "N"], n),
        }
    )
    return spark.createDataFrame(pdf)


def _sales_fact(
    spark: SparkSession, *, prefix: str, n_rows: int, sf: float, seed: int
) -> DataFrame:
    """Shared generator for the three sales channels.

    Columns are ``<prefix>_item_sk``, ``<prefix>_customer_sk``, etc.
    Date keys are skewed toward later years (sales growth), item keys are
    Zipf-skewed so joins see realistic key skew.
    """
    g = _rng(seed)
    n_item = _dim_n(1800, sf, 50)
    n_cust = _dim_n(10_000, sf, 200)
    n_store = _dim_n(12, sf, 4)
    n_promo = _dim_n(30, sf, 10)
    ranks = np.arange(1, n_item + 1)
    w = 1.0 / ranks**0.8
    w /= w.sum()
    qty = g.integers(1, 100, n_rows).astype("float64")
    price = (g.random(n_rows) * 200 + 1).round(2)
    pdf = pd.DataFrame(
        {
            f"{prefix}_sold_date_sk": _DATE_SK0 + (
                (g.random(n_rows) ** 0.7) * _N_DATES
            ).astype("int64"),
            f"{prefix}_item_sk": g.choice(ranks, size=n_rows, p=w),
            f"{prefix}_customer_sk": g.integers(1, n_cust + 1, n_rows),
            f"{prefix}_store_sk": g.integers(1, n_store + 1, n_rows),
            f"{prefix}_promo_sk": g.integers(1, n_promo + 1, n_rows),
            f"{prefix}_ticket_number": np.arange(1, n_rows + 1),
            f"{prefix}_quantity": qty,
            f"{prefix}_sales_price": price,
            f"{prefix}_ext_sales_price": (qty * price).round(2),
            f"{prefix}_net_profit": ((g.random(n_rows) - 0.3) * 1000).round(2),
            f"{prefix}_wholesale_cost": (g.random(n_rows) * 80 + 1).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def store_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 20) -> DataFrame:
    n = max(100, int(_N_STORE_SALES_PER_SF * sf))
    return _sales_fact(spark, prefix="ss", n_rows=n, sf=sf, seed=seed)


def catalog_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 21) -> DataFrame:
    n = max(100, int(_N_CATALOG_SALES_PER_SF * sf))
    return _sales_fact(spark, prefix="cs", n_rows=n, sf=sf, seed=seed)


def web_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 22) -> DataFrame:
    n = max(100, int(_N_WEB_SALES_PER_SF * sf))
    return _sales_fact(spark, prefix="ws", n_rows=n, sf=sf, seed=seed)


def store_returns(spark: SparkSession, *, sf: float = 0.01, seed: int = 23) -> DataFrame:
    """Returns fact; keys overlap store_sales so returns-ratio joins match rows."""
    n = max(50, int(_N_STORE_RETURNS_PER_SF * sf))
    n_ss = max(100, int(_N_STORE_SALES_PER_SF * sf))
    g = _rng(seed)
    n_item = _dim_n(1800, sf, 50)
    n_cust = _dim_n(10_000, sf, 200)
    pdf = pd.DataFrame(
        {
            "sr_returned_date_sk": _DATE_SK0 + g.integers(0, _N_DATES, n),
            "sr_item_sk": g.integers(1, n_item + 1, n),
            "sr_customer_sk": g.integers(1, n_cust + 1, n),
            "sr_ticket_number": g.integers(1, n_ss + 1, n),
            "sr_return_quantity": g.integers(1, 50, n).astype("float64"),
            "sr_return_amt": (g.random(n) * 500).round(2),
        }
    )
    return spark.createDataFrame(pdf)
