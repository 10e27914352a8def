"""Unit tests for the synthetic data generators (TPC-DS-lite)."""
import pytest

from repro import synth_data

TPCDS_TABLES = [
    "store_sales",
    "catalog_sales",
    "web_sales",
    "store_returns",
    "date_dim",
    "item",
    "tpcds_customer",
    "store",
    "promotion",
]


@pytest.mark.parametrize("table", TPCDS_TABLES)
def test_generator_deterministic(spark, table):
    gen = getattr(synth_data, table)
    a = gen(spark, sf=0.002).toPandas()
    b = gen(spark, sf=0.002).toPandas()
    assert a.equals(b)


@pytest.mark.parametrize("table", TPCDS_TABLES)
def test_generator_nonempty(spark, table):
    gen = getattr(synth_data, table)
    assert gen(spark, sf=0.002).count() > 0


def test_fact_tables_scale_linearly(spark):
    small = synth_data.store_sales(spark, sf=0.001).count()
    big = synth_data.store_sales(spark, sf=0.005).count()
    assert big == pytest.approx(5 * small, rel=0.01)


def test_dimensions_scale_sublinearly(spark):
    small = synth_data.item(spark, sf=0.001).count()
    big = synth_data.item(spark, sf=0.01).count()
    assert small < big < 10 * small


def test_date_dim_fixed_size(spark):
    a = synth_data.date_dim(spark, sf=0.001).count()
    b = synth_data.date_dim(spark, sf=0.1).count()
    assert a == b == 365 * 5


def test_date_dim_fields_consistent(spark):
    pdf = synth_data.date_dim(spark, sf=0.002).toPandas()
    assert pdf.d_year.between(1998, 2002).all()
    assert pdf.d_moy.between(1, 12).all()
    assert pdf.d_qoy.between(1, 4).all()
    assert ((pdf.d_moy - 1) // 3 + 1 == pdf.d_qoy).all()


def test_sales_fact_keys_reference_dimensions(spark):
    sf = 0.002
    ss = synth_data.store_sales(spark, sf=sf).toPandas()
    items = synth_data.item(spark, sf=sf).toPandas()
    dates = synth_data.date_dim(spark, sf=sf).toPandas()
    assert ss.ss_item_sk.isin(items.i_item_sk).all()
    assert ss.ss_sold_date_sk.isin(dates.d_date_sk).all()


def test_item_skew_present(spark):
    """Item keys are Zipf-skewed: the top item sells far more than median."""
    ss = synth_data.store_sales(spark, sf=0.01).toPandas()
    counts = ss.ss_item_sk.value_counts()
    assert counts.iloc[0] > 3 * counts.median()


def test_returns_reference_sales_tickets(spark):
    sf = 0.002
    sr = synth_data.store_returns(spark, sf=sf).toPandas()
    n_ss = max(100, int(2_880_000 * sf))
    assert sr.sr_ticket_number.between(1, n_ss).all()


def test_ext_price_is_qty_times_price(spark):
    ss = synth_data.store_sales(spark, sf=0.002).toPandas()
    assert (
        (ss.ss_ext_sales_price - (ss.ss_quantity * ss.ss_sales_price).round(2)).abs()
        < 0.02
    ).all()

