"""Reproduce the §5.6 overhead table (training/scoring/featurization).

Usage: spark-submit jobs/overheads.py
"""
import tempfile
import time

try:
    from _session import get_session  # spark-submit puts jobs/ on sys.path
except ImportError:  # running as a module from the repo root
    from jobs._session import get_session


def main() -> None:
    spark = get_session("overheads")
    from repro.experiments import exp_overheads
    from repro.experiments.common import dataset_for_paper_sf
    from repro.core.features import featurize_plan
    from repro.workloads.tpcds_lite import QUERIES, materialize

    ds = dataset_for_paper_sf(spark, 100)
    print(exp_overheads.format_report(ds))

    # plan featurization needs a live optimizer — measured here, not in
    # the Spark-free experiment module. A cached dataset registers no
    # tables, so materialize a small copy. Every query is analysed and
    # optimized before the timer starts: only featurize_plan (the plan
    # walk and the Table-2 features) is timed, as in the paper.
    with tempfile.TemporaryDirectory() as root:
        materialize(spark, sf=0.005, root=root)
        dfs = [spark.sql(q.sql) for q in QUERIES]
        for df in dfs:
            df._jdf.queryExecution().optimizedPlan()
        featurize_plan(dfs[0])  # warm
        ms = []
        for df in dfs:
            t0 = time.perf_counter()
            featurize_plan(df)
            ms.append((time.perf_counter() - t0) * 1e3)
    print(
        f"plan featurization:        {sum(ms) / len(ms):7.1f} ms   (paper ~10.3 ms)"
        f"   max {max(ms):.1f} ms over {len(ms)} queries"
    )
    spark.stop()


if __name__ == "__main__":
    main()
