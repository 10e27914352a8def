"""Synthetic production Spark workload trace (§2 insights substitute).

The paper motivates per-query resource allocation with proprietary
telemetry from Microsoft's production Spark workloads: 90,224
applications, 840,278 queries, 3,245 clusters. That data is unavailable,
so this module generates a synthetic trace whose *marginals match the
paper's published statistics*, and the §2 analyses are then reproduced
over it with Spark SQL (``repro.experiments.exp_workload_insights``):

- Fig 2a: >60 % of applications have more than one query;
- Fig 2b: median coefficient of variation within an app ≥ 20 % for
  operator counts, ≥ 40 % for input rows, ≥ 60 % for execution times;
- Fig 2c: ~70 % of applications share their cluster with no other
  concurrent application;
- §2.2/Fig 3a-b: 59 % of apps enable dynamic allocation; 97 % of those
  keep the default (0, 2³¹−1) executor bounds, the rest set small ranges
  (~60 % with a range of 2); 80 % of non-DA apps run with the default
  executor count of 2.

The trace is generated at a configurable scale (default 1/10th of the
paper's app count) with a fixed seed, as a list of per-query rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

MAX_INT32 = 2**31 - 1

#: the shares of apps that the paper publishes (§2)
P_DYNAMIC_ALLOCATION = 0.59
P_DEFAULT_BOUNDS = 0.97  # among DA apps
P_DEFAULT_STATIC_N = 0.80  # among non-DA apps: n = 2
P_MULTI_QUERY = 0.62  # apps with > 1 query
P_EXCLUSIVE_CLUSTER = 0.70  # apps sharing cluster with nobody


@dataclass
class TraceConfig:
    """Scale and seed of the synthetic trace."""

    n_apps: int = 9000
    n_clusters: int = 325
    seed: int = 7


def generate_trace(
    spark: SparkSession, config: TraceConfig | None = None
) -> tuple[DataFrame, DataFrame]:
    """Return (apps_df, queries_df) Spark DataFrames.

    ``apps_df``: one row per application — cluster, DA settings,
    executor bounds, concurrency group. ``queries_df``: one row per
    query — operator count, input rows, execution time, drawn so that
    within-app CoVs land near the paper's Fig 2b distributions.
    """
    cfg = config or TraceConfig()
    g = np.random.default_rng(cfg.seed)
    n = cfg.n_apps

    # --- application-level attributes -------------------------------------
    multi = g.random(n) < P_MULTI_QUERY
    # heavy-tailed queries-per-app for multi-query apps (2..~200)
    nq = np.where(multi, 2 + np.floor(g.pareto(1.1, n) * 3).astype(int), 1)
    nq = np.clip(nq, 1, 400)
    da = g.random(n) < P_DYNAMIC_ALLOCATION
    default_bounds = g.random(n) < P_DEFAULT_BOUNDS
    # custom ranges for the 3% of DA apps: ~60% have range 2, rest up to 64
    custom_range = np.where(
        g.random(n) < 0.6, 2, np.minimum(64, 2 ** g.integers(2, 7, n))
    )
    max_exec = np.where(
        da, np.where(default_bounds, MAX_INT32, custom_range), 0
    )
    static_n = np.where(
        g.random(n) < P_DEFAULT_STATIC_N, 2, g.integers(1, 33, n)
    )
    # cluster assignment: ~70% of apps get an exclusive cluster slot
    exclusive = g.random(n) < P_EXCLUSIVE_CLUSTER
    cluster = np.where(
        exclusive,
        g.integers(0, cfg.n_clusters, n),
        g.integers(0, max(1, cfg.n_clusters // 10), n),
    )
    # app start times: exclusive apps are spread out; shared apps clumped
    start = np.where(
        exclusive, g.uniform(0, 604_800, n), g.uniform(0, 3_600, n)
    )
    duration = g.lognormal(5.5, 1.0, n)

    apps = pd.DataFrame(
        {
            "app_id": np.arange(n),
            "cluster_id": cluster,
            "num_queries": nq,
            "dynamic_allocation": da,
            "min_executors": np.zeros(n, dtype="int64"),  # no app sets a lower bound
            "max_executors": max_exec.astype("int64"),
            "static_executors": np.where(da, 0, static_n).astype("int64"),
            "start_time": start,
            "end_time": start + duration,
        }
    )

    # --- query-level attributes -------------------------------------------
    app_ids = np.repeat(np.arange(n), nq)
    m = len(app_ids)
    # per-app baselines; per-query lognormal spread calibrated to Fig 2b
    base_ops = np.repeat(g.integers(5, 80, n), nq)
    base_rows = np.repeat(g.lognormal(12, 2.0, n), nq)
    base_time = np.repeat(g.lognormal(3.5, 1.2, n), nq)
    ops = np.maximum(
        1, (base_ops * g.lognormal(0, 0.25, m)).astype("int64")
    )
    rows = (base_rows * g.lognormal(0, 0.5, m)).astype("int64")
    times = base_time * g.lognormal(0, 0.75, m)
    queries = pd.DataFrame(
        {
            "app_id": app_ids,
            "query_id": np.arange(m),
            "num_operators": ops,
            "input_rows": rows,
            "exec_time_sec": times,
        }
    )
    return spark.createDataFrame(apps), spark.createDataFrame(queries)
