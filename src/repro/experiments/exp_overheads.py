"""Experiment: training and scoring overheads (§5.6).

Measures the reproduction's analogues of every number in §5.6:

- per-point PPM parameter-fit time, the median of 5 passes over every
  query (paper ~0.3 ms),
- Random-Forest training time over all 103 queries, the median of 5
  fits of the forest alone, on PPM-parameter targets fitted beforehand
  (paper ~79 ms with sklearn's C implementation; ours is numpy, in one
  process),
- parameter-model scoring time (paper ~3.6 ms),
- portable-model save size, one-time load/setup time (the median of 5
  cold loads), and per-query inference time (paper: ~1 MB ONNX,
  ~88/47 ms, ~0.9 ms),
- plan featurization time inside the optimizer (paper ~10.3 ms), the
  median of 5 timings per plan, and the only number that needs a
  SparkSession: :func:`featurization_ms`.
"""
from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass

from repro.core import ppm as ppm_mod
from repro.core.autoexecutor import train_and_register
from repro.core.features import featurize_plan
from repro.core.parameter_model import fit_ppm, fit_ppm_targets
from repro.experiments.common import Dataset
from repro.ml.forest import RandomForestRegressor
from repro.ml.portable import ModelRegistry
from repro.workloads.tpcds_lite import QUERIES, materialize


@dataclass
class Overheads:
    ppm_fit_ms_per_point: float
    rf_train_ms: float
    score_ms: float
    model_size_mb: float
    load_ms: float
    cached_get_ms: float
    inference_ms: float


def measure(ds: Dataset) -> Overheads:
    records = ds.records
    examples = [r.to_example() for r in records]

    fits = []  # one pass takes a few ms, so one sample swings with the host's load
    for _ in range(5):
        t0 = time.perf_counter()
        for ex in examples:
            fit_ppm("AE_PL", ex.times)
        fits.append((time.perf_counter() - t0) / len(examples) * 1e3)
    fit_ms = statistics.median(fits)

    X, y = [ex.features for ex in examples], fit_ppm_targets("AE_PL", examples)
    train = []  # one cold fit swings up to 2x with the host's load
    for _ in range(5):
        t0 = time.perf_counter()
        forest = RandomForestRegressor(random_state=0).fit(X, y)
        train.append((time.perf_counter() - t0) * 1e3)
    train_ms = statistics.median(train)

    feats = records[0].features
    ppm_mod.from_params("AE_PL", forest.predict([feats])[0])  # warm
    t0 = time.perf_counter()
    for _ in range(20):
        ppm_mod.from_params("AE_PL", forest.predict([feats])[0])
    score_ms = (time.perf_counter() - t0) / 20 * 1e3

    with tempfile.TemporaryDirectory() as tmp:
        # the same random_state=0 forest as the timed fits, so the same bytes
        size = train_and_register(ModelRegistry(tmp), "m", "AE_PL", examples)
        loads = []  # each from a fresh registry, so every get is cold
        for _ in range(5):
            reg = ModelRegistry(tmp)
            t0 = time.perf_counter()
            pm = reg.get("m")
            loads.append((time.perf_counter() - t0) * 1e3)
        load_ms = statistics.median(loads)
        t0 = time.perf_counter()
        for _ in range(50):
            reg.get("m")
        cached_ms = (time.perf_counter() - t0) / 50 * 1e3
        pm.predict(feats)  # warm
        t0 = time.perf_counter()
        for _ in range(20):
            pm.predict(feats)
        infer_ms = (time.perf_counter() - t0) / 20 * 1e3

    return Overheads(
        ppm_fit_ms_per_point=fit_ms,
        rf_train_ms=train_ms,
        score_ms=score_ms,
        model_size_mb=size / 1e6,
        load_ms=load_ms,
        cached_get_ms=cached_ms,
        inference_ms=infer_ms,
    )


def featurization_ms(spark) -> list[float]:
    """Time of ``featurize_plan`` (the plan walk and the Table-2 features)
    on every query's optimized plan, the median of 5 timings per plan.

    The tables are a temporary sf=0.005 copy, since a cached dataset
    registers none. Every query is analysed and optimized before the
    timer starts, so only the featurization is timed, as in the paper.
    """
    with tempfile.TemporaryDirectory() as root:
        materialize(spark, sf=0.005, root=root)
        dfs = [spark.sql(q.sql) for q in QUERIES]
        for df in dfs:
            df._jdf.queryExecution().optimizedPlan()
        featurize_plan(dfs[0])  # warm
        ms = []
        for df in dfs:
            runs = []  # one timing swings with the host's load, as the RF fit does
            for _ in range(5):
                t0 = time.perf_counter()
                featurize_plan(df)
                runs.append((time.perf_counter() - t0) * 1e3)
            ms.append(statistics.median(runs))
    return ms


def format_report(ds: Dataset, spark) -> str:
    o = measure(ds)
    feat = featurization_ms(spark)
    return "\n".join(
        [
            "== §5.6 overheads (ours vs paper) ==",
            f"PPM param fit / query:     {o.ppm_fit_ms_per_point:7.2f} ms   (paper ~0.3 ms)",
            f"RF training (103 queries): {o.rf_train_ms:7.0f} ms   (paper ~79 ms, sklearn C)",
            f"parameter-model scoring:   {o.score_ms:7.2f} ms   (paper ~3.6 ms)",
            f"portable model size:       {o.model_size_mb:7.2f} MB   (paper ~1 MB ONNX)",
            f"model load (cold):         {o.load_ms:7.1f} ms   (paper ~88+47 ms)",
            f"model get (cached):        {o.cached_get_ms:7.3f} ms   (load-once cache)",
            f"inference per query:       {o.inference_ms:7.2f} ms   (paper ~0.9 ms)",
            f"plan featurization:        {sum(feat) / len(feat):7.1f} ms   (paper ~10.3 ms)"
            f"   max {max(feat):.1f} ms over {len(feat)} queries",
        ]
    )
