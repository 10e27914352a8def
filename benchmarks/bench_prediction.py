"""Benchmark: Fig 9 — one CV fold of parameter-model training + scoring."""
import numpy as np

from repro.core.parameter_model import ParameterModel
from repro.core.training import sparklens_error_by_n


def test_bench_train_one_fold(benchmark, ds100):
    """Fit the AE_PL parameter model on an 80% fold (the §5.2 unit)."""
    train = ds100.records[: int(len(ds100.records) * 0.8)]
    examples = [r.to_example() for r in train]

    model = benchmark(
        lambda: ParameterModel(family="AE_PL", random_state=0).fit(examples)
    )
    assert model.forest is not None


def test_bench_score_all_queries(benchmark, ds100):
    """Score the fitted model once per query (the per-query §4.4 path)."""
    model = ParameterModel(family="AE_PL", random_state=0).fit(
        [r.to_example() for r in ds100.records]
    )

    def score():
        return [model.predict_ppm(r.features) for r in ds100.records]

    ppms = benchmark(score)
    assert len(ppms) == 103
    assert all(p.time(1) >= p.time(48) for p in ppms)


def test_bench_sparklens_error_metric(benchmark, ds100):
    errs = benchmark(sparklens_error_by_n, ds100.records)
    assert errs[1] > errs[16]  # Fig 9 shape: worst at n=1
