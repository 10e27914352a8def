"""Pinned E(n) and selection tables on the committed datasets.

Fig 4's fit to the Sparklens estimates, the raw Sparklens series, the
train and test E(n) of a one-repeat 5-fold CV (Fig 9) and Fig 14's
cross-SF errors between the sf=0.1 snapshot and the cached sf=0.01
dataset. A change to a PPM fit, a predicted curve or the order in which
E(n) sums its queries changes a digest. The §5.3 tables (Fig 10, the
static speedups, Fig 11) and the §5.4 summary with each query's n̂ read
the same one-repeat CVs, so a change to how n̂ is chosen from a
predicted PPM changes a digest too. Spark-free.
"""
import functools
import hashlib

import pytest

from repro.core.training import error_by_n, sparklens_error_by_n
from repro.experiments import (
    common,
    exp_allocation,
    exp_prediction,
    exp_scalefactor,
    exp_selection,
)
from tests.snapshot import snapshot_cv, snapshot_records, snapshot_skeletons

#: sha256 over each table's keys and exact (hex) float values
PINNED_SHA256 = {
    "fit_to_sparklens": "634d2fdd8e3d169e9141d5622e406edfe389aeea89feef25558dff5db6439075",
    "sparklens_error_by_n": "d87a3d5a718e70bf76ca139ec45322d85b5c45fa0b53457ccb4cb15677b02eb7",
    "error_by_n AE_PL train": "f636abbf077ef0cb7340d42a4e2ee8a04815bc1899f80804f3a17c779e763d78",
    "error_by_n AE_PL test": "996b762cfcfdebded17889b6490452e383a484f1c8efa05dd98ee74d7ea426d6",
    "error_by_n AE_AL train": "a514df27deb550447ad51c25bfe33df02614ff5a83199f58ec6dd66417e57ab2",
    "error_by_n AE_AL test": "06b642a3dc79cadd99d3b5c33a424dca3be11c92462a2e07cedc2b0b10f09b67",
    "cross_sf_errors sf0.1 to sf0.01": "740f0f2010bd413942a517cfdd38de08d91eeaf520818d3c706f118e1dd93c10",
    "cross_sf_errors sf0.01 to sf0.1": "17d8cf9520c08af9f80fb76c24c679c3127e89c001f4c60791ff814176d4ee4e",
    "limited_slowdown_table": "fd349d8e08b258a6c86e56c170b04c49a8763aa34dc9c1134b79463944d45069",
    "static_speedups": "bf76cd7e4866f8182559fa976b9d5598d009096257a7eebedfd9a3b58e7bdea1",
    "elbow_distribution": "cc15027d676898f3e8f6e1fde07682add66717cc4e1b32ff7c014b81ca6f070e",
    "summarize(compare_policies)": "b89b67ce1470d6050c8f132fb77fc13bc0404cb1102210b84e9bbb5ad89f472f",
    "n_hat by query": "96e3b50621a0e537d4631d4f8dbf5f20a90c27534258b6bd9878203a10b6c562",
}


def digest(table) -> str:
    def walk(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield repr(k)
                yield from walk(v)
        elif isinstance(obj, tuple):
            for v in obj:
                yield from walk(v)
        else:
            yield float(obj).hex()

    return hashlib.sha256("|".join(walk(table)).encode()).hexdigest()


@functools.cache
def dataset(sf: float) -> common.Dataset:
    """The snapshot's stored records at sf=0.1, the committed dataset at sf=0.01."""
    if sf == 0.1:
        return common.Dataset(sf=sf, records=snapshot_records(), skeletons=snapshot_skeletons())
    return common.load_dataset(sf, no_spark)


def no_spark():
    raise AssertionError("the committed sf=0.01 dataset is missing")


@functools.cache
def cv_dataset() -> common.Dataset:
    """The snapshot, with the one-repeat CVs of both families as its CV."""
    ds = dataset(0.1)
    cvs = {family: snapshot_cv(family) for family in ("AE_PL", "AE_AL")}
    return common.Dataset(sf=ds.sf, records=ds.records, skeletons=ds.skeletons, folds=cvs)


@functools.cache
def comparisons() -> list:
    return exp_allocation.compare_policies(cv_dataset())


def table(case: str) -> dict:
    if case == "limited_slowdown_table":
        return exp_selection.limited_slowdown_table(cv_dataset())
    if case == "static_speedups":
        return exp_selection.static_speedups(cv_dataset())
    if case == "elbow_distribution":
        dist = exp_selection.elbow_distribution(cv_dataset())
        return {series: dict(sorted(ls.items())) for series, ls in dist.items()}
    if case == "summarize(compare_policies)":
        return exp_allocation.summarize(comparisons())
    if case == "n_hat by query":
        return {c.query: c.prediction.n_selected for c in comparisons()}
    if case.startswith("cross_sf_errors"):
        big, small = dataset(0.1), dataset(0.01)
        train, test = (big, small) if case.endswith("to sf0.01") else (small, big)
        return exp_scalefactor.cross_sf_errors(train, test)
    records = dataset(0.1).records
    if case == "fit_to_sparklens":
        return exp_prediction.fit_to_sparklens(dataset(0.1))
    if case == "sparklens_error_by_n":
        return sparklens_error_by_n(records)
    _, family, split = case.split()
    return error_by_n(records, snapshot_cv(family), on_train=split == "train")


@pytest.mark.parametrize("case", list(PINNED_SHA256))
def test_pinned_error_table(case):
    assert digest(table(case)) == PINNED_SHA256[case]
