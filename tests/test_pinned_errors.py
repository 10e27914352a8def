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
    "fit_to_sparklens": "d289879980d398b7129597fec21d90ff4064e647bebac6fbce67bc3cd3fc5882",
    "sparklens_error_by_n": "d87a3d5a718e70bf76ca139ec45322d85b5c45fa0b53457ccb4cb15677b02eb7",
    "error_by_n AE_PL train": "01c69e5afcd23efaf72e906b13a21e83004dc22a15e01895dd376da4fad7d10b",
    "error_by_n AE_PL test": "3f438ad0a0313232501fb479a1b39928753e060912948115e96ca2d5a5017276",
    "error_by_n AE_AL train": "12cf80b0eea2b33f5fb36403c21754f1d44b01c9bc22ab3e495cb5e62190a235",
    "error_by_n AE_AL test": "db47a3c518a92b5103f6a0a7814a02962347d96fac35aa9a91bc4f39b5584d3f",
    "cross_sf_errors sf0.1 to sf0.01": "df266642bedecf817b950a514963bac43efc422a28d5f354589b4e27f137d00e",
    "cross_sf_errors sf0.01 to sf0.1": "be3167a61eac075e713e2406eee6cc98a75957ae265a8e05615b62d1d9824f1e",
    "limited_slowdown_table": "2cb4f43423e5cf681d44bbf5a755c3189be24e0ebae8c6d7f6027c525aad3319",
    "static_speedups": "8746cf3c2e58e4411dbdf5250d591b54d38ebb475221475f9845a18d644def3d",
    "elbow_distribution": "00de4bacd8fbdbb3a812e527f1c12810968e800eebbe568382025b4278c3eca7",
    "summarize(compare_policies)": "c3eb7d672f1a0871194269855f41598e3cb9232c004fddb76d77779813698d5d",
    "n_hat by query": "b7c06754481b7b5455da5e0ae1bbf757cf4cb59e920c65e0c5bb68bd8abc25c2",
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
    """The snapshot's stored records at sf=0.1, the cached dataset at sf=0.01."""
    if sf == 0.1:
        return common.Dataset(sf=sf, records=snapshot_records(), skeletons=snapshot_skeletons())
    ds = common.load_cached_dataset(sf)
    assert ds is not None, f"the committed sf={sf} cache is missing or stale"
    return ds


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
