"""Pinned E(n) tables (Eq. 6) on the committed datasets.

Fig 4's fit to the Sparklens estimates, the raw Sparklens series, the
train and test E(n) of a one-repeat 5-fold CV (Fig 9) and Fig 14's
cross-SF errors between the sf=0.1 snapshot and the cached sf=0.01
dataset. A change to a PPM fit, a predicted curve or the order in which
E(n) sums its queries changes a digest. Spark-free.
"""
import functools
import hashlib

import pytest

from repro.core.training import error_by_n, run_cross_validation, sparklens_error_by_n
from repro.experiments import common, exp_prediction, exp_scalefactor
from tests.snapshot import snapshot_records, snapshot_skeletons

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
def folds(family: str) -> list:
    return run_cross_validation(dataset(0.1).records, family=family, repeats=1)


def table(case: str) -> dict:
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
    return error_by_n(records, folds(family), on_train=split == "train")


@pytest.mark.parametrize("case", list(PINNED_SHA256))
def test_pinned_error_table(case):
    assert digest(table(case)) == PINNED_SHA256[case]
