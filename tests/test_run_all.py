"""The section table of ``jobs/run_all.py``, checked without Spark."""
import importlib
import inspect
import json
import pkgutil

import pytest

import repro.experiments
from jobs import run_all
from repro.core.training import run_cross_validation
from repro.experiments import common
from repro.experiments.common import SF_MAP


def test_one_section_per_experiment_module():
    modules = {
        m.name[len("exp_"):]
        for m in pkgutil.iter_modules(repro.experiments.__path__)
        if m.name.startswith("exp_")
    }
    assert set(run_all.SECTIONS) == modules


@pytest.mark.parametrize("name", list(run_all.SECTIONS))
def test_section_arguments_match_format_report(name):
    exp = importlib.import_module(f"repro.experiments.exp_{name}")
    params = inspect.signature(exp.format_report).parameters
    assert len(params) == len(run_all.SECTIONS[name])
    for arg in run_all.SECTIONS[name]:
        assert arg == "spark" or arg in SF_MAP


def test_no_argument_selects_every_section_in_order():
    assert run_all.select([]) == list(run_all.SECTIONS)
    assert run_all.select(["allocation", "prediction"]) == ["allocation", "prediction"]


def test_unknown_section_rejected_with_the_valid_ones():
    with pytest.raises(SystemExit) as e:
        run_all.select(["prediction", "fig99"])
    msg = str(e.value)
    assert "fig99" in msg
    assert all(name in msg for name in run_all.SECTIONS)


def test_warm_section_starts_no_spark(monkeypatch, capsys):
    """On the committed dataset cache, a section that needs no session
    runs without starting Spark (the CV is cut to 2×3 for speed)."""
    with open(common._cache_path(0.1, common.DEFAULT_CACHE)) as f:
        key = json.load(f)["key"]
    assert key == common.dataset_key(0.1), "the committed sf=0.1 dataset is stale; rebuild it"

    def no_spark():
        raise AssertionError("get_session called on a warm cache")

    monkeypatch.setattr(run_all, "get_session", no_spark)
    monkeypatch.setattr(
        common,
        "run_cross_validation",
        lambda records, *, family, **_: run_cross_validation(
            records, family=family, repeats=2, folds=3
        ),
    )
    run_all.main(["prediction"])
    out, err = capsys.readouterr()
    assert "== Fig 9: E(n) from 10-repeated 5-fold CV ==" in out
    assert err.startswith("prediction: ")
