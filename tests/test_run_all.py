"""The section table of ``jobs/run_all.py``, checked without Spark."""
import importlib
import inspect
import pkgutil

import pytest

import repro.experiments
from jobs import run_all
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
    """On the committed datasets, a section that needs no session runs
    without starting Spark."""

    def no_spark():
        raise AssertionError("get_session called on the committed datasets")

    monkeypatch.setattr(run_all, "get_session", no_spark)
    run_all.main(["ground_truth"])
    out, err = capsys.readouterr()
    assert "== Fig 3c: optimal executor count distribution ==" in out
    assert err.startswith("ground_truth: ")
