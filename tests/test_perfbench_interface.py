"""What the benchmark uses of the program still exists and still works.

``perfbench/workloads.py`` is imported as ``perfbench/run.py`` imports it
(with ``perfbench/`` on ``sys.path``); the Spark-free workloads set up,
run and check two ops each, and every workload's tracing patch finds the
functions it wraps. A renamed or re-signed ``repro`` name then fails
here, not as failed ops of a benchmark run. Spark-free; nothing under
``perfbench/`` is written.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    was = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = was
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["cv_train", "sim_eval"])
def test_workload_runs_and_checks_its_ops(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path), workloads.HostClock())
    wl.setup(2)
    ops = wl.ops()
    assert len(ops) == 2
    for i, op in enumerate(ops):
        seconds, result = wl.run_op(i, op, workloads.Tracer(False))
        assert seconds > 0
        wl.check_op(op, result)
    quality = wl.finish()
    assert set(quality) == {"pred_err_pct", "auc_saved_pct"}


@pytest.mark.parametrize("name", ["rule_decide", "cv_train", "sim_eval"])
def test_workload_patch_finds_its_functions(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path), workloads.HostClock())
    tracer = workloads.Tracer(True)
    try:
        wl.patch(tracer)
    finally:
        tracer.restore()
