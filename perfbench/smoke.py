"""Smoke test of the benchmark: tiny runs of every workload.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload it makes one untraced and one traced run of a few ops
and checks that the result line names every metric of BENCHMARK.json
with its unit, that every output check passed, and that the traced run's
spans nested (``run.py`` raises otherwise). It also checks that a copy
holding only BENCHMARK.json and this directory exits non-zero without a
result. Takes about two minutes, most of it Spark start-up.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--ops", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, wl, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{wl} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{wl} trace={trace}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{wl} trace={trace}: {result}")
            print(f"ok {wl} trace={trace}: " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()))

    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok bare copy exits", proc.returncode, "without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass

    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
