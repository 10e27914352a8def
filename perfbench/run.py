"""AutoExecutor benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rule_decide --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``rule_decide``, ``cv_train``, ``sim_eval``.
Each run executes a fixed, seed-shuffled op list sized from ``--seconds``,
checks every op's output, and prints as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the op
list untraced and then traced and reports the per-layer metrics. The line
before it is a JSON record of the environment and the set-up breakdown.
Exits 1 when any output check fails, 2 when the sources are missing.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from host import HostClock  # noqa: E402

SETUP_CLOCK = HostClock()
SETUP_CLOCK.sample()

# single-threaded native code and a fixed Spark master, set before numpy or
# pyspark are imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pred_err_pct": "%",
    "auc_saved_pct": "%",
}
PER_LAYER_UNITS = {
    "features.featurize_ms": "ms",
    "ml.predict_ms": "ms",
    "selection.select_ms": "ms",
    "ml.model_load_ms": "ms",
    "ml.model_bytes": "bytes",
    "workloads.compile_ms": "ms",
    "ppm.fit_ms": "ms",
    "ml.forest_fit_ms": "ms",
    "ml.predict_batch_ms": "ms",
    "training.error_ms": "ms",
    "ml.tree_nodes": "count",
    "taskgraph.build_ms": "ms",
    "simulator.sa_ms": "ms",
    "simulator.da_ms": "ms",
    "simulator.rule_ms": "ms",
    "sparklens.analyze_ms": "ms",
    "simulator.tasks": "count",
    "simulator.tasks_per_s": "1/s",
    "host.probe_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def environment(args) -> dict:
    import numpy
    import pyspark

    head = None
    git_dir = os.path.join(ROOT, ".git")
    if os.path.isfile(os.path.join(git_dir, "HEAD")):
        import subprocess

        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as f:
                    digest.update(fn.encode() + f.read())
    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_sha": head,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_ops(wl, ops: list, tracer, clock) -> tuple[list[float], list[float], int]:
    """Run ``ops`` once, probing the host every ``wl.probe_every`` ops.

    Returns each successful op's raw seconds, its host factor and the
    number of failed ops.
    """
    raw: list[tuple[int, float, float]] = []  # (op index, midpoint, seconds)
    failed = 0
    for i, op in enumerate(ops):
        if i % wl.probe_every == 0:
            clock.sample()
        try:
            dt, result = wl.run_op(i, op, tracer)
            end = time.perf_counter()
            wl.check_op(op, result)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        raw.append((i, end - dt / 2, dt))
    clock.sample()
    factors = [clock.factor(mid) for _, mid, _ in raw]
    tracer.scale = {i: f for (i, _, _), f in zip(raw, factors)}
    return [dt for _, _, dt in raw], factors, failed


def timing_metrics(times: list[float]) -> dict[str, float]:
    if not times:
        return dict.fromkeys(("ops_per_s", "op_p50_ms", "op_p90_ms"), 0.0)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * percentile(times, 90),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("rule_decide", "cv_train", "sim_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="truncate each pass (smoke runs)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(tmp, "spark")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[2] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )
    wl = None
    try:
        from spans import Tracer
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, tmp, SETUP_CLOCK)
        wl.setup(args.ops)
        setup_raw = time.perf_counter() - T_START - wl.setup_surplus_s
        setup_s = setup_raw * SETUP_CLOCK.median_factor()
        clock = wl.op_clock()
        passes = max(1, round(args.seconds / wl.pass_seconds))
        ops = wl.ops() * passes
        raw, factors, failed = run_ops(wl, ops, Tracer(False), clock)
        times = [t * f for t, f in zip(raw, factors)]
        attempted = len(ops)
        if args.trace:
            tracer = Tracer(True)
            wl.patch(tracer)
            try:
                traced_raw, traced_factors, traced_failed = run_ops(wl, ops, tracer, clock)
            finally:
                tracer.restore()
            tracer.check_nesting()
            attempted += len(ops)
            failed += traced_failed
            traced = [t * f for t, f in zip(traced_raw, traced_factors)]
            metrics = wl.layer_metrics(tracer)
            # share of each op spent in named layers: a root called "op" is
            # the benchmark's own code, so its self time is unattributed;
            # rule_decide's root is apply, whose own time is a layer
            per_op = tracer.per_op_self()
            attributed = [
                1.0 - per_op[r.op].get("op", 0.0) / ((r.end - r.start) * tracer.scale[r.op])
                for r in tracer.spans
                if r.parent < 0 and r.name != "workloads.compile" and r.op in tracer.scale
            ]
            metrics["host.probe_ms"] = clock.median_ms()
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(times) - 1.0
            )
            metrics["trace.attributed_pct"] = 100.0 * statistics.median(attributed)
            metrics = {k: metrics.get(k, 0.0) for k in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
        quality = {}
        try:
            quality = wl.finish()
        except Exception:
            traceback.print_exc()
            failed += 1
        if not args.trace:
            metrics = {
                "setup_s": setup_s,
                **timing_metrics(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **quality,
            }
            metrics = {k: metrics.get(k, 0.0) for k in END_TO_END_UNITS}
            units = END_TO_END_UNITS
        record = {
            "environment": environment(args),
            "ops_per_pass": len(ops) // passes,
            "passes": passes,
            "host_probe_ms": {
                "setup_median": SETUP_CLOCK.median_ms(),
                "ops_median": clock.median_ms(),
                "ops_min": min(clock.ms),
                "ops_max": max(clock.ms),
            },
            "raw_unscaled": {"setup_s": setup_raw, **timing_metrics(raw)},
            "setup_parts_s": wl.setup_parts,
            "peak_rss_scope": "Python process only; the Spark JVM is excluded",
        }
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    correct = failed == 0
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
