"""Reproduce the paper's evaluation (§2–§5.7), one section per experiment.

Usage: spark-submit jobs/run_all.py [section ...]
   or: python jobs/run_all.py [section ...]

With no section every one runs, in the order of :data:`SECTIONS`. Stdout
is the report; each section's wall time goes to stderr as
``section: N.N s``. Datasets load (or, on a cold cache, build) on first
use, so a section only pays for the scale factors it reads, and Spark
starts only for a section that takes the session or a dataset build.
"""
from __future__ import annotations

import importlib
import sys
import time

#: section → the arguments of ``repro.experiments.exp_<section>.format_report``:
#: "spark" for the session, a number for the dataset of that paper SF
SECTIONS: dict[str, tuple] = {
    "workload_insights": ("spark",),  # Fig 2 + Fig 3a-b (§2)
    "ground_truth": (10, 100),  # Fig 1 + Fig 3c (§1, §2.4)
    "core_impact": (100,),  # Table 1 + Fig 5 (§3.3)
    "prediction": (100,),  # Fig 4 + Fig 8 + Fig 9 (§5.2)
    "selection": (100,),  # Fig 10 + Fig 11 (§5.3)
    "allocation": (100,),  # Fig 12 + Fig 13 (§5.4)
    "scalefactor": (10, 100),  # Fig 14 (§5.5)
    "importance": (100,),  # Fig 15 + the ablation (§5.7)
    "overheads": (100, "spark"),  # §5.6
}


def select(argv: list[str]) -> list[str]:
    """The sections named in ``argv``, or all of them when it is empty."""
    unknown = [a for a in argv if a not in SECTIONS]
    if unknown:
        raise SystemExit(
            f"unknown section {', '.join(unknown)}; "
            f"usage: run_all.py [section ...] with sections {', '.join(SECTIONS)}"
        )
    return argv or list(SECTIONS)


def get_session():
    """The SparkSession of the test fixture, built with the same
    plan-shaping settings, so jobs and tests compile identical plans."""
    from repro.workloads.tpcds_lite import session_builder

    return session_builder().appName("repro-run-all").getOrCreate()


def main(argv: list[str]) -> None:
    names = select(argv)
    from repro.experiments.common import SF_MAP, load_dataset

    spark = None
    datasets = {}

    def session():
        nonlocal spark
        spark = spark or get_session()
        return spark

    def arg(a):
        if a == "spark":
            return session()
        if a not in datasets:
            datasets[a] = load_dataset(SF_MAP[a], session)
        return datasets[a]

    for i, name in enumerate(names):
        t0 = time.perf_counter()
        exp = importlib.import_module(f"repro.experiments.exp_{name}")
        report = exp.format_report(*map(arg, SECTIONS[name]))
        if i:
            print("=" * 72)
        print(report, flush=True)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
