"""The three benchmark workloads.

Each workload is a closed loop with one client. ``setup`` builds every
input (untimed, counted in ``setup_s``), ``ops`` returns one seed-shuffled
pass of operations, ``run_op`` executes one op and returns its timed
seconds, ``check_op`` validates its output and ``finish`` runs the
run-level checks and returns the workload's quality metrics.

Only calls into public ``repro`` functions are timed. ``layer_metrics``
turns the traced run's spans into the per-layer numbers.
"""
from __future__ import annotations

import inspect
import json
import os
import statistics
import time

import numpy as np

from repro.cluster import simulator, sparklens
from repro.cluster.allocation import DynamicAllocation, PredictiveRule, StaticAllocation
from repro.cluster.taskgraph import build_task_graph
from repro.core import features, ppm
from repro.core.parameter_model import fit_ppm_targets
from repro.core.selection import interpolate_times, limited_slowdown
from repro.core.training import FoldResult, QueryRecord, error_by_n, kfold_indices
from repro.experiments.common import ground_truth_times, sparklens_times, stable_seed
from repro.ml.forest import RandomForestRegressor
from repro.ml.portable import PortableModel

from host import HostClock
from spans import Tracer, median_per_op

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "dataset_sf0.1.json")
CANDIDATES = tuple(range(1, 49))
SLOWDOWN_H = 1.05


def single_process(fn) -> dict:
    """``{"n_jobs": 1}`` when ``fn`` takes ``n_jobs``, so fits never fork."""
    return {"n_jobs": 1} if "n_jobs" in inspect.signature(fn).parameters else {}


def load_snapshot(path: str = SNAPSHOT):
    """Records and plan skeletons of the committed sf=0.1 dataset snapshot."""
    with open(path) as f:
        doc = json.load(f)

    def skeleton(d) -> features.PlanNode:
        return features.PlanNode(
            name=d["name"],
            size_bytes=d["size"],
            width=d["width"],
            children=[skeleton(c) for c in d["children"]],
        )

    records = [
        QueryRecord(
            name=q["name"],
            features=q["features"],
            actual_times={int(k): v for k, v in q["actual"].items()},
            sparklens_times={int(k): v for k, v in q["sparklens"].items()},
        )
        for q in doc["queries"]
    ]
    return records, {q["name"]: skeleton(q["skeleton"]) for q in doc["queries"]}


def mean_error_pct(records: list[QueryRecord], folds: list[FoldResult]) -> float:
    """100 × mean over N_GRID of E(n) (Eq. 6) of the folds' predicted PPMs."""
    by_n = error_by_n(records, folds)
    return 100.0 * statistics.fmean(m for m, _ in by_n.values())


def static_auc_saved_pct(records: list[QueryRecord], n_hat: dict[str, int]) -> float:
    """Executor-seconds saved by SA(n̂) over SA(48), on ground-truth times."""
    used = full = 0.0
    for r in records:
        t = interpolate_times(r.actual_times)
        used += n_hat[r.name] * t[n_hat[r.name]]
        full += 48 * t[48]
    return 100.0 * (1.0 - used / full)


def count_tree_nodes(forest) -> int:
    """Nodes over all trees of a fitted forest, read from its serialised form."""

    def count(node) -> int:
        if not node:
            return 0
        return 1 + count(node.get("left")) + count(node.get("right"))

    total = 0
    for tree in forest.to_dict()["trees"]:
        if "root" in tree:
            total += count(tree["root"])
        else:  # a flat node-array layout holds one entry per node
            total += len(tree["feature"])
    return total


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


class Workload:
    name = ""
    probe_every = 1
    #: nominal timed seconds of one pass, to size the op list to --seconds
    pass_seconds = 1.0
    warmup_repeats = 3
    setup_surplus_s = 0.0

    def __init__(self, seed: int, tmp: str, clock: HostClock) -> None:
        self.seed = seed
        self.tmp = tmp
        self.clock = clock
        self.setup_parts: dict[str, float] = {}

    def _timed_setup(self, part: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_parts[part] = time.perf_counter() - t0
        self.clock.sample()
        return out

    def setup(self, limit: int | None) -> None:
        raise NotImplementedError

    def _warmup(self, ops: list) -> None:
        """Run and check ``ops`` untimed, ``warmup_repeats`` times.

        ``setup_s`` counts the median repetition; the others go to
        ``setup_surplus_s``, which the runner subtracts.
        """
        runs = []
        for _ in range(self.warmup_repeats):
            t0 = time.perf_counter()
            for i, op in enumerate(ops):
                if i % self.probe_every == 0:
                    self.clock.sample()
                self.check_op(op, self.run_op(-1, op, Tracer(False))[1])
            runs.append(time.perf_counter() - t0)
        self.clock.sample()
        self.setup_parts["warmup_s"] = statistics.median(runs)
        self.setup_surplus_s = sum(runs) - statistics.median(runs)

    def op_clock(self) -> HostClock:
        """Host control sampled through the measured passes."""
        return HostClock()

    def ops(self) -> list:
        raise NotImplementedError

    def run_op(self, i: int, op, tr: Tracer) -> tuple[float, object]:
        raise NotImplementedError

    def check_op(self, op, result) -> None:
        raise NotImplementedError

    def patch(self, tr: Tracer) -> None:
        """Wrap the repro functions called inside the timed calls."""

    def finish(self) -> dict[str, float]:
        raise NotImplementedError

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# rule_decide: the optimizer-rule path on real Catalyst plans


class RuleDecide(Workload):
    """AutoExecutorRule.apply on optimized TPC-DS-lite plans (§4, §5.6)."""

    name = "rule_decide"
    probe_every = 10
    pass_seconds = 5.0
    warmup_passes = 2
    warmup_repeats = 1  # two passes already; the JVM cannot restart in-process
    cold_loads = 5
    sf = 0.005

    def setup(self, limit: int | None) -> None:
        from pyspark.sql import SparkSession

        from repro.core.autoexecutor import AutoExecutorRule, train_and_register
        from repro.ml.portable import ModelRegistry
        from repro.workloads.tpcds_lite import QUERIES, materialize

        self.spark = self._timed_setup(
            "spark_start_s",
            lambda: SparkSession.builder.master("local[2]")
            .appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.sql.warehouse.dir", os.path.join(self.tmp, "warehouse"))
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .getOrCreate(),
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self._timed_setup(
            "materialize_s", materialize, self.spark, sf=self.sf, root=os.path.join(self.tmp, "data")
        )
        records, _ = load_snapshot()
        self.records = records
        root = os.path.join(self.tmp, "models")
        self.model_bytes = self._timed_setup(
            "train_register_s",
            train_and_register,
            ModelRegistry(root),
            "ae_pl",
            "AE_PL",
            [r.to_example() for r in records],
            random_state=self.seed,
            **single_process(train_and_register),
        )
        loads = []
        for _ in range(self.cold_loads):
            registry = ModelRegistry(root)
            t0 = time.perf_counter()
            registry.get("ae_pl")
            loads.append(time.perf_counter() - t0)
        self.model_load_s = statistics.median(loads)
        self.rule = AutoExecutorRule(registry=registry, model_name="ae_pl", family="AE_PL")
        rng = np.random.default_rng(self.seed)
        self.queries = [QUERIES[i] for i in rng.permutation(len(QUERIES))][:limit]
        self.n_hat: dict[str, int] = {}
        self._warmup(self.queries * self.warmup_passes)

    def op_clock(self) -> HostClock:
        # an op is mostly py4j round trips, so probe those: 100 calls of a
        # JDK method on a JVM object, no Spark or program code involved
        jlist = self.spark._jvm.java.util.ArrayList()

        def round_trips() -> float:
            t0 = time.perf_counter()
            for _ in range(100):
                jlist.size()
            return (time.perf_counter() - t0) * 1e3

        return HostClock(round_trips, ref_ms=4.0)

    def ops(self) -> list:
        return list(self.queries)

    def run_op(self, i, q, tr):
        with tr.root(i, "workloads.compile"):
            df = self.spark.sql(q.sql)
            df._jdf.queryExecution().optimizedPlan()
        t0 = time.perf_counter()
        with tr.root(i, "rule.apply"):
            pred = self.rule.apply(df, query_name=q.name)
        return time.perf_counter() - t0, (df, pred)

    def check_op(self, q, result) -> None:
        df, pred = result
        n = pred.n_selected
        check(1 <= n <= 48, f"{q.name}: n̂={n} outside [1, 48]")
        vector = features.featurize_plan(df).as_vector()
        same = self.rule.predict_from_features(vector, query_name=q.name).n_selected
        check(n == same, f"{q.name}: apply n̂={n} != predict_from_features n̂={same}")
        check(self.n_hat.setdefault(q.name, n) == n, f"{q.name}: n̂ changed between passes")

    def patch(self, tr: Tracer) -> None:
        tr.patch(features, "featurize_plan", lambda *a, **k: "features.featurize")
        tr.patch(PortableModel, "predict", lambda *a, **k: "ml.predict")

    def finish(self) -> dict[str, float]:
        # the registered model's decisions on the snapshot's sf=0.1 queries
        preds = {r.name: self.rule.predict_from_features(r.features) for r in self.records}
        fold = FoldResult(
            repeat=0,
            fold=0,
            train_queries=list(preds),
            test_queries=list(preds),
            predicted={q: p.ppm for q, p in preds.items()},
            fitted_train={},
        )
        return {
            "pred_err_pct": mean_error_pct(self.records, [fold]),
            "auc_saved_pct": static_auc_saved_pct(
                self.records, {q: p.n_selected for q, p in preds.items()}
            ),
        }

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        per_op = tr.per_op_self()
        return {
            "features.featurize_ms": median_per_op(per_op, "features.featurize"),
            "ml.predict_ms": median_per_op(per_op, "ml.predict"),
            # apply's own time: ppm.from_params, the 48-candidate evaluation
            # and the selection; the plan walk and inference are its children
            "selection.select_ms": median_per_op(per_op, "rule.apply"),
            "workloads.compile_ms": median_per_op(per_op, "workloads.compile"),
            "ml.model_load_ms": 1e3 * self.model_load_s * self.clock.median_factor(),
            "ml.model_bytes": float(self.model_bytes),
        }

    def close(self) -> None:
        spark = getattr(self, "spark", None)
        if spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        spark.stop()
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()  # the JVM exits when its stdin closes
                proc.wait(timeout=60)


# ----------------------------------------------------------------------
# cv_train: §5.1 cross-validation, both PPM families


class CvTrain(Workload):
    """One op is one fold: PPM targets, 100-tree forest, predict, E(n)."""

    name = "cv_train"
    probe_every = 1
    pass_seconds = 34.0
    folds = 5
    families = ("AE_PL", "AE_AL")

    def setup(self, limit: int | None) -> None:
        self.records, _ = self._timed_setup("snapshot_load_s", load_snapshot)
        splits = kfold_indices(len(self.records), self.folds, seed=self.seed)
        self.op_list = [
            (fam, fi, train, test) for fi, (train, test) in enumerate(splits) for fam in self.families
        ][:limit]
        self.outputs: dict[tuple[str, int], object] = {}
        self.nodes: list[int] = []
        self._warmup(self.op_list[:1])

    def ops(self) -> list:
        return list(self.op_list)

    def run_op(self, i, op, tr):
        family, fi, train_idx, test_idx = op
        train = [self.records[j] for j in train_idx]
        test = [self.records[j] for j in test_idx]
        t0 = time.perf_counter()
        with tr.root(i):
            with tr.span("ppm.fit"):
                examples = [r.to_example() for r in train]
                y = fit_ppm_targets(family, examples)
            X = np.asarray([ex.features for ex in examples], dtype=float)
            with tr.span("ml.forest_fit"):
                forest = RandomForestRegressor(
                    n_estimators=100,
                    random_state=1000 * self.seed + fi,
                    **single_process(RandomForestRegressor),
                ).fit(X, y)
            with tr.span("ml.predict_batch"):
                params = forest.predict(np.asarray([r.features for r in test], dtype=float))
            with tr.span("training.error"):
                fold = FoldResult(
                    repeat=0,
                    fold=fi,
                    train_queries=[r.name for r in train],
                    test_queries=[r.name for r in test],
                    predicted={r.name: ppm.from_params(family, p) for r, p in zip(test, params)},
                    fitted_train={},
                )
                err = error_by_n(test, [fold])
        elapsed = time.perf_counter() - t0
        if tr.enabled:
            self.nodes.append(count_tree_nodes(forest))
        return elapsed, (fold, params, err)

    def check_op(self, op, result) -> None:
        family, fi = op[0], op[1]
        _, params, _ = result
        check(bool(np.all(np.isfinite(params))), f"{family} fold {fi}: non-finite prediction")
        first = self.outputs.setdefault((family, fi), result)
        check(
            np.array_equal(first[1], params),
            f"{family} fold {fi}: predictions differ between passes",
        )

    def finish(self) -> dict[str, float]:
        out = {}
        for family in self.families:
            folds = [fr for (fam, _), (fr, _, _) in self.outputs.items() if fam == family]
            by_n = error_by_n(self.records, folds)
            worst = max(by_n, key=lambda n: by_n[n][0])
            check(worst == 1, f"{family}: largest E(n) at n={worst}, not n=1")
            out[family] = mean_error_pct(self.records, folds)
        n_hat = {
            q: limited_slowdown({n: m.time(n) for n in CANDIDATES}, SLOWDOWN_H)
            for (fam, _), (fr, _, _) in self.outputs.items()
            if fam == "AE_PL"
            for q, m in fr.predicted.items()
        }
        return {
            "pred_err_pct": statistics.fmean(out.values()),
            "auc_saved_pct": static_auc_saved_pct(
                [r for r in self.records if r.name in n_hat], n_hat
            ),
        }

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        per_op = tr.per_op_self()
        return {
            "ppm.fit_ms": median_per_op(per_op, "ppm.fit"),
            "ml.forest_fit_ms": median_per_op(per_op, "ml.forest_fit"),
            "ml.predict_batch_ms": median_per_op(per_op, "ml.predict_batch"),
            "training.error_ms": median_per_op(per_op, "training.error"),
            "ml.tree_nodes": float(statistics.median(self.nodes)) if self.nodes else 0.0,
        }


# ----------------------------------------------------------------------
# sim_eval: §5.1 ground truth + §5.4 policy comparison from plan skeletons

_POLICY_SPAN = {
    StaticAllocation: "simulator.sa",
    DynamicAllocation: "simulator.da",
    PredictiveRule: "simulator.rule",
}


class SimEval(Workload):
    """One op is one query: task graph, ground truth, Sparklens, n̂, 3 policies."""

    name = "sim_eval"
    probe_every = 5
    pass_seconds = 17.0
    warmup_ops = 3

    def setup(self, limit: int | None) -> None:
        records, self.skeletons = self._timed_setup("snapshot_load_s", load_snapshot)
        self.records = {r.name: r for r in records}
        rng = np.random.default_rng(self.seed)
        self.op_list = [records[i].name for i in rng.permutation(len(records))][:limit]
        self.n_hat: dict[str, int] = {}
        self.fits: dict[str, ppm.PPM] = {}
        self.auc = {"da": 0.0, "sa48": 0.0, "rule": 0.0}
        self.tasks = 0
        self._warmup(self.op_list[: self.warmup_ops])
        self.auc = dict.fromkeys(self.auc, 0.0)

    def ops(self) -> list:
        return list(self.op_list)

    def run_op(self, i, q, tr):
        skeleton = self.skeletons[q]
        t0 = time.perf_counter()
        with tr.root(i):
            with tr.span("taskgraph.build"):
                graph = build_task_graph(q, skeleton)
            with tr.span("experiments.ground_truth"):
                actual = ground_truth_times(graph)
            with tr.span("experiments.sparklens"):
                estimates = sparklens_times(graph)
            with tr.span("ppm.fit"):
                ns = sorted(estimates)
                model = ppm.fit("AE_PL", ns, [estimates[n] for n in ns])
            with tr.span("selection.select"):
                n_hat = limited_slowdown({n: model.time(n) for n in CANDIDATES}, SLOWDOWN_H)
            runs = {
                key: simulator.simulate(graph, policy, seed=stable_seed(q, key, self.seed))
                for key, policy in (
                    ("da", DynamicAllocation(1, 48)),
                    ("sa48", StaticAllocation(48)),
                    ("rule", PredictiveRule(n_predicted=n_hat)),
                )
            }
        elapsed = time.perf_counter() - t0
        for key, run in runs.items():
            self.auc[key] += run.auc
        return elapsed, (actual, estimates, model, n_hat)

    def check_op(self, q, result) -> None:
        actual, estimates, model, n_hat = result
        rec = self.records[q]
        check(actual == rec.actual_times, f"{q}: ground truth differs from the snapshot")
        check(estimates == rec.sparklens_times, f"{q}: Sparklens differs from the snapshot")
        ns = sorted(estimates)
        check(
            all(estimates[a] >= estimates[b] for a, b in zip(ns, ns[1:])),
            f"{q}: Sparklens estimate increases with n",
        )
        check(1 <= n_hat <= 48, f"{q}: n̂={n_hat} outside [1, 48]")
        check(self.n_hat.setdefault(q, n_hat) == n_hat, f"{q}: n̂ changed between passes")
        self.fits[q] = model

    def patch(self, tr: Tracer) -> None:
        def simulate_span(graph, policy, **_):
            self.tasks += sum(s.num_tasks for s in graph.stages)
            return _POLICY_SPAN[type(policy)]

        tr.patch(simulator, "simulate", simulate_span)
        tr.patch(sparklens, "analyze", lambda *a, **k: "sparklens.analyze")

    def finish(self) -> dict[str, float]:
        check(
            self.auc["rule"] < self.auc["sa48"],
            f"ΣAUC Rule {self.auc['rule']:.0f} is not below ΣAUC SA(48) {self.auc['sa48']:.0f}",
        )
        fold = FoldResult(
            repeat=0,
            fold=0,
            train_queries=[],
            test_queries=list(self.fits),
            predicted=self.fits,
            fitted_train={},
        )
        return {
            "pred_err_pct": mean_error_pct([self.records[q] for q in self.fits], [fold]),
            "auc_saved_pct": 100.0 * (1.0 - self.auc["rule"] / self.auc["da"]),
        }

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        per_op = tr.per_op_self()
        sims = [d for name in _POLICY_SPAN.values() for d in tr.durations(name)]

        def per_call(name: str) -> float:
            d = tr.durations(name)
            return 1e3 * statistics.median(d) if d else 0.0

        return {
            "taskgraph.build_ms": median_per_op(per_op, "taskgraph.build"),
            "simulator.sa_ms": per_call("simulator.sa"),
            "simulator.da_ms": per_call("simulator.da"),
            "simulator.rule_ms": per_call("simulator.rule"),
            "sparklens.analyze_ms": median_per_op(per_op, "sparklens.analyze"),
            "ppm.fit_ms": median_per_op(per_op, "ppm.fit"),
            "selection.select_ms": median_per_op(per_op, "selection.select"),
            "simulator.tasks": float(self.tasks),
            "simulator.tasks_per_s": self.tasks / sum(sims) if sims else 0.0,
        }


WORKLOADS = {w.name: w for w in (RuleDecide, CvTrain, SimEval)}
