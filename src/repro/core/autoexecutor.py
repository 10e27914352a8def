"""AutoExecutor: the predictive optimizer rule end-to-end (§4).

The paper injects a rule into the Spark (JVM) optimizer that, after plan
optimization and before execution: loads a cached ONNX model, featurizes
the optimized plan, scores the parameter model once, evaluates the
predicted PPM over candidate executor counts, picks the operating point,
and requests executors. A true JVM ``Rule[LogicalPlan]`` requires
compiled Scala, which is out of scope here (DESIGN.md); this module
implements the same control flow in Python at the same lifecycle point —
operating on the **real Catalyst optimized plan** via py4j, with the
portable-model registry standing in for ONNX + AML (§4.3–4.4).

Each decision records its own per-step wall times in
``Prediction.timings_ms``; §5.6's live-path rows read them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core import ppm as ppm_mod
from repro.core.features import FEATURE_NAMES, featurize_plan
from repro.core.parameter_model import TrainingExample, fit_ppm_targets
from repro.core.selection import CANDIDATES, DEFAULT_EC, elbow_point, factorize_cores, limited_slowdown
from repro.ml.forest import RandomForestRegressor
from repro.ml.portable import ModelRegistry


@dataclass
class Prediction:
    """Outcome of one AutoExecutor decision."""

    query: str
    ppm: ppm_mod.PPM
    times: dict[int, float]  # predicted t(n) over candidates
    n_selected: int
    factorization: tuple[int, int] | None  # (n, e_c) for k = n * DEFAULT_EC
    timings_ms: dict[str, float] = field(default_factory=dict)


#: ``("slowdown", H)`` picks the smallest n within a slowdown threshold H
#: of the predicted minimum, ``("elbow",)`` the point "right before the
#: performance flattens" (§4.4); the Rule of §5.4 uses H = 1.05
DEFAULT_STRATEGY = ("slowdown", 1.05)


def decide(ppm: ppm_mod.PPM, strategy: tuple = DEFAULT_STRATEGY, *, query: str = "?") -> Prediction:
    """§4.4 on a predicted PPM: evaluate it over :data:`CANDIDATES`, select
    n̂ by ``strategy`` and factorize its cores. The one decision path of
    the live rule, §5.3 and §5.4."""
    times = ppm.times(CANDIDATES)
    if strategy[0] == "slowdown":
        n_sel = limited_slowdown(times, strategy[1])
    elif strategy[0] == "elbow":
        n_sel = elbow_point(times)
    else:
        raise ValueError(f"unknown strategy {strategy}")
    return Prediction(
        query=query,
        ppm=ppm,
        times=times,
        n_selected=n_sel,
        factorization=factorize_cores(n_sel * DEFAULT_EC),
    )


def train_and_register(
    registry: ModelRegistry,
    name: str,
    family: str,
    examples: list[TrainingExample],
    *,
    random_state: int = 0,
) -> int:
    """Offline training (§4.2) + export to the model registry (§4.3).

    Returns the serialized model size in bytes (cf. §5.6's ~1 MB ONNX).
    """
    forest = RandomForestRegressor(random_state=random_state).fit(
        [ex.features for ex in examples], fit_ppm_targets(family, examples)
    )
    return register_forest(registry, name, family, forest)


def register_forest(
    registry: ModelRegistry, name: str, family: str, forest: RandomForestRegressor
) -> int:
    """Export a parameter model of ``family`` to the registry (§4.3);
    returns its serialized size in bytes."""
    return registry.register(
        name,
        forest,
        feature_names=list(FEATURE_NAMES),
        target_names=list(ppm_mod.MODEL_FAMILIES[family][1].param_names),
    )


@dataclass
class AutoExecutorRule:
    """The optimizer rule: predict-then-request, invoked once per query,
    choosing n̂ by :func:`decide` with ``strategy``."""

    registry: ModelRegistry
    model_name: str
    family: str
    strategy: tuple = DEFAULT_STRATEGY

    def apply(self, df: DataFrame, *, query_name: str = "?") -> Prediction:
        """Run the rule on an (already optimized) DataFrame plan."""
        t0 = time.perf_counter()
        vector = featurize_plan(df).as_vector()
        return self._decide(vector, query_name, featurize_ms=(time.perf_counter() - t0) * 1e3)

    def predict_from_features(self, vector, *, query_name: str = "?") -> Prediction:
        """Rule body for pre-extracted features (simulation-side path)."""
        return self._decide(list(vector), query_name)

    def _decide(self, vector: list[float], query_name: str, **timings_ms: float) -> Prediction:
        """Get the model, predict the PPM's parameters, then :func:`decide`
        on the PPM; each step's wall time goes into ``timings_ms`` (§5.6)."""
        t0 = time.perf_counter()
        model = self.registry.get(self.model_name)  # load-once: cached after the first call
        t1 = time.perf_counter()
        params = model.predict(vector)[0]
        t2 = time.perf_counter()
        pred = decide(ppm_mod.from_params(self.family, params), self.strategy, query=query_name)
        t3 = time.perf_counter()
        pred.timings_ms = {
            **timings_ms,
            "model_load_ms": (t1 - t0) * 1e3,
            "inference_ms": (t2 - t1) * 1e3,
            "selection_ms": (t3 - t2) * 1e3,
        }
        return pred


assert len(FEATURE_NAMES) == 19, "Table-2 featurizer drifted from 19 features"
