"""The parameter model ``g: query characteristics → PPM scalars`` (§3.4).

One Random Forest per PPM family maps the Table-2 feature vector of a
query to that family's scalar parameters — ``(a, b, m)`` for ``AE_PL``
or ``(s, p)`` for ``AE_AL``. Exactly as in the paper:

- *one training data point per query*, regardless of how many
  configurations its run times cover (the parametric-PPM trick that
  shrinks training sets and model sizes vs a non-parametric model);
- the model is *scored once per query*; per-configuration times come
  from evaluating the predicted PPM function, not from re-scoring.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import ppm as ppm_mod
from repro.core.features import FEATURE_NAMES
from repro.ml.forest import RandomForestRegressor


@dataclass
class TrainingExample:
    """One query's training row: features + times over configurations."""

    query: str
    features: list[float]
    times: dict[int, float]  # n -> t(n) (Sparklens estimates or actuals)


def fit_ppm_targets(family: str, examples: list[TrainingExample]) -> np.ndarray:
    """Fit the PPM to each example's times; rows are parameter vectors."""
    rows = []
    for ex in examples:
        ns = sorted(ex.times)
        model = ppm_mod.fit(family, ns, [ex.times[n] for n in ns])
        rows.append(model.params())
    return np.asarray(rows, dtype=float)


@dataclass
class ParameterModel:
    """Random-Forest parameter model for one PPM family."""

    family: str
    n_estimators: int = 100
    random_state: int | None = 0
    feature_names: tuple[str, ...] = FEATURE_NAMES
    forest: RandomForestRegressor | None = field(default=None, repr=False)

    @property
    def target_names(self) -> tuple[str, ...]:
        return ppm_mod.MODEL_FAMILIES[self.family][1].param_names

    def fit(self, examples: list[TrainingExample]) -> "ParameterModel":
        X = np.asarray([ex.features for ex in examples], dtype=float)
        return self.fit_params(X, fit_ppm_targets(self.family, examples))

    def fit_params(self, X: np.ndarray, y: np.ndarray) -> "ParameterModel":
        """Train the forest on features ``X`` and PPM parameter rows ``y``."""
        self.forest = RandomForestRegressor(
            n_estimators=self.n_estimators, random_state=self.random_state
        ).fit(X, y)
        return self

    def predict_params(self, features) -> np.ndarray:
        """Score the forest once for a query's feature vector."""
        if self.forest is None:
            raise RuntimeError("parameter model is not fitted")
        out = self.forest.predict(np.asarray(features, dtype=float)[None, :])
        return np.asarray(out)[0]

    def predict_ppm(self, features) -> ppm_mod.PPM:
        """Predicted PPM instance for a query (scored once, Eq. 1–2)."""
        return ppm_mod.from_params(self.family, self.predict_params(features))
