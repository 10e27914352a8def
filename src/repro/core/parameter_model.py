"""Training targets of the parameter model ``g: query characteristics →
PPM scalars`` (§3.4).

The model itself is one :class:`repro.ml.forest.RandomForestRegressor`
per PPM family, fit on the Table-2 feature vectors and scored into a PPM
with :func:`repro.core.ppm.from_params`. Exactly as in the paper:

- *one training data point per query*, regardless of how many
  configurations its run times cover (the parametric-PPM trick that
  shrinks training sets and model sizes vs a non-parametric model):
  :func:`fit_ppm` fits one query's times, and :func:`fit_ppm_targets`
  turns each fit into one row of parameters, ``(a, b, m)`` for
  ``AE_PL`` or ``(s, p)`` for ``AE_AL``;
- the model is *scored once per query*; per-configuration times come
  from evaluating the predicted PPM function, not from re-scoring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ppm as ppm_mod


@dataclass
class TrainingExample:
    """One query's training row: features + times over configurations."""

    query: str
    features: list[float]
    times: dict[int, float]  # n -> t(n) (Sparklens estimates or actuals)


def fit_ppm(family: str, times: dict[int, float]) -> ppm_mod.PPM:
    """Fit the PPM ``family`` to one query's ``n → t(n)`` samples."""
    ns = sorted(times)
    return ppm_mod.fit(family, ns, [times[n] for n in ns])


def fit_ppm_targets(family: str, examples: list[TrainingExample]) -> np.ndarray:
    """Fit the PPM to each example's times; rows are parameter vectors."""
    return np.asarray([fit_ppm(family, ex.times).params() for ex in examples], dtype=float)
