"""Ordinary least-squares line fit (scikit-learn substitute).

Used to fit the PPM parameters from (n, t(n)) samples exactly as §3.4 of
the paper: a log-log fit for the power-law region of ``AE_PL`` and a
``t`` vs ``1/n`` fit for ``AE_AL``. Kept deliberately tiny — a
least-squares solve over a handful of points.
"""
from __future__ import annotations

import numpy as np


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit ``y = slope * x + intercept`` and return ``(slope, intercept)``."""
    x = np.asarray(x, dtype=float)
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, np.asarray(y, dtype=float), rcond=None)
    return float(slope), float(intercept)
