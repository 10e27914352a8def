"""Price-Performance Model (PPM) families and parameter fitting (§3).

Two parametric forms for ``t(n)`` (Eq. 3–4):

- ``AE_PL`` — power law with saturation: ``t(n) = max(b·n^a, m)``;
  parameters ``(a, b, m)``, with ``a ≤ 0`` enforcing monotonicity.
- ``AE_AL`` — Amdahl's law: ``t(n) = s + p/n``; parameters ``(s, p)``
  with ``p ≥ 0`` enforcing monotonicity.

Fitting follows §3.4: ``m`` is the minimum observed time; the power-law
region is fit by linear regression in log-log space over the
non-saturating region; Amdahl's law by linear regression of ``t``
against ``1/n``.

Note: the paper's Eq. (5) prints ``log t = log b + n·log a`` — for the
power law ``t = b·n^a`` the correct linearisation is
``log t = log b + a·log n``, which is what the paper's results imply and
what this module implements (see DESIGN.md, "Known paper idiosyncrasies").
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PPM:
    """A predicted/fitted price-performance model instance."""

    #: parameter names in the order they are packed into vectors
    param_names: tuple[str, ...] = ()
    name = "PPM"

    def time(self, n: float) -> float:
        raise NotImplementedError

    def times(self, ns) -> dict[int, float]:
        """The predicted curve ``{n: t(n)}`` over the executor counts ``ns``."""
        return {n: self.time(n) for n in ns}

    def params(self) -> np.ndarray:
        raise NotImplementedError


@dataclass
class PowerLawPPM(PPM):
    """AE_PL: ``t(n) = max(b · n^a, m)``."""

    a: float
    b: float
    m: float
    param_names = ("a", "b", "m")
    name = "AE_PL"

    def time(self, n: float) -> float:
        return max(self.b * float(n) ** self.a, self.m)

    def params(self) -> np.ndarray:
        return np.array([self.a, self.b, self.m])

    @classmethod
    def from_params(cls, p) -> "PowerLawPPM":
        a, b, m = (float(x) for x in p)
        # monotonic non-increasing and physically sensible clamps
        return cls(a=min(a, 0.0), b=max(b, 1e-6), m=max(m, 1e-6))


@dataclass
class AmdahlPPM(PPM):
    """AE_AL: ``t(n) = s + p / n``."""

    s: float
    p: float
    param_names = ("s", "p")
    name = "AE_AL"

    def time(self, n: float) -> float:
        return self.s + self.p / float(n)

    def params(self) -> np.ndarray:
        return np.array([self.s, self.p])

    @classmethod
    def from_params(cls, p) -> "AmdahlPPM":
        s, pp = (float(x) for x in p)
        return cls(s=max(s, 0.0), p=max(pp, 0.0))


def _line_fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares ``(slope, intercept)`` of ``y = slope·x + intercept`` in
    closed form over centred ``math.fsum`` sums, which are exactly rounded:
    the same bits on every host and for every order of the points."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    slope = math.fsum(d * (y - my) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
    return slope, my - slope * mx


def fit_power_law(ns, ts) -> PowerLawPPM:
    """Fit AE_PL to observed ``(n, t(n))`` samples (§3.4).

    ``m`` is the minimum observed time; the log-log linear fit uses only
    the non-saturating region ``n ∈ [1, n_m]`` where ``n_m`` is the
    smallest n achieving (within 0.1 %) the minimum.
    """
    pts = sorted(zip(map(float, ns), map(float, ts)))
    m = min(t for _, t in pts)
    n_m_idx = next(i for i, (_, t) in enumerate(pts) if t <= m * 1.001)
    region = pts[: max(2, n_m_idx + 1)]
    x = [math.log(n) for n, _ in region]
    if len(set(x)) < 2:
        return PowerLawPPM(a=0.0, b=m, m=m)
    a, log_b = _line_fit(x, [math.log(max(t, 1e-9)) for _, t in region])
    return PowerLawPPM(a=min(a, 0.0), b=math.exp(log_b), m=m)


def fit_amdahl(ns, ts) -> AmdahlPPM:
    """Fit AE_AL by linear regression of ``t`` against ``1/n`` (§3.4)."""
    p, s = _line_fit([1.0 / n for n in ns], ts)
    return AmdahlPPM(s=max(s, 0.0), p=max(p, 0.0))


MODEL_FAMILIES = {
    "AE_PL": (fit_power_law, PowerLawPPM),
    "AE_AL": (fit_amdahl, AmdahlPPM),
}


def fit(family: str, ns, ts) -> PPM:
    """Fit the named PPM family to ``(n, t)`` samples."""
    fitter, _ = MODEL_FAMILIES[family]
    return fitter(ns, ts)


def from_params(family: str, params) -> PPM:
    """Instantiate a PPM from (predicted) parameter vector."""
    _, cls = MODEL_FAMILIES[family]
    return cls.from_params(params)


def error_metric(actual: dict[int, float], predicted: dict[int, float]) -> float:
    """E(n)-style aggregate error over a set of queries at one n (Eq. 6).

    Arguments map query → time; returns Σ|t̂ - t| / Σt over the queries
    of ``predicted`` that are also in ``actual``, summed in the insertion
    order of ``predicted``.
    """
    keys = [k for k in predicted if k in actual]
    num = sum(abs(predicted[k] - actual[k]) for k in keys)
    den = sum(actual[k] for k in keys)
    return num / den if den else 0.0
