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

from repro.ml.linreg import fit_line


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


def fit_power_law(ns, ts) -> PowerLawPPM:
    """Fit AE_PL to observed ``(n, t(n))`` samples (§3.4).

    ``m`` is the minimum observed time; the log-log linear fit uses only
    the non-saturating region ``n ∈ [1, n_m]`` where ``n_m`` is the
    smallest n achieving (within 0.1 %) the minimum.
    """
    ns = np.asarray(ns, dtype=float)
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(ns)
    ns, ts = ns[order], ts[order]
    m = float(ts.min())
    sat = np.nonzero(ts <= m * 1.001)[0]
    n_m_idx = int(sat[0]) if len(sat) else len(ns) - 1
    region = slice(0, max(2, n_m_idx + 1))
    x = np.log(ns[region])
    y = np.log(np.maximum(ts[region], 1e-9))
    if len(set(x.tolist())) < 2:
        return PowerLawPPM(a=0.0, b=m, m=m)
    a, log_b = fit_line(x, y)
    return PowerLawPPM(a=min(a, 0.0), b=float(math.exp(log_b)), m=m)


def fit_amdahl(ns, ts) -> AmdahlPPM:
    """Fit AE_AL by linear regression of ``t`` against ``1/n`` (§3.4)."""
    ns = np.asarray(ns, dtype=float)
    ts = np.asarray(ts, dtype=float)
    p, s = fit_line(1.0 / ns, ts)
    return AmdahlPPM(s=max(float(s), 0.0), p=max(float(p), 0.0))


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
