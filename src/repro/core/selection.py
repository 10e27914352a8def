"""Configuration selection on a predicted PPM (§4.4, §5.3, §3.3).

Given run times over candidate executor counts (from a PPM, Sparklens
estimates, or interpolated actuals), pick the operating point:

- :func:`limited_slowdown` — smallest ``n`` whose slowdown over the
  minimum time stays within a threshold ``H`` (``H = 1`` → fastest run
  with fewest executors).
- :func:`elbow_point` — the paper's normalized-slope crossover (Eq. 7–9):
  range-scale both axes to [0, 1], compute per-step slopes, and return
  the smallest ``n`` with ``slope(u(n)) ≥ 1`` and ``slope(u(n+1)) ≤ 1``.
- :func:`interpolate_times` — piecewise-linear expansion of a sparse
  ``n → t`` grid to every candidate ``n`` in ``[1, 48]`` (§5.3 does this
  for Actual and Sparklens series).
- :func:`factorize_cores` — §3.3's optimization problem: split total
  cores ``k`` into (executors, cores-per-executor) minimising stranded
  cores per node under the node's core/memory capacity.
"""
from __future__ import annotations

import numpy as np

#: executor counts a selection chooses from: the paper's pool of 1–48
CANDIDATES = tuple(range(1, 49))

#: §3.3's node: cores and memory, and the memory of one executor
NODE_CORES = 8
NODE_MEMORY_GB = 64.0
EXECUTOR_MEMORY_GB = 28.0
#: executor sizes (cores) a factorization chooses from
CANDIDATE_EC = (1, 2, 4, 6, 8)


def interpolate_times(times: dict[int, float]) -> dict[int, float]:
    """Piecewise-linear interpolation of a sparse n→t map onto :data:`CANDIDATES`."""
    ns = sorted(times)
    vals = np.interp(CANDIDATES, ns, [times[n] for n in ns])
    return {n: float(v) for n, v in zip(CANDIDATES, vals)}


def limited_slowdown(times: dict[int, float], h: float) -> int:
    """Smallest n with ``t(n) / t_min ≤ h`` (§5.3 "Limited Slowdown")."""
    if h < 1.0:
        raise ValueError("slowdown threshold H must be ≥ 1")
    t_min = min(times.values())
    for n in sorted(times):
        if times[n] <= h * t_min:
            return n
    return max(times)  # unreachable for h ≥ 1, kept for safety


def elbow_point(times: dict[int, float]) -> int:
    """Normalized-slope elbow (Eq. 7–9).

    Returns the smallest n where the normalized curve's slope crosses
    from ≥ 1 to ≤ 1; falls back to the largest n if no crossover exists
    (monotone-flat curves) and to the smallest n for constant curves.
    """
    ns = sorted(times)
    if len(ns) < 3:
        return ns[0]
    t = np.array([times[n] for n in ns], dtype=float)
    n_arr = np.array(ns, dtype=float)
    dn = n_arr.max() - n_arr.min()
    dt = t.max() - t.min()
    if dt <= 0 or dn <= 0:
        return ns[0]
    u = (n_arr - n_arr.min()) / dn
    v = (t - t.min()) / dt
    # slope at index i refers to the segment (i-1, i], as in Eq. 9
    slopes = (v[:-1] - v[1:]) / (u[1:] - u[:-1])
    for i in range(len(slopes) - 1):
        if slopes[i] >= 1.0 and slopes[i + 1] <= 1.0:
            return ns[i + 1]
    return ns[-1] if slopes[-1] >= 1.0 else ns[1]


def factorize_cores(k: int) -> tuple[int, int] | None:
    """Split total cores ``k`` into ``(n, e_c)`` per §3.3.

    minimise   NODE_CORES mod e_c           (stranded cores per node)
    subject to EXECUTOR_MEMORY_GB × ⌊NODE_CORES / e_c⌋ ≤ NODE_MEMORY_GB
    and        e_c × ⌊NODE_CORES / e_c⌋ divides the packing so that
               n = k / e_c is integral.

    Ties prefer smaller ``e_c`` (finer price-performance granularity).
    Returns None when no candidate satisfies the constraints.
    """
    best: tuple[int, int] | None = None
    best_key: tuple[int, int] | None = None
    for e_c in CANDIDATE_EC:
        per_node = NODE_CORES // e_c
        if per_node == 0 or k % e_c != 0:
            continue
        if EXECUTOR_MEMORY_GB * per_node > NODE_MEMORY_GB:
            continue
        stranded = NODE_CORES % e_c
        key = (stranded, e_c)
        if best_key is None or key < best_key:
            best_key = key
            best = (k // e_c, e_c)
    return best
