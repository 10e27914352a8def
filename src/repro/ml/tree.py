"""CART regression trees as flat node arrays (scikit-learn substitute).

A tree is five pre-order node arrays: ``feature`` (-1 for a leaf),
``threshold``, ``left``/``right`` (child node ids within the tree, -1 for
a leaf) and ``value`` (the mean target vector of the node's samples). A
forest concatenates its trees into one such set and keeps the root ids.

Targets may be multi-output (the parameter model predicts 2–3 PPM
scalars jointly, like a multi-output ``RandomForestRegressor`` would).
Splits minimise the summed per-output SSE (MSE criterion) over all
features, matching sklearn's regression tree at its defaults: grown
until pure, no depth limit, one sample per leaf at least.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Tree(NamedTuple):
    feature: np.ndarray  # int, -1 for a leaf
    threshold: np.ndarray  # go left iff x[feature] <= threshold
    left: np.ndarray  # int child id within the tree, -1 for a leaf
    right: np.ndarray
    value: np.ndarray  # (nodes, outputs)


def _best_split(x: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """Best (feature, threshold) by minimum summed child SSE.

    Every feature is scored in one pass: a stable sort per column and
    cumulative sums over the ``(n, features, outputs)`` sorted targets give
    the left/right SSE of every split position; positions with no gap in x
    cannot split and score ``inf``. Ties go to the first feature, as in a
    feature-by-feature scan.
    """
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(ys * ys, axis=0)
    tot, tot2 = csum[-1], csum2[-1]
    ls, ls2 = csum[:-1], csum2[:-1]
    i = np.arange(1, n)[:, None, None]  # left sizes; split between i-1 and i
    left = (ls2 - ls * ls / i).sum(axis=2)
    right = ((tot2 - ls2) - (tot - ls) ** 2 / (n - i)).sum(axis=2)
    sse = left + right
    sse[xs[:-1] == xs[1:]] = np.inf
    pos = np.argmin(sse, axis=0)
    best_score, best = np.inf, None
    for f, k in enumerate(pos):
        if sse[k, f] < best_score - 1e-12:
            best_score = float(sse[k, f])
            best = (f, float((xs[k, f] + xs[k + 1, f]) / 2.0))
    return best


def fit_tree(X: np.ndarray, y: np.ndarray) -> Tree:
    """Grow one tree depth-first on ``X`` (n, features), ``y`` (n[, outputs]).

    Child ids are tree-local; a node is a leaf once its targets are all
    equal or no feature separates its rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(len(X), -1)
    nodes = []  # [feature, threshold, left, right, value] in pre-order
    stack = [(np.arange(len(X)), None)]  # (rows, (parent id, child slot))
    while stack:
        rows, link = stack.pop()
        i = len(nodes)
        if link:
            nodes[link[0]][link[1]] = i
        ys = y[rows]
        node = [-1, 0.0, -1, -1, ys.mean(axis=0)]
        nodes.append(node)
        split = None if len(rows) < 2 or (ys == ys[0]).all() else _best_split(X[rows], ys)
        if split:
            node[:2] = split
            mask = X[rows, split[0]] <= split[1]
            stack += [(rows[~mask], (i, 3)), (rows[mask], (i, 2))]  # left is popped first
    return Tree(*(np.array(column) for column in zip(*nodes)))


def predict(nodes: Tree | None, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf values ``(rows, trees, outputs)`` of every row in every tree.

    ``nodes`` holds the trees back to back, tree ``t`` starting at node
    ``roots[t]``. All rows descend all trees together, one level per step.
    """
    if nodes is None:
        raise RuntimeError("tree is not fitted")
    X = np.asarray(X, dtype=float)
    at = np.repeat(roots[None, :], len(X), axis=0)
    rows = np.arange(len(X))[:, None]
    while True:
        f = nodes.feature[at]
        inner = f >= 0
        if not inner.any():
            return nodes.value[at]
        child = np.where(X[rows, f] <= nodes.threshold[at], nodes.left[at], nodes.right[at])
        at = np.where(inner, roots + child, at)
