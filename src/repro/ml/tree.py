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


#: Node-rows scored per step. A level's padded ``(nodes, rows, features,
#: outputs)`` temporaries are built this many node-rows at a time, so the
#: whole level never sits in memory at once.
_CHUNK_ROWS = 512


def grow(X: np.ndarray, y: np.ndarray, samples: np.ndarray) -> tuple[Tree, np.ndarray]:
    """Grow one tree per row of ``samples`` (row indices into ``X``, ``y``).

    All trees grow together, one level per step. Each tree's sample block
    is stable-sorted once per feature; a node's rows then stay one
    contiguous segment of every sort order, and a split partitions the
    segment stably in each. Returns the trees back to back in pre-order
    with tree-local child ids, and the root id of each tree.

    A node's mean adds its rows in sample order, as numpy's ``mean(axis=0)``
    does for two or more outputs; for one output numpy sums pairwise, so
    such means may differ from it in the last bits.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(len(X), -1)
    n_trees, n = samples.shape
    xb, yb = X[samples.ravel()], y[samples.ravel()]
    order = _presort(xb, n_trees)
    start, size, tree = n * np.arange(n_trees), np.full(n_trees, n), np.arange(n_trees)
    levels = []  # (tree, feature, threshold, value) per level, in segment order
    while len(start):
        feature, threshold, value = _split_level(xb, yb, order, start, size)
        levels.append((tree, feature, threshold, value))
        split = np.flatnonzero(feature >= 0)
        m, f, t = size[split], feature[split], threshold[split]
        # keep only the splitting segments, then partition each stably
        seg = np.repeat(np.arange(len(split)), m)
        first = np.cumsum(m) - m
        order = order[:, start[split][seg] + np.arange(len(seg)) - first[seg]]
        goes_right = np.zeros(len(xb), dtype=bool)
        goes_right[order[0]] = ~(xb[order[0], f[seg]] <= t[seg])
        base = 2 * first[seg]
        for row in order:
            row[:] = row[np.argsort(base + goes_right[row], kind="stable")]
        n_left = m - np.bincount(seg, goes_right[order[0]], len(split)).astype(int)
        start = np.column_stack([first, first + n_left]).ravel()
        size = np.column_stack([n_left, m - n_left]).ravel()
        tree = np.repeat(tree[split], 2)
    return _preorder(levels, n_trees)


def _presort(xb: np.ndarray, n_trees: int) -> np.ndarray:
    """Row 0 lists the positions of ``xb`` in order; row ``1 + f`` sorts
    each tree's block of positions by feature ``f``, ties in position order."""
    n = len(xb) // n_trees
    by_feature = np.argsort(xb.reshape(n_trees, n, -1), axis=1, kind="stable")
    by_feature += n * np.arange(n_trees)[:, None, None]
    order = np.empty((xb.shape[1] + 1, len(xb)), dtype=np.int32)
    order[0] = np.arange(len(xb))
    order[1:] = by_feature.transpose(2, 0, 1).reshape(-1, len(xb))
    return order


def _split_level(xb, yb, order, start, size):
    """Best split ``(feature, threshold)`` and mean target of every node.

    A node whose targets are all equal, or whose rows no feature
    separates, gets feature -1. Candidates are scored as a feature-by-
    feature scan would: minimum summed child SSE from cumulative sums of
    the sorted targets, positions with no gap in x excluded, ties to the
    first feature.
    """
    n_features = order.shape[0] - 1
    value = yb[order[0, start]]  # a one-row node's mean is its row
    sse = np.full((len(start), n_features), np.inf)
    at = np.zeros((len(start), n_features), dtype=int)
    pure = np.ones(len(start), dtype=bool)
    many = np.flatnonzero(size >= 2)
    bucket = np.frexp(size[many] - 1)[1]  # ceil(log2(size))
    for b in np.unique(bucket):
        nodes = many[bucket == b]
        step = max(1, _CHUNK_ROWS >> b)
        for c in range(0, len(nodes), step):
            chunk = nodes[c : c + step]
            value[chunk], pure[chunk], sse[chunk], at[chunk] = _score(
                xb, yb, order, start[chunk], size[chunk]
            )
    feature, best = np.full(len(start), -1), np.full(len(start), np.inf)
    for f in range(n_features):
        better = sse[:, f] < best - 1e-12
        best[better], feature[better] = sse[better, f], f
    feature[pure] = -1
    threshold = np.zeros(len(start))
    split = np.flatnonzero(feature >= 0)
    f = feature[split]
    k = start[split] + at[split, f]
    threshold[split] = (xb[order[f + 1, k], f] + xb[order[f + 1, k + 1], f]) / 2.0
    return feature, threshold, value


def _score(xb, yb, order, start, size):
    """Mean, purity, and per-feature best split SSE and position of nodes
    given as segments; rows beyond a node's size are padded with zeros,
    which leave every prefix sum of its real rows unchanged."""
    m = size[:, None]
    j = np.arange(size.max())
    real = j < m
    rows = order[:, np.where(real, start[:, None] + j, start[:, None])].transpose(1, 2, 0)
    ys = yb[rows]  # (nodes, rows, 1 + features, outputs)
    ys[~real] = 0.0
    csum = np.cumsum(ys, axis=1)
    node = np.arange(len(start))
    value = csum[node, size - 1, 0] / m
    pure = ((ys[:, :, 0] == ys[:, :1, 0]) | ~real[:, :, None]).all(axis=(1, 2))
    ys, csum = ys[:, :, 1:], csum[:, :, 1:]
    csum2 = np.cumsum(ys * ys, axis=1)
    tot, tot2 = csum[node, size - 1, None], csum2[node, size - 1, None]
    ls, ls2 = csum[:, :-1], csum2[:, :-1]
    i = j[1:, None, None]  # left sizes; split between i-1 and i
    with np.errstate(divide="ignore", invalid="ignore"):
        left = ls2 - ls * ls / i
        right = (tot2 - ls2) - (tot - ls) ** 2 / (m[:, :, None, None] - i)
    sse = _sum_outputs(left) + _sum_outputs(right)
    xs = xb[rows[:, :, 1:], np.arange(rows.shape[2] - 1)]
    sse[(xs[:, :-1] == xs[:, 1:]) | ~real[:, 1:, None]] = np.inf
    at = np.argmin(sse, axis=1)
    return value, pure, np.take_along_axis(sse, at[:, None], axis=1)[:, 0], at


def _sum_outputs(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` in the same left-to-right order, without numpy's
    slow reduction over a short innermost axis."""
    total = a[..., 0].copy()
    for o in range(1, a.shape[-1]):
        total += a[..., o]
    return total


def _preorder(levels, n_trees: int) -> tuple[Tree, np.ndarray]:
    """Number level-ordered nodes in tree-local pre-order: a left child is
    its parent + 1, a right child its parent + 1 + the left subtree's size."""
    subtree = [np.ones(len(lv[0]), dtype=int) for lv in levels]
    for d in range(len(levels) - 2, -1, -1):
        inner = levels[d][1] >= 0
        subtree[d][inner] += subtree[d + 1][0::2] + subtree[d + 1][1::2]
    roots = np.cumsum(subtree[0]) - subtree[0]
    total = int(subtree[0].sum())
    out = Tree(
        feature=np.full(total, -1),
        threshold=np.zeros(total),
        left=np.full(total, -1),
        right=np.full(total, -1),
        value=np.zeros((total, levels[0][3].shape[1])),
    )
    local = np.zeros(n_trees, dtype=int)
    for d, (tree, feature, threshold, value) in enumerate(levels):
        at = roots[tree] + local
        out.feature[at], out.threshold[at], out.value[at] = feature, threshold, value
        inner = feature >= 0
        if inner.any():
            parent = local[inner]
            local = np.column_stack([parent + 1, parent + 1 + subtree[d + 1][0::2]]).ravel()
            out.left[at[inner]], out.right[at[inner]] = local[0::2], local[1::2]
    return out, roots


def fit_tree(X: np.ndarray, y: np.ndarray) -> Tree:
    """Grow one tree on ``X`` (n, features), ``y`` (n[, outputs]).

    A node is a leaf once its targets are all equal or no feature
    separates its rows.
    """
    return grow(X, y, np.arange(len(X))[None, :])[0]


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
