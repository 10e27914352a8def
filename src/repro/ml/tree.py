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

The split search scores only what can split. A node whose targets are
all equal is a leaf. Of the other nodes, only the (node, feature) pairs
whose feature varies inside the node are scored, and each only at its
gaps, the positions where the sorted x changes. Every position left out
would score as "no split" in a scan of all features at all positions,
so the chosen split is the same as that scan's.
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


#: Pair-rows scored per step. A level's padded ``(pairs, rows, outputs)``
#: gathers of (node, feature) pairs are built this many rows at a time (as
#: many as 512 nodes × 20 columns), so a level never sits in memory at once.
_CHUNK_PAIR_ROWS = 512 * 20


def grow(X: np.ndarray, y: np.ndarray, samples: np.ndarray) -> tuple[Tree, np.ndarray]:
    """Grow one tree per row of ``samples`` (row indices into ``X``, ``y``).

    All trees grow together, one level per step. Each tree's sample block
    is stable-sorted once per feature; a node's rows then stay one
    contiguous segment of every sort order, and a split partitions the
    segment stably in each. A level scores each (impure node, varying
    feature) pair along that feature's segment, at its gaps only. Returns
    the trees back to back in pre-order with tree-local child ids, and the
    root id of each tree.

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
    separates, gets feature -1. Nodes of two or more rows are bucketed by
    ``ceil(log2(size))``. Per bucket, the mean and the purity come from the
    position-order rows, then each (impure node, varying feature) pair is
    scored at its gaps; the pairs left out keep an infinite score. The
    split is the minimum summed child SSE, ties to the first feature, as a
    feature-by-feature scan would choose.
    """
    n_features = order.shape[0] - 1
    value = yb[order[0, start]]  # a one-row node's mean is its row
    sse = np.full((len(start), n_features), np.inf)
    at = np.zeros((len(start), n_features), dtype=int)
    many = np.flatnonzero(size >= 2)
    bucket = np.frexp(size[many] - 1)[1]  # ceil(log2(size))
    columns = np.arange(n_features)
    for b in np.unique(bucket):
        nodes = many[bucket == b]
        _, ys, real = _gather(yb, order, np.zeros_like(nodes), start[nodes], size[nodes])
        m = size[nodes, None]
        value[nodes] = np.cumsum(ys, axis=1)[np.arange(len(nodes)), m[:, 0] - 1] / m
        nodes = nodes[~((ys == ys[:, :1]) | ~real[:, :, None]).all(axis=(1, 2))]
        # a feature varies in a node iff its sorted segment's ends differ
        first = start[nodes, None]
        last = first + size[nodes, None] - 1
        varies = xb[order[columns + 1, first], columns] != xb[order[columns + 1, last], columns]
        node, feature = np.nonzero(varies)
        node = nodes[node]
        step = max(1, _CHUNK_PAIR_ROWS >> b)
        for c in range(0, len(node), step):
            n, f = node[c : c + step], feature[c : c + step]
            sse[n, f], at[n, f] = _score_pairs(xb, yb, order, start[n], size[n], f)
    feature, best = np.full(len(start), -1), np.full(len(start), np.inf)
    for f in range(n_features):
        better = sse[:, f] < best - 1e-12
        best[better], feature[better] = sse[better, f], f
    threshold = np.zeros(len(start))
    split = np.flatnonzero(feature >= 0)
    f = feature[split]
    k = start[split] + at[split, f]
    threshold[split] = (xb[order[f + 1, k], f] + xb[order[f + 1, k + 1], f]) / 2.0
    return feature, threshold, value


def _gather(yb, order, which, start, size):
    """Positions ``(segments, rows)`` and targets ``(segments, rows,
    outputs)`` of the segments ``start : start + size`` of order rows
    ``which``, and which rows are real. Padded rows repeat a segment's
    first position and carry zero targets, which leave every prefix sum
    of its real rows unchanged."""
    j = np.arange(size.max())
    real = j < size[:, None]
    rows = order[which[:, None], np.where(real, start[:, None] + j, start[:, None])]
    ys = yb[rows]
    ys[~real] = 0.0
    return rows, ys, real


def _score_pairs(xb, yb, order, start, size, feature):
    """Best split SSE and position of (node, feature) pairs, each node a
    segment in which its ``feature`` takes two values at least.

    Prefix sums run over a pair's rows in its feature's order. The SSE is
    evaluated only at gaps, ``x[k] != x[k + 1]``, and a pair's first
    minimum is where ``argmin`` lands with every other position set to
    infinity.
    """
    rows, ys, real = _gather(yb, order, feature + 1, start, size)
    csum, csum2 = np.cumsum(ys, axis=1), np.cumsum(ys * ys, axis=1)
    xs = xb[rows, feature[:, None]]
    pair, k = np.nonzero((xs[:, :-1] != xs[:, 1:]) & real[:, 1:])
    i, m = k + 1, size[pair]  # left sizes; split between k and k + 1
    ls, ls2 = csum[pair, k], csum2[pair, k]
    tot, tot2 = csum[pair, m - 1], csum2[pair, m - 1]
    left = ls2 - ls * ls / i[:, None]
    right = (tot2 - ls2) - (tot - ls) ** 2 / (m - i)[:, None]
    sse = _sum_outputs(left) + _sum_outputs(right)
    # every pair has a gap, so the p-th run of ``pair`` holds pair p's gaps
    best = np.minimum.reduceat(sse, np.flatnonzero(np.diff(pair, prepend=-1)))
    hit = np.flatnonzero(sse == best[pair])
    hit = hit[np.diff(pair[hit], prepend=-1) != 0]
    at = np.zeros(len(start), dtype=int)
    at[pair[hit]] = k[hit]
    return best, at


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
