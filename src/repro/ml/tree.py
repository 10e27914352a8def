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

A level is scored in rank-synchronous sweeps, with no padding. Its
segments (nodes, or (node, feature) pairs) are sorted by size, largest
first, and their rows gathered once in rank-major order: rank ``j`` is
row ``j`` of every segment longer than ``j``, one contiguous slice. One
step per rank then advances the running sums of all those segments
together. Each sum starts from a segment's first row and adds the rest
in order, exactly as ``np.cumsum`` does along a segment, so the sums,
the means, the scores and hence the trees do not depend on how the
segments are laid out or cut into sweeps.
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


#: Pair-rows gathered per sweep: a level's (node, feature) pairs are scored
#: about this many rows at a time, so a level never sits in memory at once.
_CHUNK_PAIR_ROWS = 1 << 14


def grow(X: np.ndarray, y: np.ndarray, samples: np.ndarray) -> tuple[Tree, np.ndarray]:
    """Grow one tree per row of ``samples`` (row indices into ``X``, ``y``).

    All trees grow together, one level per step. Each tree's sample block
    is stable-sorted once per feature; a node's rows then stay one
    contiguous segment of every sort order, and a split partitions the
    segment stably in each. A level scores each (impure node, varying
    feature) pair along that feature's segment, at its gaps only, in
    rank-synchronous sweeps of about :data:`_CHUNK_PAIR_ROWS` pair-rows.
    Returns the trees back to back in pre-order with tree-local child ids,
    and the root id of each tree.

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
        order = order.take(start[split][seg] + np.arange(len(seg)) - first[seg], axis=1)
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
    separates, gets feature -1. One sweep over the position-order rows of
    the nodes of two or more rows gives their means and purity. Then each
    (impure node, varying feature) pair is scored at its gaps, up to
    :data:`_CHUNK_PAIR_ROWS` pair-rows per sweep; the pairs left out keep
    an infinite score. The split is the minimum summed child SSE, ties to
    the first feature, as a feature-by-feature scan would choose.
    """
    n_features = order.shape[0] - 1
    value = yb[order[0, start]]  # a one-row node's mean is its row
    sse = np.full((len(start), n_features), np.inf)
    at = np.zeros((len(start), n_features), dtype=int)
    nodes = np.flatnonzero(size >= 2)
    nodes = nodes[np.argsort(-size[nodes], kind="stable")]
    if len(nodes):
        m = size[nodes]
        active, offset, seg, rank = _rank_major(m)
        ys = yb.take(order[0].take(start[nodes][seg] + rank), axis=0)
        impure = np.zeros(len(nodes), dtype=bool)
        # row s of rank 0 is segment s's first row
        impure[seg[(ys != ys.take(seg, axis=0)).any(axis=1)]] = True
        _prefix_sums(ys, active, offset)
        value[nodes] = ys[offset[m - 1] + np.arange(len(nodes))] / m[:, None]
        nodes = nodes[impure]
    # a feature varies in a node iff its sorted segment's ends differ
    columns = np.arange(n_features)
    first = start[nodes, None]
    last = first + size[nodes, None] - 1
    varies = xb[order[columns + 1, first], columns] != xb[order[columns + 1, last], columns]
    node, feature = np.nonzero(varies)
    node = nodes[node]  # still largest first
    # a sweep takes the pairs whose first pair-row falls in its budget block
    block = (np.cumsum(size[node]) - size[node]) // _CHUNK_PAIR_ROWS
    cuts = np.append(np.flatnonzero(np.diff(block, prepend=-1)), len(node))
    for c, d in zip(cuts[:-1], cuts[1:]):
        n, f = node[c:d], feature[c:d]
        sse[n, f], at[n, f] = _score_pairs(xb, yb, order, start[n], size[n], f)
    feature, best = np.full(len(start), -1), np.full(len(start), np.inf)
    for f in range(n_features):
        better = sse[:, f] < best - 1e-12
        best[better], feature[better] = sse[better, f], f
    threshold = np.zeros(len(start))
    split = np.flatnonzero(feature >= 0)
    f = feature[split]
    k = start[split] + at[split, f]
    a, b = xb[order[f + 1, k], f], xb[order[f + 1, k + 1], f]
    mid = a / 2.0 + b / 2.0  # a + b may overflow
    # a midpoint that rounds onto b would not separate a from b
    threshold[split] = np.where(mid < b, mid, a)
    return feature, threshold, value


def _rank_major(size):
    """Rank-major layout of segments sorted by size, largest first.

    Rank ``j`` holds row ``j`` of each of the first ``active[j]``
    segments, the ones longer than ``j``, at ``offset[j] : offset[j] +
    active[j]``. Returns ``active``, ``offset`` and the segment and rank
    of every row of the layout."""
    active = np.searchsorted(-size, -np.arange(size[0]))  # sizes > j
    offset = np.cumsum(active) - active
    rank = np.repeat(np.arange(len(active)), active)
    return active, offset, np.arange(len(rank)) - np.repeat(offset, active), rank


def _prefix_sums(a, active, offset):
    """Turn the rank-major rows ``a[..., rows, :]`` into each segment's
    prefix sums, in place: one step per rank adds a segment's previous
    sum to its row, the order in which ``np.cumsum`` adds."""
    for j in range(1, len(active)):
        n = active[j]
        a[..., offset[j] : offset[j] + n, :] += a[..., offset[j - 1] : offset[j - 1] + n, :]


def _score_pairs(xb, yb, order, start, size, feature):
    """Best split SSE and position of (node, feature) pairs, largest first,
    each node a segment in which its ``feature`` takes two values at least.

    The pairs' rows are gathered once in rank-major order, and one step
    per rank advances every longer pair's prefix sums of ``y`` and ``y²``.
    Each sum starts from its first row and adds the rest in order, as
    ``np.cumsum`` does. The SSE is evaluated only at gaps, ``x[k] != x[k +
    1]``, and a pair's first minimum is where ``argmin`` would land with
    every other position set to infinity.
    """
    active, offset, pair, rank = _rank_major(size)
    rows = order.ravel().take(((feature + 1) * order.shape[1] + start).take(pair) + rank)
    xs = xb.ravel().take(feature.take(pair) + xb.shape[1] * rows.astype(np.intp))
    sums = np.empty((2, len(rows), yb.shape[1]))  # prefix sums of y and of y²
    yb.take(rows, axis=0, out=sums[0])
    np.multiply(sums[0], sums[0], out=sums[1])
    _prefix_sums(sums, active, offset)
    # row r of rank j >= 1 follows its pair's row r - active[j - 1]
    prev = np.arange(active[0], len(rows)) - np.repeat(active[:-1], active[1:])
    gap = np.flatnonzero(xs[active[0] :] != xs.take(prev))
    prev, r = prev[gap], gap + active[0]
    p, i = pair[r], rank[r]  # i = left size; split between i - 1 and i
    m = size[p]
    ls, ls2 = sums.take(prev, axis=1)
    tot, tot2 = sums.take(offset[m - 1] + p, axis=1)
    left = ls2 - ls * ls / i[:, None]
    right = (tot2 - ls2) - (tot - ls) ** 2 / (m - i)[:, None]
    sse = _sum_outputs(left) + _sum_outputs(right)
    best = np.full(len(size), np.inf)
    np.minimum.at(best, p, sse)
    hit = sse == best[p]
    at = size.copy()  # above every position; every pair has a hit
    np.minimum.at(at, p[hit], i[hit] - 1)
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
