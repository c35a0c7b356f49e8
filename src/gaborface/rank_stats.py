"""Spearman rank correlation with t-approximation or permutation p-values.

The series correlated are the pairs of one item set, taken from pair
matrices in canonical order: the upper triangle, row by row, of the matrix
with its items in sorted-id order.  Pairs that share an item are not
independent; they share its errors.  `significance` respects that by
relabelling the items of the semantic rank matrix (the Mantel test; Mantel
1967, Cancer Research 27:209), not by shuffling the pairs.
`t_approximation` treats the pairs as independent and is anti-conservative
on pair matrices, so it is a quick description, not an inference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import AlignmentError, ParameterError, UndefinedCorrelationError

DEFAULT_PERMUTATION_SEED = 20230


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    n: int
    p_two_sided: float
    method: str  # "t_approximation" or "permutation"

    def to_document(self, **extra):
        """The result as a JSON document, plus `extra` keys."""
        return {**extra, "rho": self.rho, "n_pairs": self.n,
                "p_two_sided": self.p_two_sided, "method": self.method}


def average_ranks(values):
    """Midranks 1..n; tied values share the mean of the ranks they span."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ParameterError("cannot rank an empty array")
    if not np.all(np.isfinite(values)):
        raise ParameterError("cannot rank non-finite values")
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # runs of equal sorted values: first index i and last index j of each
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size] - 1
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def _rho_from_ranks(rx, ry):
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0.0:
        raise UndefinedCorrelationError("constant series has no rank correlation")
    return float(np.dot(rx, ry) / denom)


def spearman_rho(x, y):
    """Pearson correlation of the midranks of two paired series."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ParameterError(f"series lengths differ: {x.size} vs {y.size}")
    return _rho_from_ranks(average_ranks(x), average_ranks(y))


def t_approximation(rho, n):
    """Two-sided p-value for a rank correlation `rho` over `n` pairs:
    t = rho*sqrt((n-2)/(1-rho^2)) with n-2 degrees of freedom.

    It treats the pairs as independent, which the pairs of one item set
    are not: on the distance matrices of two unrelated configurations it
    rejects far more often than its level (22.7% at alpha = .05 for 21
    items), so use `significance` for inference on pair matrices.
    """
    if n < 4:
        raise ParameterError(f"need n >= 4 for a significance test, got {n}")
    if abs(rho) >= 1.0:
        warnings.warn("exact-extreme correlation; t-approximation p = 0")
        return 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * special.stdtr(n - 2, -abs(t)))


def significance(x_ranks, y_ranks, permutations, seed=DEFAULT_PERMUTATION_SEED):
    """Two-sided p-values of a seeded Monte-Carlo permutation test of item
    labels (the Mantel test), one per row of `x_ranks`.

    Each row holds the midranks of a series over the pairs (i, j), i < j,
    of k items in row-major order; `y_ranks` is the symmetric k x k item
    matrix whose cell (i, j) holds the midrank of y at that pair.  Each of
    the `permutations` (>= 1) draws relabels the items with one
    `rng.permutation` and scores every series against that relabelled y,
    so a series gets the p-value it would get alone.
    """
    permutations = int(permutations)
    if permutations < 1:
        raise ParameterError(f"need permutations >= 1, got {permutations}")
    rx = np.array(x_ranks, dtype=float)
    y = np.asarray(y_ranks, dtype=float)
    items = len(y)
    upper_i, upper_j = np.triu_indices(items, 1)
    m = upper_i.size
    if y.shape != (items, items) or not np.array_equal(y, y.T):
        raise ParameterError("y_ranks must be a symmetric square matrix")
    if rx.shape[1:] != (m,):
        raise ParameterError(f"each series must rank the {m} pairs of an item "
                             f"set of {items}, as y_ranks does")
    if not len(rx):
        raise ParameterError("permutation test needs one rho per series, and "
                             "x_ranks has none")
    if m < 4:
        raise ParameterError(f"need n >= 4 for a significance test, got {m}")
    ry = y[upper_i, upper_j]
    thresholds = np.abs([_rho_from_ranks(row, ry) for row in rx]) - 1e-12
    rx -= rx.mean(axis=1, keepdims=True)
    centre = ry.mean()
    ry -= centre
    denom = np.sqrt(np.sum(rx * rx, axis=1) * np.sum(ry * ry))
    # relabelling the items reorders the same pair values, so the centred
    # ranks and the denominator hold for every draw; draw p gathers pair
    # (i, j) from cell (p[i], p[j]) of the centred rank matrix, never from
    # its diagonal.  The indices are in range by construction, and
    # mode="clip" spares take the copy of `out` that its default mode makes.
    ry_flat = (y - centre).ravel()
    row_starts = np.empty(items, dtype=np.intp)
    cells, cols = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    permuted = np.empty(m)
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(rx), dtype=int)
    for _ in range(permutations):
        labels = rng.permutation(items)
        np.multiply(labels, items, out=row_starts)
        np.take(row_starts, upper_i, out=cells, mode="clip")
        np.take(labels, upper_j, out=cols, mode="clip")
        cells += cols
        np.take(ry_flat, cells, out=permuted, mode="clip")
        hits += np.abs(rx @ permuted) / denom >= thresholds
    return [(h + 1) / (permutations + 1) for h in hits.tolist()]


def matrix_series(matrix):
    """Off-diagonal values of a PairMatrix in canonical pair order: the
    upper triangle, row by row, of the matrix with its items in sorted-id
    order."""
    ids = matrix.item_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return matrix.values[np.ix_(order, order)][np.triu_indices(len(ids), 1)]


def correlate_model_with_ratings(models, semantic, permutations=None,
                                 seed=DEFAULT_PERMUTATION_SEED):
    """Spearman correlation of each model matrix with semantic dissimilarity.

    Returns one CorrelationResult per model.  Each matrix is put in
    sorted-id order and its upper triangle ranked once.  Similarity-kind
    model values are negated first so that agreement with the human data
    reads as positive rho.  Without `permutations`, the p-values are
    `t_approximation`'s, which treats the pairs as independent.  With
    `permutations` set, they are `significance`'s, which relabels the items
    of the semantic rank matrix and tests all models against one stream of
    relabellings.
    """
    rx = []
    for model in models:
        if set(model.item_ids) != set(semantic.item_ids):
            missing = set(model.item_ids) ^ set(semantic.item_ids)
            raise AlignmentError(f"item sets differ; unmatched ids: "
                                 f"{sorted(missing)}")
        x = matrix_series(model)
        rx.append(average_ranks(-x if model.kind == "similarity" else x))
    ry = average_ranks(matrix_series(semantic))
    rhos = [_rho_from_ranks(x, ry) for x in rx]
    n = ry.size
    if permutations is None:
        return [CorrelationResult(rho, n, t_approximation(rho, n), "t_approximation")
                for rho in rhos]
    items = len(semantic.item_ids)
    y_ranks = np.zeros((items, items))
    y_ranks[np.triu_indices(items, 1)] = ry
    ps = significance(rx, y_ranks + y_ranks.T, permutations=permutations, seed=seed)
    return [CorrelationResult(rho, n, p, "permutation")
            for rho, p in zip(rhos, ps)]
