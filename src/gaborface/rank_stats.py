"""Spearman rank correlation with t-approximation or permutation p-values.

The series correlated are the pairs of one item set, which are not
independent: pairs that share an item share its errors.  The permutation
test respects that by relabelling the items (the Mantel test; Mantel 1967,
Cancer Research 27:209), not by shuffling the pairs.  The default
t-approximation treats the pairs as independent and is anti-conservative
on pair matrices, so it is a quick description, not an inference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import AlignmentError, ParameterError, UndefinedCorrelationError

DEFAULT_PERMUTATION_SEED = 20230


@dataclass(frozen=True)
class PairedSeries:
    """Two paired value series over the canonical unordered item pairs."""

    x: np.ndarray
    y: np.ndarray
    pair_labels: tuple

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if x.size != y.size:
            raise ParameterError(f"series lengths differ: {x.size} vs {y.size}")
        if x.size < 3:
            raise ParameterError(f"need at least 3 pairs, got {x.size}")
        if len(self.pair_labels) != x.size:
            raise ParameterError("pair_labels length must match series length")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "pair_labels", tuple(self.pair_labels))


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


def spearman_rho(series):
    """Pearson correlation of the midranks of the two series."""
    return _rho_from_ranks(average_ranks(series.x), average_ranks(series.y))


def significance(rho, n, permutations=None, series=None,
                 seed=DEFAULT_PERMUTATION_SEED):
    """Two-sided p-value for an observed rank correlation over `n` pairs.

    Default: t-approximation for one `rho`, t = rho*sqrt((n-2)/(1-rho^2))
    with n-2 degrees of freedom.  It treats the pairs as independent, which
    the pairs of one item set are not: on the distance matrices of two
    unrelated configurations it rejects far more often than its level
    (22.7% at alpha = .05 for 21 items), so use `permutations` for
    inference on pair matrices.

    With `permutations` (>= 1) set, a seeded Monte-Carlo permutation test
    of item labels instead (the Mantel test): `rho` and `series` are
    matching sequences, and the series share one `y`, each over the
    canonical pairs of one item set (see `canonical_pairs`).  Each draw
    relabels the items with one `rng.permutation` and scores every series
    against that relabelled `y`, so a series gets the p-value it would get
    alone.  Returns one p-value per series.
    """
    if n < 4:
        raise ParameterError(f"need n >= 4 for a significance test, got {n}")
    if permutations is None:
        if abs(rho) >= 1.0:
            warnings.warn("exact-extreme correlation; t-approximation p = 0")
            return 0.0
        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        return float(2.0 * special.stdtr(n - 2, -abs(t)))
    permutations = int(permutations)
    if permutations < 1:
        raise ParameterError(f"need permutations >= 1, got {permutations}")
    if series is None:
        raise ParameterError("permutation test needs the paired series")
    series = tuple(series)
    thresholds = np.abs(np.asarray(rho, dtype=float)) - 1e-12
    if not series or thresholds.shape != (len(series),):
        raise ParameterError("permutation test needs one rho per series")
    if any(not np.array_equal(s.y, series[0].y) for s in series):
        raise ParameterError("permuted series must share their y values")
    m = series[0].y.size
    items = (1 + math.isqrt(1 + 8 * m)) // 2
    if items * (items - 1) // 2 != m:
        raise ParameterError(f"{m} values are not the pairs of an item set")
    rx = np.array([average_ranks(s.x) for s in series])
    rx -= rx.mean(axis=1, keepdims=True)
    ry = average_ranks(series[0].y)
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx, axis=1) * np.sum(ry * ry))
    if np.any(denom == 0.0):
        raise UndefinedCorrelationError("constant series has no rank correlation")
    # relabelling the items reorders the same pair values, so the centred
    # ranks and the denominator hold for every draw; draw p gathers pair
    # (i, j) from cell (p[i], p[j]) of the symmetric rank matrix.  The
    # indices are in range by construction, and mode="clip" spares take
    # the copy of `out` that its default mode makes.
    upper_i, upper_j = np.triu_indices(items, 1)
    ry_matrix = np.zeros((items, items))
    ry_matrix[upper_i, upper_j] = ry
    ry_matrix[upper_j, upper_i] = ry
    ry_flat = ry_matrix.ravel()
    row_starts = np.empty(items, dtype=np.intp)
    cells, cols = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    permuted = np.empty(m)
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(series), dtype=int)
    for _ in range(permutations):
        labels = rng.permutation(items)
        np.multiply(labels, items, out=row_starts)
        np.take(row_starts, upper_i, out=cells, mode="clip")
        np.take(labels, upper_j, out=cols, mode="clip")
        cells += cols
        np.take(ry_flat, cells, out=permuted, mode="clip")
        hits += np.abs(rx @ permuted) / denom >= thresholds
    return [(h + 1) / (permutations + 1) for h in hits.tolist()]


def canonical_pairs(item_ids):
    """Unordered id pairs in canonical (lexicographic) order."""
    ordered = sorted(item_ids)
    return [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]


def matrix_series(matrix):
    """Off-diagonal values of a PairMatrix in canonical pair order."""
    ids = matrix.item_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    upper = np.triu_indices(len(ids), 1)
    return matrix.values[np.ix_(order, order)][upper], canonical_pairs(ids)


def correlate_model_with_ratings(models, semantic, permutations=None,
                                 seed=DEFAULT_PERMUTATION_SEED):
    """Spearman correlation of each model matrix with semantic dissimilarity.

    Returns one CorrelationResult per model.  Similarity-kind model values
    are negated first so that agreement with the human data reads as
    positive rho.  Without `permutations`, the p-values are the
    t-approximation's, which treats the pairs as independent and is
    anti-conservative here.  With `permutations` set, they come from
    permuting the item labels of the semantic matrix, and all models are
    tested against one stream of relabellings (see `significance`).
    """
    y, pairs = matrix_series(semantic)
    pairs = tuple(pairs)
    series = []
    for model in models:
        if set(model.item_ids) != set(semantic.item_ids):
            missing = set(model.item_ids) ^ set(semantic.item_ids)
            raise AlignmentError(
                f"item sets differ; unmatched ids: {sorted(missing)}"
            )
        x, _ = matrix_series(model)
        if model.kind == "similarity":
            x = -x
        series.append(PairedSeries(x, y, pairs))
    rhos = [spearman_rho(s) for s in series]
    n = y.size
    if permutations is None:
        return [CorrelationResult(rho, n, significance(rho, n), "t_approximation")
                for rho in rhos]
    ps = significance(rhos, n, permutations=permutations, series=series,
                      seed=seed)
    return [CorrelationResult(rho, n, p, "permutation")
            for rho, p in zip(rhos, ps)]
