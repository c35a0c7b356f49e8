"""Spearman rank correlation with item-label permutation p-values.

The series correlated are the pairs of one item set, taken from pair
matrices in canonical order: the upper triangle, row by row, of the matrix
with its items in sorted-id order.  Pairs that share an item are not
independent; they share its errors.  `significance` respects that by
relabelling the items behind the semantic ranks (the Mantel test; Mantel
1967, Cancer Research 27:209), not by shuffling the pairs.  It takes every
series in that pair order, so no caller builds an item matrix for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (FormatError, ParameterError, RuntimeFailure, malformed,
                     require_integer, require_real)

DEFAULT_PERMUTATION_SEED = 20230
DEFAULT_PERMUTATIONS = 999  # p-values from 1/1000 up
CHUNK_PAIR_DRAWS = 2 ** 16  # pair values per chunk of draws: 312 at 21 items


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    n: int
    p_two_sided: float

    def __post_init__(self):
        if not (-1 <= self.rho <= 1 and 0 < self.p_two_sided <= 1):  # NaN is outside
            raise ParameterError(f"rho must lie in [-1, 1] and p_two_sided in "
                                 f"(0, 1], got {self.rho!r} and {self.p_two_sided!r}")

    def to_document(self, **extra):
        """The result as a JSON document, plus `extra` keys."""
        return {**extra, "rho": self.rho, "n_pairs": self.n,
                "p_two_sided": self.p_two_sided, "method": "permutation"}

    @classmethod
    def from_document(cls, doc):
        """The CorrelationResult of a JSON value that to_document wrote."""
        with malformed("correlation result"):
            if doc["method"] != "permutation":
                raise FormatError(f"method {doc['method']!r} is not 'permutation'")
            return cls(require_real(doc["rho"], "rho", -math.inf),
                       require_integer(doc["n_pairs"], "n_pairs", 1),
                       require_real(doc["p_two_sided"], "p_two_sided", 0))


def average_ranks(values):
    """Midranks 1..n; tied values share the mean of the ranks they span."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ParameterError(f"can only rank a 1-d array, got shape {values.shape}")
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
        raise RuntimeFailure("constant series has no rank correlation")
    return float(np.dot(rx, ry) / denom)


def spearman_rho(x, y):
    """Pearson correlation of the midranks of two paired series."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ParameterError(f"series lengths differ: {x.size} vs {y.size}")
    return _rho_from_ranks(average_ranks(x), average_ranks(y))


def significance(x_ranks, y_ranks, permutations, seed=DEFAULT_PERMUTATION_SEED):
    """Two-sided p-values of a seeded Monte-Carlo permutation test of item
    labels (the Mantel test), one per row of `x_ranks`.

    `y_ranks` and each row of `x_ranks` hold the midranks of a series over
    the pairs (i, j), i < j, of k items in row-major order; k follows from
    their length, k(k-1)/2.  Each of the `permutations` (>= 1) draws
    relabels the items with one `rng.permutation` and scores every series
    against y relabelled, so a series gets the p-value it would get alone;
    the draws are scored a chunk of CHUNK_PAIR_DRAWS pair values at a time.
    """
    permutations = require_integer(permutations, "permutations", 1)
    rx = np.array(x_ranks, dtype=float)
    ry = np.array(y_ranks, dtype=float)
    if not (np.all(np.isfinite(rx)) and np.all(np.isfinite(ry))):
        raise ParameterError("x_ranks and y_ranks must be finite")
    m = ry.size
    items = math.isqrt(2 * m) + 1  # the k of m = k(k-1)/2, if m is one
    if ry.shape != (items * (items - 1) // 2,) or rx.shape[1:] != ry.shape:
        raise ParameterError(f"y_ranks {ry.shape} and each row of x_ranks "
                             f"{rx.shape[1:]} must rank the pairs of an item set")
    if not len(rx):
        raise ParameterError("permutation test needs one rho per series, and "
                             "x_ranks has none")
    if m < 4:
        raise ParameterError(f"need n >= 4 for a significance test, got {m}")
    thresholds = np.abs([_rho_from_ranks(row, ry) for row in rx])[:, None] - 1e-12
    rx -= rx.mean(axis=1, keepdims=True)
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx, axis=1, keepdims=True) * np.sum(ry * ry))
    # relabelling the items reorders the same pair values, so the centred
    # ranks and the denominator hold for every draw.  Column p of a chunk's
    # labels is the stream's next rng.permutation(items), as rng.permuted
    # shuffles the columns in turn; pair (i, j) takes cell (p[i], p[j]) of
    # the symmetric matrix of centred ranks.  The indices are in range, and
    # mode="clip" spares take the copy of `out` that its default makes.  The
    # column labels p[j] are gathered into `permuted`'s memory (an intp is
    # as wide as a float), which they leave before the ranks overwrite it.
    upper_i, upper_j = np.triu_indices(items, 1)
    centred = np.zeros((items, items))
    centred[upper_i, upper_j] = centred[upper_j, upper_i] = ry
    ry_flat = centred.ravel()
    chunk = min(permutations, max(1, CHUNK_PAIR_DRAWS // m))
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(rx), dtype=int)
    for done in range(0, permutations, chunk):
        draws = min(chunk, permutations - done)
        if done == 0 or draws < chunk:  # the first chunk's buffers, or the last's
            table = np.repeat(np.arange(items), draws).reshape(items, draws)
            labels = np.empty((items, draws), dtype=np.intp)
            cells = np.empty((m, draws), dtype=np.intp)
            permuted = np.empty((m, draws))
            cols = permuted.view(np.intp)
        rng.permuted(table, axis=0, out=labels)
        np.take(labels * items, upper_i, axis=0, out=cells, mode="clip")
        np.take(labels, upper_j, axis=0, out=cols, mode="clip")
        cells += cols
        np.take(ry_flat, cells, out=permuted, mode="clip")
        hits += np.sum(np.abs(rx @ permuted) / denom >= thresholds, axis=1)
    return [(h + 1) / (permutations + 1) for h in hits.tolist()]


def matrix_series(matrix):
    """Off-diagonal values of a PairMatrix in canonical pair order: the
    upper triangle, row by row, of the matrix with its items in sorted-id
    order."""
    ids = matrix.item_ids
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    # the pair (a, b) of sorted positions is the cell (order[a], order[b])
    rows, cols = np.triu_indices(len(ids), 1)
    return matrix.values[order[rows], order[cols]]


def correlate_model_with_ratings(models, semantic, permutations=DEFAULT_PERMUTATIONS,
                                 seed=DEFAULT_PERMUTATION_SEED):
    """Spearman correlation of each model matrix with semantic dissimilarity.

    Returns one CorrelationResult per model.  Each matrix is put in
    sorted-id order and its upper triangle ranked once.  Similarity-kind
    model values are negated first so that agreement with the human data
    reads as positive rho; `semantic` must be a dissimilarity matrix, as a
    similarity one would flip every sign.  `models` may be any iterable:
    the semantic series is ranked first, then each model's, and a model is
    released before the next is drawn, so a generator of loaded matrices
    holds one of them at a time.  The p-values are `significance`'s, which
    relabels the items behind the semantic ranks and tests all models
    against one stream of `permutations` relabellings.
    """
    if semantic.kind != "dissimilarity":
        raise ParameterError(f"the semantic matrix must be a dissimilarity "
                             f"matrix, got a {semantic.kind} matrix")
    ids = set(semantic.item_ids)
    ry = average_ranks(matrix_series(semantic))
    rx = []
    for model in models:
        if set(model.item_ids) != ids:
            missing = set(model.item_ids) ^ ids
            raise ParameterError(f"item sets differ; unmatched ids: "
                                 f"{sorted(missing)}")
        x = matrix_series(model)
        rx.append(average_ranks(-x if model.kind == "similarity" else x))
        del model, x  # before the loop draws the next model
    ps = significance(rx, ry, permutations=permutations, seed=seed)
    return [CorrelationResult(_rho_from_ranks(x, ry), ry.size, p)
            for x, p in zip(rx, ps)]
