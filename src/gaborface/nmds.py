"""Non-metric multidimensional scaling and configuration alignment.

The embedding minimizes Kruskal stress-1 by alternating monotone
(pool-adjacent-violators) disparity fits with a Guttman-transform
configuration update, starting from a Torgerson classical-scaling
initialization.  Solutions are arbitrary up to rotation, translation and
reflection; procrustes_align removes that freedom when comparing two
configurations.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.spatial.distance import pdist, squareform

from .errors import (
    FormatError,
    ParameterError,
    RuntimeFailure,
    malformed,
    require_integer,
    require_numbers,
    require_real,
)

DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class Disparities:
    """Monotone least-squares fits to configuration distances."""

    values: np.ndarray

    def __post_init__(self):
        # a read-only copy: the caller's array stays writable
        vals = np.array(self.values, dtype=float, order="C")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Configuration:
    """An n-point embedding with stress-1 and RSQ diagnostics."""

    item_ids: tuple
    coordinates: np.ndarray
    stress: float
    rsq: float
    iterations: int

    def __post_init__(self):
        if not all(isinstance(i, str) for i in self.item_ids):
            raise ParameterError("item ids must be strings")
        # a read-only copy: the caller's array stays writable
        coords = np.array(self.coordinates, dtype=float, order="C")
        n = len(self.item_ids)
        if coords.ndim != 2 or coords.shape[0] != n or coords.shape[1] < 1:
            raise ParameterError(f"coordinates shape {coords.shape} does not match "
                                 f"{n} items in d >= 1 dimensions")
        if not np.all(np.isfinite(coords)):
            raise ParameterError("coordinates must be finite")
        if not (0 <= self.stress <= 1 and 0 <= self.rsq <= 1):  # NaN is outside
            raise ParameterError(f"stress and rsq must lie in [0, 1], got "
                                 f"{self.stress!r} and {self.rsq!r}")
        require_integer(self.iterations, "iterations", 0)
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "item_ids", tuple(self.item_ids))

    @property
    def d(self):
        return self.coordinates.shape[1]

    def to_document(self, **extra):
        """The JSON document that from_document reads back, plus `extra` keys."""
        return {**extra, "item_ids": list(self.item_ids), "d": self.d,
                "coordinates": self.coordinates.tolist(), "stress": self.stress,
                "rsq": self.rsq, "iterations": self.iterations}

    @classmethod
    def from_document(cls, doc):
        """The Configuration of a JSON value that to_document wrote."""
        with malformed("configuration"):
            ids, coordinates = doc["item_ids"], doc["coordinates"]
            if not isinstance(ids, list):
                raise FormatError("item_ids must be a list")
            require_numbers(chain(chain.from_iterable(coordinates),
                                  (doc["stress"], doc["rsq"])),
                            "coordinates, stress and rsq")
            return cls(tuple(ids), np.asarray(coordinates),
                       doc["stress"], doc["rsq"], doc["iterations"])


def classical_init(dissimilarity, d, seed=0):
    """Torgerson classical-scaling start: the centred (n, d) array of the
    top-d spectral coordinates of the double-centered squared dissimilarities.

    Deterministic: each coordinate column is signed so its largest-magnitude
    entry is positive.  Columns beyond the positive-eigenvalue count fall
    back to small seeded random coordinates (flagged with a warning).  Only
    a matrix of zeros gives coincident points.  embed evaluates the start.
    """
    if dissimilarity.kind != "dissimilarity":
        raise ParameterError(f"need a dissimilarity matrix, got {dissimilarity.kind!r}")
    d = require_integer(d, "d", 1)
    D = dissimilarity.values
    n = D.shape[0]
    evals, evecs = np.linalg.eigh(_double_centred(D))
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order[:d]]
    usable = min(d, int(np.sum(evals > 1e-12 * max(1.0, abs(evals[0])))))
    coords = np.zeros((n, d))
    coords[:, :usable] = evecs[:, :usable] * np.sqrt(evals[:usable])
    largest = coords[np.argmax(np.abs(coords), axis=0), np.arange(d)]
    coords[:, largest < 0] *= -1
    if usable < d and np.any(D != 0):
        warnings.warn(
            f"only {usable} positive eigenvalues for d={d}; filling the "
            "remaining columns with seeded random coordinates"
        )
        rng = np.random.default_rng(seed)
        scale = 1e-3 * max(1.0, float(D.max()))
        coords[:, usable:] = scale * rng.standard_normal((n, d - usable))
    return coords - coords.mean(axis=0)


def _centring(out):
    """The centring matrix J = I - 11'/n, written into the (n, n) array `out`."""
    out.fill(0.0)
    np.fill_diagonal(out, 1.0)
    out -= 1.0 / len(out)
    return out


def _double_centred(D):
    """B = -1/2 J (D o D) J, J the centring matrix: the product, left to
    right, in three n x n buffers.  J is written twice, not kept, and B
    takes the buffer of D o D once the first product has read it."""
    B = D * D
    half_J = _centring(np.empty_like(D))
    half_J *= -0.5
    product = half_J @ B
    return np.matmul(product, _centring(half_J), out=B)


def isotonic_fit(distances, order):
    """Least-squares monotone (non-decreasing in `order`) fit to distances,
    by pool-adjacent-violators; pooled blocks carry their mean."""
    distances = np.asarray(distances, dtype=float)
    order = np.asarray(order)
    m = distances.size
    # O(m): every index in range, each of 0..m-1 counted exactly once
    if (order.shape != (m,) or not np.issubdtype(order.dtype, np.integer)
            or np.any((order < 0) | (order >= m))
            or np.any(np.bincount(order, minlength=m) != 1)):
        raise ParameterError("order must be a permutation of the pair indices")
    out = np.empty(m)
    out[order] = isotonic_regression(distances[order]).x
    return Disparities(out)


def stress1(distances, disparities):
    """Kruskal stress-1: sqrt(sum (d - dhat)^2 / sum d^2)."""
    d = np.asarray(distances, dtype=float)
    dhat = np.asarray(getattr(disparities, "values", disparities), dtype=float)
    if d.size != dhat.size:
        raise ParameterError(f"length mismatch: {d.size} vs {dhat.size}")
    denom = np.sum(d * d)
    if denom == 0.0:
        raise RuntimeFailure("all configuration distances are zero")
    return float(np.sqrt(np.sum((d - dhat) ** 2) / denom))


_Evaluation = namedtuple("_Evaluation", "coords distances disparities stress")


def _evaluator(off_diag):
    """The evaluation of a configuration against the dissimilarities
    `off_diag`: its distances, their disparities (monotone in `off_diag`)
    and stress-1, or None when its points coincide, where stress-1 is 0/0.
    A tie block takes the order of its current distances, the order of
    least stress (Kruskal's primary approach); an untied matrix keeps one."""
    order = np.argsort(off_diag, kind="stable")
    tied = np.any(np.diff(off_diag[order]) == 0)

    def evaluate(coords):
        distances = pdist(coords)
        if not np.any(distances):
            return None
        disparities = isotonic_fit(distances, np.lexsort((distances, off_diag))
                                   if tied else order).values
        return _Evaluation(coords, distances, disparities,
                           stress1(distances, disparities))
    return evaluate


def _diagnostics(evaluation):
    """(stress-1, RSQ): RSQ is 1.0 at stress 0 and for coincident points,
    else the squared correlation of distances and disparities."""
    if evaluation is None or evaluation.stress == 0.0:
        return 0.0, 1.0
    _, distances, disparities, stress = evaluation
    if np.all(disparities == disparities[0]) or np.all(distances == distances[0]):
        return stress, 1.0 if np.allclose(distances, disparities) else 0.0
    r = np.corrcoef(distances, disparities)[0, 1]
    return stress, float(min(1.0, r * r))


def _guttman_update(evaluation):
    coords, distances, disparities, _ = evaluation
    n = coords.shape[0]
    # > 0: a monotone fit keeps the sum of the distances, and they are not all 0
    scale = np.sqrt(np.sum(distances ** 2) / np.sum(disparities ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(distances > 0, disparities * scale / distances, 0.0)
    W = squareform(ratio)
    B = -W
    np.fill_diagonal(B, W.sum(axis=1))
    out = B @ coords / n
    return out - out.mean(axis=0)


def embed(dissimilarity, d, max_iterations=DEFAULT_MAX_ITERATIONS,
          tolerance=DEFAULT_TOLERANCE, seed=0, on_iteration=None):
    """Non-metric embedding of a dissimilarity matrix into d dimensions.

    Alternates a monotone disparity fit with a Guttman-transform update
    from the classical_init coordinates, evaluated once as iteration 0,
    until the stress-1 improvement drops below `tolerance` or
    `max_iterations` is hit.  A tie block is fitted in the order of its
    current distances (Kruskal's primary approach).  An update whose points
    coincide or whose stress-1 is higher is rejected and ends the loop, so
    the recorded stress sequence is non-increasing.  RSQ is 1.0 at stress 0.
    A matrix whose pairs are all equal returns the start at 0 iterations,
    with a warning (a matrix of zeros: coincident points, which fit
    exactly).  Otherwise `on_iteration(iteration, stress)` is invoked once
    per accepted configuration, the start as iteration 0.
    """
    n = len(dissimilarity.item_ids)
    d = require_integer(d, "d", 1)
    if d > n - 1:
        raise ParameterError(f"need 1 <= d <= n-1, got d={d} for n={n}")
    max_iterations = require_integer(max_iterations, "max_iterations", 0)
    tolerance = require_real(tolerance, "tolerance", 0)
    off_diag = squareform(dissimilarity.values, checks=False)
    start = classical_init(dissimilarity, d, seed=seed)
    evaluate = _evaluator(off_diag)
    current = evaluate(start)  # None only for a matrix of zeros
    if np.all(off_diag == off_diag[0]):
        warnings.warn("degenerate dissimilarity matrix (all pairs equal); "
                      "returning the initialization")
        return Configuration(dissimilarity.item_ids, start, *_diagnostics(current), 0)
    iterations, improvement = 0, np.inf
    while True:
        if on_iteration is not None:
            on_iteration(iterations, current.stress)
        if iterations == max_iterations or improvement < tolerance:
            break
        new = evaluate(_guttman_update(current))
        if new is None or new.stress > current.stress:
            break  # never accept a collapse or an uphill step
        improvement = current.stress - new.stress
        current, iterations = new, iterations + 1
    coords = current.coords - current.coords.mean(axis=0)
    return Configuration(dissimilarity.item_ids, coords, *_diagnostics(current),
                         iterations)


def procrustes_align(source, target, allow_scaling=False):
    """Least-squares alignment of `source` onto `target`.

    Finds the translation plus orthogonal transform (reflection included,
    since an nMDS map is defined only up to one) and optionally a uniform
    scale minimizing the summed squared point distances.  Returns the
    aligned configuration and the root-mean-square residual.
    """
    if source.item_ids != target.item_ids:
        raise ParameterError("configurations must share item_ids in order")
    if source.d != target.d:
        raise ParameterError(f"dimension mismatch: {source.d} vs {target.d}")
    X = np.array(source.coordinates)
    Y = np.array(target.coordinates)
    if np.unique(X, axis=0).shape[0] < 2:
        raise RuntimeFailure("need at least 2 distinct points to align")
    mu_x = X.mean(axis=0)
    mu_y = Y.mean(axis=0)
    Xc = X - mu_x
    Yc = Y - mu_y
    U, S, Vt = np.linalg.svd(Xc.T @ Yc)
    R = U @ Vt
    scale = float(np.sum(S) / np.sum(Xc * Xc)) if allow_scaling else 1.0
    aligned = scale * Xc @ R + mu_y
    residual = float(np.sqrt(np.mean(np.sum((aligned - Y) ** 2, axis=1))))
    config = Configuration(source.item_ids, aligned, source.stress,
                           source.rsq, source.iterations)
    return config, residual
