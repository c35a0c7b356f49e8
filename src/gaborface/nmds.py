"""Non-metric multidimensional scaling and configuration alignment.

The embedding minimizes Kruskal stress-1 by alternating monotone
(pool-adjacent-violators) disparity fits with a Guttman-transform
configuration update, starting from a Torgerson classical-scaling
initialization.  Solutions are arbitrary up to rotation, translation and
reflection; procrustes_align removes that freedom when comparing two
configurations.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.spatial.distance import pdist, squareform

from .errors import (
    AlignmentError,
    DegenerateConfigurationError,
    FormatError,
    ParameterError,
)

DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class Disparities:
    """Monotone least-squares fits to configuration distances."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
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
        coords = np.ascontiguousarray(np.asarray(self.coordinates, dtype=float))
        if coords.ndim != 2 or coords.shape[0] != len(self.item_ids):
            raise ParameterError(
                f"coordinates shape {coords.shape} does not match "
                f"{len(self.item_ids)} items"
            )
        if not (np.all(np.isfinite(coords))
                and np.isfinite(self.stress) and np.isfinite(self.rsq)):
            raise ParameterError("coordinates, stress and rsq must be finite")
        it = self.iterations
        if isinstance(it, bool) or not (isinstance(it, numbers.Integral) and it >= 0):
            raise ParameterError(f"iterations must be an integer >= 0, got {it!r}")
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
        try:
            return cls(tuple(doc["item_ids"]), np.asarray(doc["coordinates"]),
                       doc["stress"], doc["rsq"], doc["iterations"])
        except KeyError as exc:
            raise FormatError(f"malformed configuration: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            # ParameterError is a ValueError
            raise FormatError(f"malformed configuration: {exc}") from exc


def _check_dissimilarity(matrix):
    if matrix.kind != "dissimilarity":
        raise ParameterError(f"need a dissimilarity matrix, got {matrix.kind!r}")


def classical_init(dissimilarity, d, seed=0):
    """Torgerson classical-scaling start: double-centered squared
    dissimilarities, top-d spectral coordinates.

    Deterministic: each coordinate column is signed so its largest-magnitude
    entry is positive.  Columns beyond the positive-eigenvalue count fall
    back to small seeded random coordinates (flagged with a warning).
    """
    _check_dissimilarity(dissimilarity)
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    D = dissimilarity.values
    n = D.shape[0]
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ (D * D) @ J
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    coords = np.zeros((n, d))
    usable = min(d, int(np.sum(evals > 1e-12 * max(1.0, abs(evals[0])))))
    for col in range(usable):
        v = evecs[:, col] * np.sqrt(evals[col])
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        coords[:, col] = v
    if usable < d and np.any(D != 0):
        warnings.warn(
            f"only {usable} positive eigenvalues for d={d}; filling the "
            "remaining columns with seeded random coordinates"
        )
        rng = np.random.default_rng(seed)
        scale = 1e-3 * max(1.0, float(D.max()))
        coords[:, usable:] = scale * rng.standard_normal((n, d - usable))
    coords -= coords.mean(axis=0)
    distances = pdist(coords)
    if np.all(distances == 0.0):
        stress, rsq = 0.0, 1.0
    else:
        disp = isotonic_fit(distances, np.lexsort(
            (distances, squareform(D, checks=False))))
        stress = stress1(distances, disp)
        rsq = _rsq(distances, disp.values)
    return Configuration(dissimilarity.item_ids, coords, stress, rsq, 0)


def _dissimilarity_order(matrix):
    # stable: tied dissimilarities keep their pair-index order here; embed
    # re-sorts each tie block by the current distances (primary approach)
    return np.argsort(squareform(matrix.values, checks=False), kind="stable")


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
        raise DegenerateConfigurationError("all configuration distances are zero")
    return float(np.sqrt(np.sum((d - dhat) ** 2) / denom))


def _rsq(distances, disparities):
    if np.all(disparities == disparities[0]) or np.all(distances == distances[0]):
        return 1.0 if np.allclose(distances, disparities) else 0.0
    r = np.corrcoef(distances, disparities)[0, 1]
    return float(min(1.0, r * r))


def _guttman_update(coords, disparities, distances):
    n = coords.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(distances > 0, disparities / distances, 0.0)
    W = squareform(ratio)
    B = -W
    np.fill_diagonal(B, W.sum(axis=1))
    out = B @ coords / n
    return out - out.mean(axis=0)


def embed(dissimilarity, d, max_iterations=DEFAULT_MAX_ITERATIONS,
          tolerance=DEFAULT_TOLERANCE, seed=0, on_iteration=None):
    """Non-metric embedding of a dissimilarity matrix into d dimensions.

    Alternates a monotone disparity fit with a Guttman-transform update
    from the classical-scaling start, until the stress-1 improvement drops
    below `tolerance` or `max_iterations` is hit.  An update that would
    increase stress-1 is rejected, so the recorded stress sequence is
    non-increasing.  `on_iteration(iteration, stress)` is invoked once per
    evaluated configuration.
    """
    _check_dissimilarity(dissimilarity)
    n = len(dissimilarity.item_ids)
    if not 1 <= d <= n - 1:
        raise ParameterError(f"need 1 <= d <= n-1, got d={d} for n={n}")
    off_diag = squareform(dissimilarity.values, checks=False)
    init = classical_init(dissimilarity, d, seed=seed)
    if np.all(off_diag == off_diag[0]):
        warnings.warn("degenerate dissimilarity matrix (all pairs equal); "
                      "returning the initialization")
        return init
    order = _dissimilarity_order(dissimilarity)
    # Kruskal's primary approach: a tie block is fitted in the order of its
    # current distances, the order of least stress among its orders
    tied = np.any(np.diff(off_diag[order]) == 0)

    def fit(distances):
        return isotonic_fit(distances, np.lexsort((distances, off_diag))
                            if tied else order).values

    coords = np.array(init.coordinates)
    distances = pdist(coords)
    disparities = fit(distances)
    stress = stress1(distances, disparities)
    if on_iteration is not None:
        on_iteration(0, stress)
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        scale = np.sqrt(np.sum(distances ** 2) / np.sum(disparities ** 2)) \
            if np.any(disparities > 0) else 1.0
        new_coords = _guttman_update(coords, disparities * scale, distances)
        new_distances = pdist(new_coords)
        if np.all(new_distances == 0.0):
            break
        new_disparities = fit(new_distances)
        new_stress = stress1(new_distances, new_disparities)
        if new_stress > stress:
            break  # never accept an uphill step
        improvement = stress - new_stress
        coords, distances, disparities, stress = (
            new_coords, new_distances, new_disparities, new_stress)
        iterations = iteration
        if on_iteration is not None:
            on_iteration(iteration, stress)
        if improvement < tolerance:
            break
    rsq = 1.0 if stress == 0.0 else _rsq(distances, disparities)
    coords = coords - coords.mean(axis=0)
    return Configuration(dissimilarity.item_ids, coords, stress, rsq, iterations)


def scan_dimensions(dissimilarity, d_max, **options):
    """Stress/RSQ curve of embed over d = 1..d_max."""
    rows = []
    for d in range(1, d_max + 1):
        config = embed(dissimilarity, d, **options)
        rows.append((d, config.stress, config.rsq))
    return rows


def procrustes_align(source, target, allow_scaling=False, allow_reflection=True):
    """Least-squares alignment of `source` onto `target`.

    Finds the translation plus orthogonal transform (improper, i.e. with
    reflection, only when allow_reflection) and optionally a uniform scale
    minimizing the summed squared point distances.  Returns the aligned
    configuration and the root-mean-square residual.
    """
    if source.item_ids != target.item_ids:
        raise AlignmentError("configurations must share item_ids in order")
    if source.d != target.d:
        raise AlignmentError(f"dimension mismatch: {source.d} vs {target.d}")
    X = np.array(source.coordinates)
    Y = np.array(target.coordinates)
    if np.unique(X, axis=0).shape[0] < 2:
        raise DegenerateConfigurationError(
            "need at least 2 distinct points to align"
        )
    mu_x = X.mean(axis=0)
    mu_y = Y.mean(axis=0)
    Xc = X - mu_x
    Yc = Y - mu_y
    U, S, Vt = np.linalg.svd(Xc.T @ Yc)
    signs = np.ones(S.size)
    if not allow_reflection and np.linalg.det(U @ Vt) < 0:
        signs[-1] = -1.0  # constrain to a proper rotation
    R = (U * signs) @ Vt
    if allow_scaling:
        scale = float(np.sum(S * signs) / np.sum(Xc * Xc))
    else:
        scale = 1.0
    aligned = scale * Xc @ R + mu_y
    residual = float(np.sqrt(np.mean(np.sum((aligned - Y) ** 2, axis=1))))
    config = Configuration(source.item_ids, aligned, source.stress,
                           source.rsq, source.iterations)
    return config, residual
