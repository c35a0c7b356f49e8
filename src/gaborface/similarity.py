"""Jet-based image similarity, Euclidean dissimilarity, pairwise matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DegenerateJetError, DimensionError, FormatError, ParameterError
from .grid import NODE_COUNT


def jet_similarity(a, b):
    """Normalized dot product of two jets; in [0, 1] for non-negative jets.

    One pair at a time: the reference the whole-array gabor matrix of
    pairwise_matrix is tested against.
    """
    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if va.size != vb.size:
        raise DimensionError(f"jet dimensions differ: {va.size} vs {vb.size}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise DegenerateJetError("all-zero jet has no direction")
    return float(np.dot(va, vb) / (na * nb))


def gabor_image_similarity(a, b):
    """Mean jet similarity over corresponding grid nodes of two
    (34, filters) jet arrays, one pair at a time (the reference for
    pairwise_matrix).

    A node pair involving an all-zero jet contributes 0 and emits a
    warning instead of failing the whole comparison.
    """
    a, b = _jet_stack([a, b])
    total = 0.0
    for i, (ja, jb) in enumerate(zip(a, b)):
        try:
            total += jet_similarity(ja, jb)
        except DegenerateJetError:
            warnings.warn(f"zero jet at node {i}; counting similarity 0 for "
                          "that node")
    return total / NODE_COUNT


def _jet_stack(arrays):
    """The (items, 34, filters) stack of equal-shape jet arrays."""
    try:
        jets = np.array(arrays, dtype=float)
    except ValueError as exc:
        raise ParameterError(f"inconsistent jet dimensions: {exc}") from exc
    if jets.ndim != 3 or jets.shape[1] != NODE_COUNT:
        raise ParameterError(f"need {NODE_COUNT} jets per image, got arrays "
                             f"of shape {jets.shape[1:]}")
    return jets


@dataclass(frozen=True)
class PairMatrix:
    """Symmetric pairwise matrix over a list of distinct string item ids."""

    item_ids: tuple
    values: np.ndarray
    kind: str  # "similarity" or "dissimilarity"

    def __post_init__(self):
        if self.kind not in ("similarity", "dissimilarity"):
            raise ParameterError(f"unknown matrix kind {self.kind!r}")
        ids = tuple(self.item_ids)
        if not all(isinstance(i, str) for i in ids):
            raise ParameterError("item ids must be strings")
        if len(set(ids)) != len(ids):
            raise ParameterError("duplicate item ids")
        vals = np.asarray(self.values, dtype=float)
        n = len(ids)
        if vals.shape != (n, n):
            raise ParameterError(f"matrix shape {vals.shape} != ({n}, {n})")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("pair matrix values must be finite")
        if not np.array_equal(vals, vals.T):
            raise ParameterError("pair matrix must be exactly symmetric")
        diag = 1.0 if self.kind == "similarity" else 0.0
        if not np.all(np.diag(vals) == diag):
            raise ParameterError(f"{self.kind} matrix diagonal must be {diag}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "item_ids", ids)

    def to_document(self):
        """The JSON document that from_document reads back."""
        return {"kind": self.kind, "item_ids": list(self.item_ids),
                "values": self.values.tolist()}

    @classmethod
    def from_document(cls, doc):
        """The PairMatrix of a JSON value that to_document wrote."""
        try:
            return cls(tuple(doc["item_ids"]), np.asarray(doc["values"]), doc["kind"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # ragged or non-numeric values and the checks (ParameterError)
            # are ValueErrors
            raise FormatError(f"malformed pair-matrix document: {exc}") from exc

    def to_csv(self):
        lines = ["," + ",".join(self.item_ids)]
        lines += [item_id + "," + ",".join(map(repr, row))
                  for item_id, row in zip(self.item_ids, self.values.tolist())]
        return "\n".join(lines) + "\n"


def pairwise_matrix(items, measure):
    """Fill the full symmetric matrix for a list of (item_id, array) pairs.

    measure "gabor" takes (34, filters) jet arrays and yields the similarity
    matrix of gabor_image_similarity; measure "geometry" takes vectors, such
    as geometry_vector results, and yields their Euclidean dissimilarity
    matrix.
    """
    ids = [item_id for item_id, _ in items]
    arrays = [array for _, array in items]
    if measure == "gabor":
        return _gabor_matrix(ids, arrays)
    if measure == "geometry":
        return distance_matrix(ids, arrays)
    raise ParameterError(f"unknown measure {measure!r}")


def _check_item_ids(ids):
    n = len(ids)
    if n < 2:
        raise ParameterError(f"need at least 2 items, got {n}")


def distance_matrix(item_ids, rows):
    """Euclidean dissimilarity matrix between equal-length vectors, one per
    item."""
    ids = tuple(item_ids)
    _check_item_ids(ids)
    return PairMatrix(ids, squareform(pdist(np.array(rows, dtype=float))),
                      "dissimilarity")


def _gabor_matrix(item_ids, arrays):
    ids = tuple(item_ids)
    _check_item_ids(ids)
    jets = _jet_stack(arrays)
    norms = np.linalg.norm(jets, axis=2)
    for i, node in zip(*np.nonzero(norms == 0.0)):
        warnings.warn(f"zero jet at node {node} of image {ids[i]!r}; counting "
                      "similarity 0 for that node in all its pairs")
    # a zero row stays zero, so its node adds 0 to every pair's sum
    unit = jets / np.where(norms == 0.0, 1.0, norms)[:, :, None]
    # mirror the strict upper triangle so the matrix is exactly symmetric
    upper = np.triu(np.einsum("ink,jnk->ij", unit, unit) / NODE_COUNT, 1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return PairMatrix(ids, values, "similarity")
