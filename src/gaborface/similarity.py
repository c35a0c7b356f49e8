"""Jet-based image similarity, Euclidean dissimilarity, pairwise matrices."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import FormatError, ParameterError, malformed, require_numbers
from .grid import NODE_COUNT


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
        # a read-only copy: the caller's array stays writable
        vals = np.array(self.values, dtype=float, order="C")
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
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "item_ids", ids)

    @classmethod
    def from_document(cls, doc):
        """The PairMatrix of a matrix file's JSON value: its "kind", its
        "item_ids" list and its "values" rows."""
        with malformed("pair-matrix document"):
            ids, values = doc["item_ids"], doc["values"]
            if not isinstance(ids, list):
                raise FormatError("item_ids must be a list")
            require_numbers(chain.from_iterable(values), "values")
            # the rows go to the constructor as parsed: its copy is the
            # one array built
            return cls(tuple(ids), values, doc["kind"])

    def text_chunks(self):
        """The JSON text that from_document reads back, laid out as every
        JSON file under out/ (one line, sorted keys), and its CSV twin (an
        id header row and column around the values), as matching (json, csv)
        chunks: the headers, one chunk per row, then the JSON's close (with
        an empty CSV chunk).

        Each value is formatted once, with repr, which is what json writes
        for a finite float.  A cell below the diagonal reuses its mirror's
        string where the two are the same double bit for bit; symmetry is
        checked with ==, so a 0.0 may mirror a -0.0.
        """
        ids = self.item_ids
        yield (f'{{"item_ids":{json.dumps(list(ids), separators=(",", ":"))},'
               f'"kind":{json.dumps(self.kind)},"values":[',
               "," + ",".join(ids) + "\n")
        bits = self.values.view(np.uint64)
        unmirrored = bits != bits.T
        # upper[j]: the strings of row j right of the diagonal not yet read
        # as a mirror, last column first, so row i pops column i's string
        # and each string is freed after its second use
        upper = []
        # one row of Python floats at a time: the whole matrix as floats
        # would raise the matrices stage's memory peak
        for i, row in enumerate(map(np.ndarray.tolist, self.values)):
            right = list(map(repr, row[i + 1:]))
            lower = [strings.pop() for strings in upper]
            for j in np.flatnonzero(unmirrored[i, :i]).tolist():
                lower[j] = repr(row[j])
            cells = ",".join([*lower, repr(row[i]), *right])
            right.reverse()
            upper.append(right)
            yield ("," if i else "") + f"[{cells}]", f"{ids[i]},{cells}\n"
        yield "]}\n", ""


def pairwise_matrix(items, measure):
    """Fill the full symmetric matrix for a list of (item_id, array) pairs.

    measure "gabor" takes (34, filters) jet arrays and yields their
    similarity matrix: the mean over the 34 nodes of the normalized dot
    product of corresponding jets, where a node with an all-zero jet counts
    0 (with a warning); measure "geometry" takes vectors, such
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
    try:
        vectors = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ParameterError(f"inconsistent vector dimensions: {exc}") from exc
    if vectors.ndim != 2:
        raise ParameterError(f"need one vector per item, got arrays of shape "
                             f"{vectors.shape[1:]}")
    return PairMatrix(ids, squareform(pdist(vectors)), "dissimilarity")


def _gabor_matrix(item_ids, arrays):
    ids = tuple(item_ids)
    _check_item_ids(ids)
    unit = _jet_stack(arrays)  # a copy: the caller's arrays never change
    # one image's node norms at a time: the same reduction of the same rows
    # as a norm over the stack, without a stack of squares beside it (and
    # with no view of the stack left bound, which would keep it past del)
    norms = np.empty(unit.shape[:2])
    for k in range(len(unit)):
        norms[k] = np.linalg.norm(unit[k], axis=1)
    zero = norms == 0.0
    for i, node in zip(*np.nonzero(zero)):
        warnings.warn(f"zero jet at node {node} of image {ids[i]!r}; counting "
                      "similarity 0 for that node in all its pairs")
    # a zero row stays zero, so its node adds 0 to every pair's sum
    norms[zero] = 1.0
    unit /= norms[:, :, None]
    values = np.einsum("ink,jnk->ij", unit, unit)
    del unit
    values /= NODE_COUNT
    # keep the strict upper triangle and mirror it, so the matrix is
    # exactly symmetric (numpy copies values.T before writing over it)
    np.copyto(values, 0.0, where=np.tri(len(ids), dtype=bool))
    values += values.T
    np.fill_diagonal(values, 1.0)
    return PairMatrix(ids, values, "similarity")
