"""Reference oracles and fixture writers for the tests.

The package computes each step once, with whole-array kernels: the jets of
many points with gabor.compute_jets, the pair matrices with
similarity.pairwise_matrix, the permutation test's draws a chunk at a
time with rank_stats.significance.  Here are the references they are held
to, one point, one pair or one draw at a time (the closed-form kernel, a
direct windowed sum, the jet similarity, the per-draw Mantel loop, the
column-at-a-time classical start), and the writers that make the files
and documents the loaders read back.
"""

import math
import warnings

import numpy as np

from gaborface.errors import (
    ParameterError,
    RuntimeFailure,
    ValidationError,
)
from gaborface.gabor import _reflect_indices
from gaborface.grid import NODE_COUNT, GridPlacement
from gaborface.nmds import _double_centred
from gaborface.similarity import _jet_stack

# The default 34-node fiducial grid template.  Only the ordering and the
# nose-tip designation matter to the numerics; the names make grid files
# self-describing.
NOSE_TIP = "nose_tip"

NODE_NAMES = (
    "right_eyebrow_outer",
    "right_eyebrow_mid",
    "right_eyebrow_inner",
    "left_eyebrow_inner",
    "left_eyebrow_mid",
    "left_eyebrow_outer",
    "right_eye_outer",
    "right_eye_top",
    "right_eye_inner",
    "right_eye_bottom",
    "left_eye_inner",
    "left_eye_top",
    "left_eye_outer",
    "left_eye_bottom",
    "nose_bridge",
    "nose_right",
    "nose_tip",
    "nose_left",
    "mouth_right",
    "mouth_top_right",
    "mouth_top_center",
    "mouth_top_left",
    "mouth_left",
    "mouth_bottom_left",
    "mouth_bottom_center",
    "mouth_bottom_right",
    "chin_right",
    "chin_center",
    "chin_left",
    "right_cheek",
    "left_cheek",
    "right_temple",
    "left_temple",
    "forehead_center",
)

assert len(NODE_NAMES) == 34
assert NOSE_TIP in NODE_NAMES


class DegenerateJetError(RuntimeFailure):
    """A jet is all-zero, so its normalized dot product is undefined."""


class DimensionError(ValidationError):
    """Vector or matrix dimensions do not agree."""


# ---------------------------------------------------------------------------
# Gabor kernels and responses, one filter and one point at a time
# ---------------------------------------------------------------------------

def evaluate_kernel(spec, center, point):
    """Closed-form even/odd kernel values at `point` for a filter at `center`."""
    k, sigma = spec.wavenumber, spec.sigma
    kx, ky = spec.wave_vector
    dx = point[0] - center[0]
    dy = point[1] - center[1]
    envelope = (k * k / (sigma * sigma)) * math.exp(
        -(k * k) * (dx * dx + dy * dy) / (2.0 * sigma * sigma)
    )
    phase = kx * dx + ky * dy
    even = envelope * (math.cos(phase) - math.exp(-sigma * sigma / 2.0))
    odd = envelope * math.sin(phase)
    return even, odd


def filter_response(image, spec, center, truncate=True):
    """Discrete even/odd responses at `center`.

    The kernel is summed over a square window of half-width
    spec.window_half_width() around the rounded center; pixels past the
    image edge are mirrored.  Kernel offsets use the exact (possibly
    non-integer) center, so sub-pixel phase lives in the kernel, not in
    any image interpolation.  With truncate=False the sum runs over the
    whole image instead (reference path for truncation-error checks).
    """
    height, width = image.shape
    cx, cy = float(center[0]), float(center[1])
    if not (0 <= cx < width and 0 <= cy < height):
        raise ParameterError(f"center ({cx}, {cy}) outside {width}x{height} image")
    if truncate:
        h = spec.window_half_width()
        xs = np.arange(round(cx) - h, round(cx) + h + 1)
        ys = np.arange(round(cy) - h, round(cy) + h + 1)
        patch = image[np.ix_(_reflect_indices(ys, height), _reflect_indices(xs, width))]
    else:
        xs = np.arange(width)
        ys = np.arange(height)
        patch = image

    k, sigma = spec.wavenumber, spec.sigma
    kx, ky = spec.wave_vector
    dx = xs - cx
    dy = ys - cy
    r2 = dy[:, None] ** 2 + dx[None, :] ** 2
    envelope = (k * k / (sigma * sigma)) * np.exp(
        -(k * k) * r2 / (2.0 * sigma * sigma)
    )
    phase = ky * dy[:, None] + kx * dx[None, :]
    even = float(np.sum(envelope * (np.cos(phase) - math.exp(-sigma * sigma / 2.0)) * patch))
    odd = float(np.sum(envelope * np.sin(phase) * patch))
    return even, odd


def amplitude(even, odd):
    """Magnitude of the quadrature response pair."""
    for name, value in (("even", even), ("odd", odd)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    return math.hypot(even, odd)


def write_pgm(path, image):
    """Write a (height, width) array as a binary (P5) 8-bit PGM;
    intensities are clipped to [0, 255]."""
    height, width = np.shape(image)
    pixels = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# Jet similarity, one pair at a time
# ---------------------------------------------------------------------------

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


def mantel_per_draw(x_ranks, y_ranks, permutations, seed):
    """significance's p-values, one draw at a time: per draw, one
    rng.permutation of the items, the centred y ranks gathered from the
    relabelled item matrix and every series scored against them (the
    reference for significance's chunked draws, which must equal it)."""
    rx = np.array(x_ranks, dtype=float)
    ry = np.array(y_ranks, dtype=float)
    m = ry.size
    items = math.isqrt(2 * m) + 1
    thresholds = []
    for row in rx:
        a, b = row - row.mean(), ry - ry.mean()
        thresholds.append(abs(np.dot(a, b) / np.sqrt(np.sum(a * a) * np.sum(b * b))))
    thresholds = np.array(thresholds) - 1e-12
    rx -= rx.mean(axis=1, keepdims=True)
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx, axis=1) * np.sum(ry * ry))
    upper_i, upper_j = np.triu_indices(items, 1)
    centred = np.zeros((items, items))
    centred[upper_i, upper_j] = centred[upper_j, upper_i] = ry
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(rx), dtype=int)
    for _ in range(permutations):
        labels = rng.permutation(items)
        permuted = centred[labels[upper_i], labels[upper_j]]
        hits += np.abs(rx @ permuted) / denom >= thresholds
    return [(h + 1) / (permutations + 1) for h in hits.tolist()]


def classical_start(dissimilarity, d, seed=0):
    """nmds.classical_init one column at a time: each of the top `usable`
    eigenvectors scaled by its root eigenvalue and negated when its
    largest-magnitude entry is negative, then the seeded random columns
    (the reference for the vectorised scale and sign flip, which must equal
    it bit for bit)."""
    D = dissimilarity.values
    n = D.shape[0]
    evals, evecs = np.linalg.eigh(_double_centred(D))
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order[:d]]
    coords = np.zeros((n, d))
    usable = min(d, int(np.sum(evals > 1e-12 * max(1.0, abs(evals[0])))))
    for col in range(usable):
        v = evecs[:, col] * np.sqrt(evals[col])
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        coords[:, col] = v
    if usable < d and np.any(D != 0):
        rng = np.random.default_rng(seed)
        scale = 1e-3 * max(1.0, float(D.max()))
        coords[:, usable:] = scale * rng.standard_normal((n, d - usable))
    return coords - coords.mean(axis=0)


# ---------------------------------------------------------------------------
# Documents the loaders read back
# ---------------------------------------------------------------------------

def matrix_document(matrix):
    """The JSON document of a PairMatrix, which PairMatrix.from_document
    reads back."""
    return {"kind": matrix.kind, "item_ids": list(matrix.item_ids),
            "values": matrix.values.tolist()}


def matrix_csv(matrix):
    """The CSV twin of a PairMatrix: an id header row and column around the
    values."""
    return "".join(csv for _, csv in matrix.text_chunks())


def grid_document(placement):
    """Serialize a placement back to its JSON document form."""
    return {
        "image_id": placement.image_id,
        "source_size": list(placement.source_size),
        "nose_tip": placement.nose_tip,
        "nodes": [{"name": name, "x": x, "y": y}
                  for name, (x, y) in zip(placement.names, placement.points.tolist())],
    }


def default_template_placement(image_id, coordinates, source_size=(256, 256)):
    """Build a placement from bare coordinates using the default name template."""
    return GridPlacement(image_id, NODE_NAMES, coordinates, NOSE_TIP, source_size)


def dump_ratings(table):
    """Serialize a RatingTable back to CSV; floats round-trip exactly."""
    lines = ["image_id," + ",".join(table.adjectives)]
    lines += [image_id + "," + ",".join(map(repr, row))
              for image_id, row in zip(table.image_ids, table.values.tolist())]
    return "\n".join(lines) + "\n"
