"""Gabor wavelet filter bank: kernels, per-point responses, and jets.

A filter is a Gaussian-windowed sinusoid parameterized by a wave-vector
(magnitude k sets the spatial frequency, angle theta the orientation) and
an envelope width sigma.  The even (cosine) kernel carries a DC correction
term so that a constant image produces zero response; the odd (sine)
kernel rejects constants by antisymmetry.  The amplitude of the quadrature
pair at a point is one jet component; the full bank yields the jet.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, OutOfBoundsError, ParameterError
from .grid import load_grid

DEFAULT_WAVENUMBERS = (math.pi / 2, math.pi / 4, math.pi / 8)
DEFAULT_ORIENTATIONS = tuple(i * math.pi / 6 for i in range(6))
DEFAULT_SIGMA = math.pi

# Half-width of the truncated kernel window, in units of sigma/k (the
# envelope's spatial standard deviation).  Six standard deviations keep the
# residual DC leakage of the truncated cosine kernel below 1e-6 even for
# the widest default filter (k = pi/8); four is not enough for that bound.
KERNEL_HALF_WIDTH_SIGMAS = 6.0


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FilterSpec:
    """One Gabor filter: wave-vector magnitude, orientation, envelope width."""

    wavenumber: float
    orientation: float
    sigma: float

    def __post_init__(self):
        for name in ("wavenumber", "orientation", "sigma"):
            _require_finite(name, getattr(self, name))
        if self.wavenumber <= 0:
            raise ParameterError(f"wavenumber must be > 0, got {self.wavenumber}")
        if not 0 <= self.orientation < math.pi:
            raise ParameterError(
                f"orientation must lie in [0, pi), got {self.orientation}"
            )
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")

    @property
    def wave_vector(self):
        k, theta = self.wavenumber, self.orientation
        return (k * math.cos(theta), k * math.sin(theta))

    def window_half_width(self):
        """Pixel half-width of the truncated kernel support."""
        return int(math.ceil(KERNEL_HALF_WIDTH_SIGMAS * self.sigma / self.wavenumber))


@dataclass(frozen=True)
class FilterBank:
    """Ordered bank of filters, frequency-major then orientation-minor."""

    specs: tuple
    frequency_count: int
    orientation_count: int

    def __len__(self):
        return len(self.specs)

    @property
    def wavenumbers(self):
        return tuple(self.specs[i * self.orientation_count].wavenumber
                     for i in range(self.frequency_count))

    @property
    def orientations(self):
        return tuple(s.orientation for s in self.specs[: self.orientation_count])

    @property
    def sigma(self):
        return self.specs[0].sigma

    def fingerprint(self):
        """Stable hash of the bank parameters, for compatibility checks."""
        payload = json.dumps(
            {
                "wavenumbers": [repr(k) for k in self.wavenumbers],
                "orientations": [repr(t) for t in self.orientations],
                "sigma": repr(self.sigma),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def build_filter_bank(wavenumbers=DEFAULT_WAVENUMBERS,
                      orientations=DEFAULT_ORIENTATIONS,
                      sigma=DEFAULT_SIGMA):
    """Build a frequency-major bank; the default call is the 18-filter bank
    (k in {pi/2, pi/4, pi/8}, six orientations at pi/6 steps, sigma = pi)."""
    wavenumbers = tuple(float(k) for k in wavenumbers)
    orientations = tuple(float(t) for t in orientations)
    sigma = float(sigma)
    if not wavenumbers or not orientations:
        raise ParameterError("wavenumbers and orientations must be non-empty")
    if len(set(wavenumbers)) != len(wavenumbers):
        raise ParameterError("duplicate wavenumber in bank")
    if len(set(orientations)) != len(orientations):
        raise ParameterError("duplicate orientation in bank")
    specs = tuple(
        FilterSpec(k, theta, sigma) for k in wavenumbers for theta in orientations
    )
    return FilterBank(specs, len(wavenumbers), len(orientations))


class ImageRaster:
    """Grayscale image; intensities are finite reals in row-major order."""

    def __init__(self, width, height, intensities):
        width, height = int(width), int(height)
        if width < 1 or height < 1:
            raise ParameterError(f"image size must be >= 1x1, got {width}x{height}")
        pixels = np.asarray(intensities, dtype=float)
        if pixels.ndim == 1:
            if pixels.size != width * height:
                raise ParameterError(
                    f"expected {width * height} intensities, got {pixels.size}"
                )
            pixels = pixels.reshape(height, width)
        elif pixels.shape != (height, width):
            raise ParameterError(
                f"intensity array shape {pixels.shape} != ({height}, {width})"
            )
        if not np.all(np.isfinite(pixels)):
            raise ParameterError("image intensities must all be finite")
        pixels = np.ascontiguousarray(pixels)
        pixels.setflags(write=False)
        self.width = width
        self.height = height
        self.pixels = pixels

    def contains(self, point):
        x, y = point
        return 0 <= x < self.width and 0 <= y < self.height


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


def _reflect_indices(idx, n):
    # mirror about the image edge (edge pixel repeated once per fold)
    idx = np.mod(idx, 2 * n)
    return np.where(idx >= n, 2 * n - 1 - idx, idx)


def filter_response(image, spec, center, truncate=True):
    """Discrete even/odd responses at `center`.

    The kernel is summed over a square window of half-width
    spec.window_half_width() around the rounded center; pixels past the
    image edge are mirrored.  Kernel offsets use the exact (possibly
    non-integer) center, so sub-pixel phase lives in the kernel, not in
    any image interpolation.  With truncate=False the sum runs over the
    whole image instead (reference path for truncation-error checks).
    """
    cx, cy = float(center[0]), float(center[1])
    if not image.contains((cx, cy)):
        raise OutOfBoundsError(
            f"center ({cx}, {cy}) outside {image.width}x{image.height} image"
        )
    if truncate:
        h = spec.window_half_width()
        xs = np.arange(round(cx) - h, round(cx) + h + 1)
        ys = np.arange(round(cy) - h, round(cy) + h + 1)
        patch = image.pixels[
            np.ix_(_reflect_indices(ys, image.height),
                   _reflect_indices(xs, image.width))
        ]
    else:
        xs = np.arange(image.width)
        ys = np.arange(image.height)
        patch = image.pixels

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
    _require_finite("even", even)
    _require_finite("odd", odd)
    return math.hypot(even, odd)


def compute_jets(image, bank, points):
    """Jets at many image points: a (len(points), len(bank)) amplitude array.

    Same window, reflection and offset rules as filter_response, evaluated
    separably: the complex response is c*(u_y^T P u_x - e^{-sigma^2/2} g_y^T P g_x)
    with P the window, g the 1-D Gaussian and u = g*e^{i k.d}.  With d = o - f
    (o the integer offset, f = c - round(c)), e^{i k d} = e^{i k o} e^{-i k f}:
    one carrier table over o serves every point, and e^{-i k.f} rotates each
    point's sums.  The image is mirror-padded once; each P is a view into it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    outside = ~np.all((pts >= 0) & (pts < (image.width, image.height)), axis=1)
    if np.any(outside):
        bx, by = pts[np.argmax(outside)]
        raise OutOfBoundsError(
            f"center ({bx}, {by}) outside {image.width}x{image.height} image"
        )
    rounded = np.round(pts).astype(int)  # half-to-even, as filter_response
    fraction = (pts - rounded).T  # (2, points): f along x and y
    # a centre just below the width rounds onto it, hence H + 1 past the end;
    # "symmetric" repeats the edge pixel at each fold, as _reflect_indices
    pad = max(spec.window_half_width() for spec in bank.specs)
    padded = np.pad(image.pixels, (pad, pad + 1), mode="symmetric")
    jets = np.empty((len(pts), len(bank)))
    groups = {}
    for i, spec in enumerate(bank.specs):
        groups.setdefault((spec.wavenumber, spec.sigma), []).append(i)
    for (k, sigma), members in groups.items():
        h = bank.specs[members[0]].window_half_width()
        offsets = np.arange(-h, h + 1)
        kx, ky = np.array([bank.specs[i].wave_vector for i in members]).T
        waves = np.array([[0.0, *kx], [0.0, *ky]])  # column 0: the DC term
        carriers = np.exp(1j * offsets[:, None] * waves[:, None, :])
        d = offsets - fraction[:, :, None]
        gauss = np.exp(-(k * k) * d * d / (2.0 * sigma * sigma))
        # (points, window, 1 + filters) per axis, complex as (re, im) pairs
        vx, vy = gauss[..., None] * carriers.view(float)[:, None]
        # real window (a view) times complex columns: one real matmul per point
        pvx = np.empty(vx.shape)
        for n, (x, y) in enumerate(rounded + pad - h):
            np.matmul(padded[y:y + 2 * h + 1, x:x + 2 * h + 1], vx[n], out=pvx[n])
        sums = np.einsum("nac,nac->nc", vy.view(complex), pvx.view(complex))
        rotation = np.exp(-1j * (fraction.T @ waves[:, 1:]))  # e^{-i k.f}
        responses = (k * k / (sigma * sigma)) * (
            sums[:, 1:] * rotation - math.exp(-sigma * sigma / 2.0) * sums[:, :1].real)
        jets[:, members] = np.abs(responses)
    return jets


def compute_jet(image, bank, point):
    """Jet (all bank amplitudes) at one image point, in bank ordering."""
    return compute_jets(image, bank, [point])[0]


# ---------------------------------------------------------------------------
# I/O: binary 8-bit PGM images and jet-set JSON documents
# ---------------------------------------------------------------------------

# one PGM header token, after any whitespace and "#" comment lines
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]+|#[^\n]*\n?)*([^ \t\r\n#]+)")


def read_pgm(data):
    """Decode the bytes of a binary (P5) 8-bit grayscale PGM file."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = _PGM_TOKEN.match(data, pos)
        if m is None:
            raise FormatError("truncated PGM header")
        tokens.append(m.group(1))
        pos = m.end()
    if tokens[0] != b"P5":
        raise FormatError(f"not a binary PGM (magic {tokens[0]!r}, expected P5)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError(f"non-numeric PGM header field: {exc}") from exc
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"only 8-bit PGM supported, maxval {maxval}")
    pos += 1  # exactly one whitespace byte separates maxval from the raster
    raster = data[pos: pos + width * height]
    if len(raster) < width * height:
        raise FormatError(
            f"PGM raster too short: {len(raster)} bytes for {width}x{height}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(float)
    return ImageRaster(width, height, pixels)


def write_pgm(path, image):
    """Write a binary (P5) 8-bit PGM; intensities are clipped to [0, 255]."""
    pixels = np.clip(np.rint(image.pixels), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode())
        fh.write(pixels.tobytes())


def jet_document(image_id, bank, placement, jets):
    """Build the jet-set JSON document for one coded image.

    It holds the bank, the grid placement the jets were taken at (source
    size, nose tip and the named points) and each point's amplitudes, one
    row of the (points, filters) array `jets` per point.
    """
    return {
        "image_id": image_id,
        "bank": {
            "wavenumbers": list(bank.wavenumbers),
            "orientations": list(bank.orientations),
            "sigma": bank.sigma,
        },
        "source_size": list(placement.source_size),
        "nose_tip": placement.nose_tip,
        "points": [
            {"name": name, "x": x, "y": y, "amplitudes": jet}
            for name, (x, y), jet in zip(placement.names, placement.points.tolist(),
                                         np.asarray(jets, dtype=float).tolist())
        ],
    }


def parse_jet_document(doc):
    """Parse a jet-set document, the JSON value of a jet file, into
    (GridPlacement, FilterBank, jets), with jets the (points, filters) array
    of finite, non-negative amplitudes."""
    try:
        if "source_size" not in doc or "nose_tip" not in doc:
            raise FormatError("jet document has no source_size or nose_tip, "
                              "so it predates placements in jet files; "
                              "re-run the encode stage")
        bank = build_filter_bank(
            doc["bank"]["wavenumbers"], doc["bank"]["orientations"], doc["bank"]["sigma"]
        )
        placement = load_grid({"image_id": doc["image_id"],
                               "source_size": doc["source_size"],
                               "nose_tip": doc["nose_tip"],
                               "nodes": doc["points"]})
        jets = np.array([p["amplitudes"] for p in doc["points"]], dtype=float)
    except KeyError as exc:
        raise FormatError(f"malformed jet document: missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        # float() of a non-number, ragged amplitude lists and the bank
        # checks (ParameterError) are all ValueErrors
        raise FormatError(f"malformed jet document: {exc}") from exc
    if jets.shape != (len(placement.names), len(bank)):
        raise FormatError(f"malformed jet document: amplitudes of shape "
                          f"{jets.shape}, expected {len(placement.names)} "
                          f"points x {len(bank)} filters")
    if not np.all(np.isfinite(jets)) or np.any(jets < 0):
        raise FormatError("malformed jet document: jet amplitudes must be "
                          "finite and non-negative")
    return placement, bank, jets
