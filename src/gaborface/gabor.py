"""Gabor wavelet filter bank and the jets it codes image points with.

A filter is a Gaussian-windowed sinusoid parameterized by a wave-vector
(magnitude k sets the spatial frequency, angle theta the orientation) and
an envelope width sigma.  The even (cosine) kernel carries a DC correction
term so that a constant image produces zero response; the odd (sine)
kernel rejects constants by antisymmetry.  The amplitude of the quadrature
pair at a point is one jet component; the full bank yields the jet.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (FormatError, ParameterError, malformed, require_known_keys,
                     require_numbers)
from .grid import load_grid

DEFAULT_WAVENUMBERS = (math.pi / 2, math.pi / 4, math.pi / 8)
DEFAULT_ORIENTATIONS = tuple(i * math.pi / 6 for i in range(6))
DEFAULT_SIGMA = math.pi

# Half-width of the truncated kernel window, in units of sigma/k (the
# envelope's spatial standard deviation).  Six standard deviations keep the
# residual DC leakage of the truncated cosine kernel below 1e-6 even for
# the widest default filter (k = pi/8); four is not enough for that bound.
KERNEL_HALF_WIDTH_SIGMAS = 6.0
# The widest kernel half-width h a bank may ask for, in pixels: compute_jets'
# reflected window gather holds (2h+1)^2 floats, ~34 MB at 1,024 (default 48).
MAX_KERNEL_HALF_WIDTH = 1024
# compute_jets fills its per-point kernel tables a batch of points at a
# time: WINDOW_SAMPLES // (2h+1) points, or one for a wider window.  So the
# work buffer each thread keeps takes at most 32 x max(WINDOW_SAMPLES, 2h+1)
# x (1 + orientations) bytes at any number of points: 0.46 MB for the
# default bank, and for h = 1,024 at 6 orientations.
WINDOW_SAMPLES = 2048


@dataclass(frozen=True)
class FilterSpec:
    """One Gabor filter: wave-vector magnitude, orientation, envelope width.
    FilterBank checks the parameters it builds its filters from."""

    wavenumber: float
    orientation: float
    sigma: float

    @property
    def wave_vector(self):
        k, theta = self.wavenumber, self.orientation
        return (k * math.cos(theta), k * math.sin(theta))

    def window_half_width(self):
        """Pixel half-width of the truncated kernel support."""
        return int(math.ceil(KERNEL_HALF_WIDTH_SIGMAS * self.sigma / self.wavenumber))


@dataclass(frozen=True)
class FilterBank:
    """Every (wavenumber, orientation) filter at one envelope width.

    The default is the 18-filter bank: k in {pi/2, pi/4, pi/8}, six
    orientations at pi/6 steps, sigma = pi.  The constructor refuses with a
    ParameterError, naming the field, wavenumbers or orientations that are
    empty or repeat a value, a wavenumber or sigma that is not finite and
    > 0, an orientation outside [0, pi), a kernel half-width 6 sigma/k above
    MAX_KERNEL_HALF_WIDTH and an integer too large for a float.  `specs`
    lists the filters frequency-major, then orientation-minor: the order of
    a jet's amplitudes.
    """

    wavenumbers: tuple = DEFAULT_WAVENUMBERS
    orientations: tuple = DEFAULT_ORIENTATIONS
    sigma: float = DEFAULT_SIGMA
    specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def floats(name, values):
            try:
                return tuple(float(v) for v in values)
            except OverflowError:  # an integer too large for a float
                raise ParameterError(f"bank {name!r} must be finite, got an "
                                     "integer too large for a float") from None

        wavenumbers = floats("wavenumbers", self.wavenumbers)
        orientations = floats("orientations", self.orientations)
        [sigma] = floats("sigma", [self.sigma])
        for name, values in (("wavenumbers", wavenumbers), ("orientations", orientations)):
            if not values or len(set(values)) != len(values):
                raise ParameterError(f"bank {name!r} must be non-empty and distinct")
        if not all(0 < k < math.inf for k in wavenumbers):
            raise ParameterError("bank 'wavenumbers' must be finite and > 0, "
                                 f"got {wavenumbers}")
        if not all(0 <= t < math.pi for t in orientations):
            raise ParameterError("bank 'orientations' must lie in [0, pi), "
                                 f"got {orientations}")
        if not 0 < sigma < math.inf:
            raise ParameterError(f"bank 'sigma' must be finite and > 0, got {sigma}")
        # the widest filter's 6 sigma/k, compared before a ceil can overflow
        widest = KERNEL_HALF_WIDTH_SIGMAS * sigma / min(wavenumbers)
        if widest > MAX_KERNEL_HALF_WIDTH:
            raise ParameterError("bank 'sigma' and 'wavenumbers' give a kernel "
                                 f"half-width 6 sigma/k of {widest:.4g} pixels, "
                                 f"above {MAX_KERNEL_HALF_WIDTH}")
        specs = tuple(FilterSpec(k, theta, sigma)
                      for k in wavenumbers for theta in orientations)
        for name, value in (("wavenumbers", wavenumbers), ("orientations", orientations),
                            ("sigma", sigma), ("specs", specs)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.specs)

    @classmethod
    def from_document(cls, doc, defaults=False):
        """The FilterBank of a bank document: JSON lists of numbers
        "wavenumbers" and "orientations" and a number "sigma".  With
        `defaults` a missing field takes the default bank's value; without,
        it is an error, and so is any other key.  Every error names its field."""
        if not isinstance(doc, dict):
            raise FormatError("bank must be an object")
        names = ("wavenumbers", "orientations", "sigma")
        require_known_keys(doc, names, "bank")
        fields = {}
        for name in names:
            if name not in doc:
                if defaults:
                    continue
                raise FormatError(f"bank has no {name!r}")
            value = fields[name] = doc[name]
            if name != "sigma" and not isinstance(value, list):
                raise FormatError(f"bank {name!r} must be a list of numbers")
            require_numbers(value if name != "sigma" else [value], f"bank {name!r}")
        return cls(**fields)


def _reflect_indices(idx, n):
    # mirror about the image edge (edge pixel repeated once per fold)
    idx = np.mod(idx, 2 * n)
    return np.where(idx >= n, 2 * n - 1 - idx, idx)


@functools.lru_cache(maxsize=16)
def _bank_groups(bank):
    """compute_jets' set-up of one bank, per wavenumber: that row's slice
    of the bank's filters, its kernel tables and its points per batch."""
    setup = []
    row = len(bank.orientations)
    for i, k in enumerate(bank.wavenumbers):
        members = slice(i * row, (i + 1) * row)
        specs = bank.specs[members]
        h = specs[0].window_half_width()
        offsets = np.arange(-h, h + 1)
        kx, ky = np.array([spec.wave_vector for spec in specs]).T
        waves = np.array([[0.0, *kx], [0.0, *ky]])  # column 0: the DC term
        # e^{i k o}: (2, window, 1 + filters), complex as (re, im) pairs
        carriers = np.exp(1j * offsets[:, None] * waves[:, None, :]).view(float)
        for array in (offsets, waves, carriers):
            array.setflags(write=False)  # the cache hands them to every call
        batch = max(1, WINDOW_SAMPLES // len(offsets))
        setup.append((k, members, h, offsets, waves, carriers, batch))
    return tuple(setup)


# compute_jets' work memory, a store per thread: "kernel" -> the arrays kept,
# one flat float buffer sized for the last call's largest batch
_work = threading.local()


def compute_jets(image, bank, points):
    """Jets at many image points: a (len(points), len(bank)) amplitude array.

    `image` is a 2-D array-like of intensities, indexed [y, x]; its shape
    is its (height, width).  An image that is not 2-D, is empty or holds a
    non-finite value is a ParameterError.  `points` is (n, 2), (x, y)
    centres; another shape is a ParameterError.
    Each kernel is summed over a square window of half-width
    spec.window_half_width() around the rounded centre; pixels past the
    image edge are mirrored.  Kernel offsets use the exact (possibly
    non-integer) centre, so sub-pixel phase lives in the kernel, not in any
    image interpolation.  The sums are evaluated separably: the complex response is c*(u_y^T P u_x - e^{-sigma^2/2} g_y^T P g_x)
    with P the window, g the 1-D Gaussian and u = g*e^{i k.d}.  With d = o - f
    (o the integer offset, f = c - round(c)), e^{i k d} = e^{i k o} e^{-i k f}:
    one carrier table over o, built once per bank, serves every point, and
    e^{-i k.f} rotates each point's sums.  P is a view into the image, or a
    _reflect_indices gather where the window crosses an edge.

    Each wavenumber's points are taken in batches of at most
    WINDOW_SAMPLES // (2h+1), and at least one.  Each thread keeps one work
    buffer for its next call, sized for the last call's largest batch: a
    batch's u_x table and its window products P u_x are views of its front,
    and u_y is then written over u_x.  So it holds at most
    2 x max(WINDOW_SAMPLES, 2h+1) x 2(1 + orientations) floats at any
    number of points, 0.46 MB for the default bank.  The returned jets
    never share memory with it.  Keeping it pays: arrays this large are
    mapped fresh on each allocation and freed again, so every call would
    take new zeroed pages.  Coding the benchmark's 210 images in one fresh
    process took ~230 minor page faults with the kept buffer and ~39,000
    without (0.27-0.30 s against 0.34-0.39 s of kernel time, 2-vCPU VM).
    """
    pixels = np.asarray(image, dtype=float)
    if pixels.ndim != 2 or not pixels.size or not np.all(np.isfinite(pixels)):
        raise ParameterError("image must be a non-empty 2-D array of finite "
                             f"intensities, got shape {pixels.shape}")
    height, width = pixels.shape
    pts = np.asarray(points, dtype=float) if len(points) else np.empty((0, 2))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError(f"points must be (x, y) pairs, got shape {pts.shape}")
    outside = ~np.all((pts >= 0) & (pts < (width, height)), axis=1)
    if np.any(outside):
        bx, by = pts[np.argmax(outside)]
        raise ParameterError(f"center ({bx}, {by}) outside {width}x{height} image")
    rounded = np.round(pts).astype(int)  # half-to-even
    fraction = (pts - rounded).T  # (2, points): f along x and y
    groups = _bank_groups(bank)
    # a batch's two tables take 2 x points x window x columns floats
    size = 2 * max(min(len(pts), batch) * carriers[0].size
                   for *_, carriers, batch in groups)
    kept = getattr(_work, "kernel", ())
    if not kept or kept[0].size != size:
        _work.kernel = kept = (np.empty(size),)
    [buffer] = kept
    jets = np.empty((len(pts), len(bank)))
    sigma = bank.sigma
    for k, members, h, offsets, waves, carriers, batch in groups:
        d = offsets - fraction[:, :, None]
        gauss = np.exp(-(k * k) * d * d / (2.0 * sigma * sigma))
        sums = np.empty((len(pts), carriers.shape[2] // 2), dtype=complex)
        for start in range(0, len(pts), batch):
            part = slice(start, start + batch)
            centres = rounded[part].tolist()
            # (points, window, 1 + filters) tables, complex as (re, im)
            # pairs, views of the front of the buffer: u_x and the window
            # products P u_x, then u_y over u_x, which they no longer need
            u, pu = buffer[:2 * len(centres) * carriers[0].size].reshape(
                2, len(centres), *carriers.shape[1:])
            np.multiply(gauss[0, part, :, None], carriers[0], out=u)
            # real window times complex columns: one real matmul per point
            for n, (x, y) in enumerate(centres):
                if h <= x < width - h and h <= y < height - h:
                    window = pixels[y - h:y + h + 1, x - h:x + h + 1]
                else:  # near an edge, or a centre rounded onto the width or height
                    window = (pixels.take(_reflect_indices(offsets + y, height), axis=0)
                              .take(_reflect_indices(offsets + x, width), axis=1))
                np.matmul(window, u[n], out=pu[n])
            np.multiply(gauss[1, part, :, None], carriers[1], out=u)
            np.einsum("nac,nac->nc", u.view(complex), pu.view(complex), out=sums[part])
        rotation = np.exp(-1j * (fraction.T @ waves[:, 1:]))  # e^{-i k.f}
        responses = (k * k / (sigma * sigma)) * (
            sums[:, 1:] * rotation - math.exp(-sigma * sigma / 2.0) * sums[:, :1].real)
        jets[:, members] = np.abs(responses)
    return jets


def compute_jet(image, bank, point):
    """Jet (all bank amplitudes) at one image point, in bank ordering."""
    return compute_jets(image, bank, [point])[0]


# ---------------------------------------------------------------------------
# I/O: binary 8-bit PGM decoding and jet-set JSON documents
# ---------------------------------------------------------------------------

# one PGM header token, after any whitespace and "#" comments; a comment
# runs through the next CR or LF
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]+|#[^\r\n]*[\r\n]?)*([^ \t\r\n#]+)")
_PGM_COMMENTS = re.compile(rb"(?:#[^\r\n]*[\r\n]?)*")


def read_pgm(data):
    """Decode the bytes of a binary (P5) 8-bit grayscale PGM file into a
    (height, width) float64 array of its samples.  A malformed header, a
    short raster or a sample above maxval is a FormatError."""
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
    for name, token in zip(("width", "height", "maxval"), tokens[1:]):
        if not token.isdigit():  # int() would also take b"+2" and b"2_0"
            raise FormatError(f"PGM {name} must be decimal digits, got {token!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:  # over int()'s 4,300-digit limit
        raise FormatError(f"PGM header field too long: {exc}") from exc
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"only 8-bit PGM supported, maxval {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"PGM size must be >= 1x1, got {width}x{height}")
    # comments may follow maxval; then one whitespace byte starts the raster
    pos = _PGM_COMMENTS.match(data, pos).end() + 1
    if data[pos - 1: pos] not in (b" ", b"\t", b"\r", b"\n"):
        raise FormatError("PGM header must end in one whitespace byte")
    raster = data[pos: pos + width * height]
    if len(raster) < width * height:
        raise FormatError(
            f"PGM raster too short: {len(raster)} bytes for {width}x{height}"
        )
    samples = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and samples.max() > maxval:  # no uint8 exceeds 255
        raise FormatError(f"PGM sample {samples.max()} above maxval {maxval}")
    return samples.astype(float)


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
    with malformed("jet document"):
        bank = FilterBank.from_document(doc["bank"])
        placement = load_grid({"image_id": doc["image_id"],
                               "source_size": doc["source_size"],
                               "nose_tip": doc["nose_tip"],
                               "nodes": doc["points"]})
        amplitudes = [p["amplitudes"] for p in doc["points"]]
        require_numbers(chain.from_iterable(amplitudes), "jet amplitudes")
        jets = np.array(amplitudes, dtype=float)
        if jets.shape != (len(placement.names), len(bank)):
            raise FormatError(f"amplitudes of shape {jets.shape}, expected "
                              f"{len(placement.names)} points x {len(bank)} filters")
        if not np.all(np.isfinite(jets)) or np.any(jets < 0):
            raise FormatError("jet amplitudes must be finite and non-negative")
    return placement, bank, jets
