"""Fiducial grid placements and the nose-relative geometry vector."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import FormatError, ParameterError, malformed, require_numbers

NODE_COUNT = 34


@dataclass(frozen=True)
class GridPlacement:
    """The 34 labelled fiducial points on one image: `names` in node order
    and their (x, y) coordinates as the read-only (34, 2) array `points`;
    those and `source_size`, (width, height), are numbers, not strings or bools."""

    image_id: str
    names: tuple
    points: np.ndarray
    nose_tip: str
    source_size: tuple

    def __post_init__(self):
        names = tuple(self.names)
        if len(names) != NODE_COUNT:
            raise FormatError(f"expected {NODE_COUNT} nodes, found {len(names)}")
        if not all(isinstance(name, str) for name in [self.image_id, *names]):
            raise FormatError("image_id and node names must be strings")
        if len(set(names)) != NODE_COUNT:
            dup = next(n for n in names if names.count(n) > 1)
            raise FormatError(f"duplicate node name {dup!r}")
        if self.nose_tip not in names:
            raise FormatError(f"nose_tip {self.nose_tip!r} names no node")
        size, xy = (np.array(v, dtype=object) for v in (self.source_size, self.points))
        require_numbers(chain(size.flat, xy.flat), "source_size and node x, y")
        if size.shape != (2,) or not all(1 <= v <= sys.float_info.max for v in size):
            raise FormatError(f"source_size must be a finite width and height "
                              f">= 1, got {self.source_size!r}")
        w, h = size
        points = xy.astype(float)
        if points.shape != (NODE_COUNT, 2):
            raise FormatError(f"points must be a ({NODE_COUNT}, 2) array, got "
                              f"shape {points.shape}")
        x, y = points.T
        outside = ~((0 <= x) & (x < w) & (0 <= y) & (y < h))  # NaN is outside
        if np.any(outside):
            i = int(np.argmax(outside))
            if not np.all(np.isfinite(points[i])):
                raise FormatError(f"node {names[i]!r} has non-finite coordinates")
            raise FormatError(f"node {names[i]!r} at ({x[i]}, {y[i]}) outside "
                              f"{w}x{h} image")
        points.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "source_size", (w, h))


def load_grid(document):
    """Validate a grid document, the JSON value of a grid file, into a
    GridPlacement."""
    with malformed("grid document"):
        nodes = document["nodes"]
        return GridPlacement(document["image_id"], [node["name"] for node in nodes],
                             [(node["x"], node["y"]) for node in nodes],
                             document["nose_tip"], document["source_size"])


def rescale_placement(placement, target):
    """Scale node coordinates per-axis onto a new image size."""
    tw, th = int(target[0]), int(target[1])
    if tw < 1 or th < 1:
        raise ParameterError(f"target size must be >= 1x1, got {target}")
    sw, sh = placement.source_size
    return replace(placement, points=placement.points * (tw / sw, th / sh),
                   source_size=(tw, th))


def geometry_vector(placement):
    """Euclidean distance of every non-nose node to the nose tip, in node
    order: a (NODE_COUNT - 1,) array."""
    points = placement.points
    nose = placement.names.index(placement.nose_tip)
    offsets = np.delete(points, nose, axis=0) - points[nose]
    return np.hypot(offsets[:, 0], offsets[:, 1])
