"""Fiducial grid placements and the nose-relative geometry vector."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .grid_template import NODE_NAMES, NOSE_TIP

NODE_COUNT = 34

STANDARD_SIZE = (256, 256)


@dataclass(frozen=True)
class GridNode:
    name: str
    x: float
    y: float


@dataclass(frozen=True)
class GridPlacement:
    """The 34 labelled fiducial points on one image."""

    image_id: str
    nodes: tuple
    nose_tip: str
    source_size: tuple

    def __post_init__(self):
        if len(self.nodes) != NODE_COUNT:
            raise FormatError(
                f"expected {NODE_COUNT} nodes, found {len(self.nodes)}"
            )
        names = [n.name for n in self.nodes]
        if not all(isinstance(name, str) for name in [self.image_id, *names]):
            raise FormatError("image_id and node names must be strings")
        if len(set(names)) != NODE_COUNT:
            dup = next(n for n in names if names.count(n) > 1)
            raise FormatError(f"duplicate node name {dup!r}")
        if self.nose_tip not in names:
            raise FormatError(f"nose_tip {self.nose_tip!r} names no node")
        try:
            w, h = self.source_size
            valid = math.isfinite(w) and math.isfinite(h) and w >= 1 and h >= 1
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise FormatError(f"source_size must be a finite width and height "
                              f">= 1, got {self.source_size!r}")
        for n in self.nodes:
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise FormatError(f"node {n.name!r} has non-finite coordinates")
            if not (0 <= n.x < w and 0 <= n.y < h):
                raise FormatError(
                    f"node {n.name!r} at ({n.x}, {n.y}) outside {w}x{h} image"
                )

    def node_names(self):
        return tuple(n.name for n in self.nodes)

    def points(self):
        """(x, y) coordinates in node order, as an (34, 2) array."""
        return np.array([(n.x, n.y) for n in self.nodes])


def load_grid(document):
    """Parse and validate a grid JSON document (string, bytes, or dict)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FormatError(f"grid document is not valid JSON: {exc}") from exc
    try:
        image_id = document["image_id"]
        source_size = tuple(document["source_size"])
        nose_tip = document["nose_tip"]
        raw_nodes = document["nodes"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"grid document missing field: {exc}") from exc
    if not isinstance(raw_nodes, list):
        raise FormatError(f"grid nodes must be a list, got {type(raw_nodes).__name__}")
    nodes = []
    for entry in raw_nodes:
        try:
            nodes.append(GridNode(entry["name"], float(entry["x"]), float(entry["y"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed grid node {entry!r}: {exc}") from exc
    return GridPlacement(image_id, tuple(nodes), nose_tip, source_size)


def grid_document(placement):
    """Serialize a placement back to its JSON document form."""
    return {
        "image_id": placement.image_id,
        "source_size": list(placement.source_size),
        "nose_tip": placement.nose_tip,
        "nodes": [{"name": n.name, "x": n.x, "y": n.y} for n in placement.nodes],
    }


def rescale_placement(placement, target):
    """Scale node coordinates per-axis onto a new image size."""
    tw, th = int(target[0]), int(target[1])
    if tw < 1 or th < 1:
        raise ParameterError(f"target size must be >= 1x1, got {target}")
    sw, sh = placement.source_size
    fx, fy = tw / sw, th / sh
    nodes = tuple(GridNode(n.name, n.x * fx, n.y * fy) for n in placement.nodes)
    return GridPlacement(placement.image_id, nodes, placement.nose_tip, (tw, th))


def geometry_vector(placement):
    """Euclidean distance of every non-nose node to the nose tip, in node
    order: a (NODE_COUNT - 1,) array."""
    points = placement.points()
    nose = placement.node_names().index(placement.nose_tip)
    offsets = np.delete(points, nose, axis=0) - points[nose]
    return np.hypot(offsets[:, 0], offsets[:, 1])


def default_template_placement(image_id, coordinates, source_size=STANDARD_SIZE):
    """Build a placement from bare coordinates using the default name template."""
    nodes = tuple(
        GridNode(name, float(x), float(y))
        for name, (x, y) in zip(NODE_NAMES, coordinates)
    )
    return GridPlacement(image_id, nodes, NOSE_TIP, source_size)
