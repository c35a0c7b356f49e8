"""Synthetic-study builder shared by the CLI and acceptance tests.

Generates a family of textured blob images under a parametric smooth
warp, grid placements whose nodes track the warp, and ratings whose
first adjective grows linearly with the warp parameter.  Without fear,
semantic distance is then exactly proportional to the parameter
difference, so a faithful image code should rank-correlate strongly with
it.  The first image alone is rated 5.0 on fear, so a `"no_fear": true`
study that kept the fear column would change the semantic matrix.
"""

import json
import math

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from gaborface.grid import NODE_COUNT
from oracles import default_template_placement, grid_document, write_pgm

IMAGE_SIZE = 96


def _base_texture(rng, size):
    noise = gaussian_filter(rng.standard_normal((size, size)), 2.5)
    blob = np.exp(-(((np.arange(size) - size / 2) ** 2)[:, None]
                    + ((np.arange(size) - size / 2) ** 2)[None, :])
                  / (2 * (size / 4) ** 2))
    tex = blob * (1.0 + 1.2 * noise / np.abs(noise).max())
    tex = (tex - tex.min()) / (tex.max() - tex.min())
    return 30 + 200 * tex


def _warp_fields(rng, size):
    dx = gaussian_filter(rng.standard_normal((size, size)), 8)
    dy = gaussian_filter(rng.standard_normal((size, size)), 8)
    dx *= 6.0 / np.abs(dx).max()
    dy *= 6.0 / np.abs(dy).max()
    return dx, dy


def _node_layout(size):
    """34 points spread over the central blob region."""
    pts = []
    cx = cy = size / 2.0
    for ring, (radius, count) in enumerate([(0.10, 1), (0.18, 6), (0.26, 9),
                                            (0.33, 9), (0.40, 9)]):
        for i in range(count):
            angle = 2 * math.pi * i / count + 0.25 * ring
            pts.append((cx + radius * size * math.cos(angle),
                        cy + radius * size * math.sin(angle)))
    assert len(pts) == NODE_COUNT
    return pts


def make_synthetic_study(root, n_images=10, size=IMAGE_SIZE, seed=7):
    """Write images, grids, ratings and a study config under `root`.

    Returns the path of the study config file.
    """
    root.mkdir(parents=True, exist_ok=True)
    image_dir = root / "images"
    grid_dir = root / "grids"
    out_dir = root / "out"
    image_dir.mkdir(exist_ok=True)
    grid_dir.mkdir(exist_ok=True)

    rng = np.random.default_rng(seed)
    base = _base_texture(rng, size)
    dx, dy = _warp_fields(rng, size)
    layout = np.array(_node_layout(size))
    node_offsets = rng.uniform(-5, 5, size=(NODE_COUNT, 2))

    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    ratings_rows = ["image_id,happiness,sadness,surprise,anger,disgust,fear"]
    expressers = {}
    labels = {}
    params = np.linspace(0.0, 1.0, n_images)
    for i, t in enumerate(params):
        image_id = f"img{i:02d}"
        warped = map_coordinates(base, [yy + t * dy, xx + t * dx],
                                 order=1, mode="reflect")
        write_pgm(image_dir / f"{image_id}.pgm", warped)
        coords = np.clip(layout + t * node_offsets, 0, size - 1e-6)
        placement = default_template_placement(image_id, coords, (size, size))
        (grid_dir / f"{image_id}.json").write_text(
            json.dumps(grid_document(placement)))
        first = 1.0 + 4.0 * float(t)
        fear = 5.0 if i == 0 else 3.0
        ratings_rows.append(f"{image_id},{first!r},3.0,3.0,3.0,3.0,{fear!r}")
        expressers[image_id] = "SY"
        labels[image_id] = "NE"
    (root / "ratings.csv").write_text("\n".join(ratings_rows) + "\n")

    config = {
        "image_dir": "images",
        "grid_dir": "grids",
        "ratings": "ratings.csv",
        "out_dir": "out",
        "expressers": expressers,
        "labels": labels,
        "options": {"dims": 2, "seed": 11},
    }
    config_path = root / "study.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path
