"""Seeded, paper-shaped synthetic study for the benchmark.

The study has the shape of the paper's dataset: 10 expressers x 7
expression labels (NE, HA, SA, SU, AN, DI, FE) x 3 images, so 210 binary
PGM images at 256x256, each with a 34-node fiducial grid, plus a
6-adjective ratings table.  Everything is drawn from one seed and reaches
the program only as files:

    images/<id>.pgm   grids/<id>.json   ratings.csv
    study.json        per-expresser groups, default options
    pooled.json       all 210 images as one group, 1,000 permutations,
                      100 nMDS iterations per embed

Faces are textured ellipses with darker features at the grid nodes.  Each
expression moves the nodes by a label-specific pattern scaled by a
per-image intensity, and the image is warped along with its nodes.  A
rating vector is the label's prototype plus per-image noise, so no two
semantic distances tie.

Usage: python3 perfbench/fixture.py --seed N --out DIR
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

SIZE = 256
EXPRESSERS = ("KA", "KL", "KM", "KR", "MK", "NA", "NM", "TM", "UY", "YM")
LABELS = ("NE", "HA", "SA", "SU", "AN", "DI", "FE")
IMAGES_PER_LABEL = 3
ADJECTIVES = ("happiness", "sadness", "surprise", "anger", "disgust", "fear")
POOLED_GROUP = "ALL"
POOLED_PERMUTATIONS = 1000
# tolerance 0 runs every pooled embed for exactly POOLED_ITERATIONS SMACOF
# steps (barring an uphill step), so the nMDS work does not vary with the seed
POOLED_ITERATIONS = 100

# The grid file format names its 34 nodes; these are the names and rough
# positions (x, y on a 256x256 face) of the default template.
NODES = (
    ("right_eyebrow_outer", 70, 78), ("right_eyebrow_mid", 88, 70),
    ("right_eyebrow_inner", 108, 76), ("left_eyebrow_inner", 148, 76),
    ("left_eyebrow_mid", 168, 70), ("left_eyebrow_outer", 186, 78),
    ("right_eye_outer", 74, 100), ("right_eye_top", 90, 93),
    ("right_eye_inner", 106, 100), ("right_eye_bottom", 90, 106),
    ("left_eye_inner", 150, 100), ("left_eye_top", 166, 93),
    ("left_eye_outer", 182, 100), ("left_eye_bottom", 166, 106),
    ("nose_bridge", 128, 104), ("nose_right", 114, 146),
    ("nose_tip", 128, 150), ("nose_left", 142, 146),
    ("mouth_right", 102, 184), ("mouth_top_right", 114, 178),
    ("mouth_top_center", 128, 176), ("mouth_top_left", 142, 178),
    ("mouth_left", 154, 184), ("mouth_bottom_left", 142, 192),
    ("mouth_bottom_center", 128, 195), ("mouth_bottom_right", 114, 192),
    ("chin_right", 106, 222), ("chin_center", 128, 232),
    ("chin_left", 150, 222), ("right_cheek", 80, 150),
    ("left_cheek", 176, 150), ("right_temple", 52, 96),
    ("left_temple", 204, 96), ("forehead_center", 128, 44),
)
NOSE_TIP = "nose_tip"
NODE_NAMES = tuple(name for name, _, _ in NODES)

# Label -> {node-name prefix or name: (dx, dy)} at full intensity, pixels.
# Left/right moves mirror: a positive dx moves a node away from the midline.
MOVES = {
    "NE": {},
    "HA": {"mouth_right": (7, -6), "mouth_left": (7, -6),
           "mouth_top": (0, -2), "mouth_bottom": (0, 3), "cheek": (2, -5),
           "eye_bottom": (0, -3)},
    "SA": {"mouth_right": (-2, 6), "mouth_left": (-2, 6),
           "eyebrow_inner": (-2, -6), "eye_top": (0, 3), "chin": (0, 3)},
    "SU": {"eyebrow": (0, -10), "eye_top": (0, -5), "eye_bottom": (0, 2),
           "mouth_bottom": (0, 12), "chin": (0, 10), "mouth_top": (0, 2)},
    "AN": {"eyebrow_inner": (-5, 7), "eyebrow_mid": (-2, 4), "eye_top": (0, 3),
           "mouth_top": (0, 2), "mouth_bottom": (0, -2), "mouth_right": (-3, 0),
           "mouth_left": (-3, 0)},
    "DI": {"nose_right": (2, -4), "nose_left": (2, -4), "mouth_top": (0, -6),
           "eyebrow_inner": (-3, 4), "cheek": (1, -4), "eye_bottom": (0, -2)},
    "FE": {"eyebrow": (0, -7), "eyebrow_inner": (-3, -3), "eye_top": (0, -4),
           "mouth_right": (5, 3), "mouth_left": (5, 3), "mouth_bottom": (0, 5)},
}

# Label -> mean rating per adjective, on the five-point scale.
PROTOTYPES = {
    "NE": (1.6, 1.7, 1.4, 1.3, 1.4, 1.4),
    "HA": (4.6, 1.2, 2.0, 1.1, 1.2, 1.1),
    "SA": (1.2, 4.3, 1.4, 1.8, 2.0, 2.2),
    "SU": (2.2, 1.3, 4.5, 1.3, 1.3, 2.8),
    "AN": (1.1, 2.0, 1.6, 4.2, 3.1, 1.6),
    "DI": (1.1, 2.4, 1.5, 2.9, 4.1, 1.9),
    "FE": (1.2, 2.6, 3.3, 1.8, 2.2, 3.9),
}


def image_ids():
    """(image_id, expresser, label) for every image, in id order."""
    return [(f"{e}.{lab}{k + 1}", e, lab)
            for e in EXPRESSERS for lab in LABELS
            for k in range(IMAGES_PER_LABEL)]


def _node_moves(label):
    moves = np.zeros((len(NODES), 2))
    for i, (name, x, _) in enumerate(NODES):
        for key, (dx, dy) in MOVES[label].items():
            if key in name:
                side = 0.0 if x == 128 else math.copysign(1.0, x - 128)
                moves[i] = (dx * side, dy)
    return moves


def _base_face(rng, nodes):
    yy, xx = np.mgrid[0:SIZE, 0:SIZE].astype(float)
    cx, cy = 128 + rng.normal(0, 2), 140 + rng.normal(0, 2)
    ax, ay = 88 + rng.normal(0, 3), 112 + rng.normal(0, 3)
    face = np.clip(1.2 - ((xx - cx) / ax) ** 2 - ((yy - cy) / ay) ** 2, 0, 1)
    skin = 70 + 110 * gaussian_filter(face, 4)
    # white noise smoothed with width w has std ~ 1 / (2 w sqrt(pi)); the
    # divisors bring both texture layers to unit std before scaling
    skin += 25 * gaussian_filter(rng.standard_normal((SIZE, SIZE)), 6) / 0.05
    skin += 8 * gaussian_filter(rng.standard_normal((SIZE, SIZE)), 1.2) / 0.23
    for (x, y), darkness in zip(nodes, rng.uniform(20, 50, len(nodes))):
        skin -= darkness * np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / 30.0)
    return skin


def _node_weights(nodes, width=18.0):
    yy, xx = np.mgrid[0:SIZE, 0:SIZE].astype(float)
    d2 = (xx[None] - nodes[:, 0, None, None]) ** 2 \
        + (yy[None] - nodes[:, 1, None, None]) ** 2
    return np.exp(-d2 / (2 * width * width))


def _write_pgm(path, pixels):
    raster = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    path.write_bytes(b"P5\n%d %d\n255\n" % (SIZE, SIZE) + raster.tobytes())


def _semantic_checks(vectors, groups):
    """Untied semantic distances everywhere; >= 2 positive classical-scaling
    eigenvalues per group, so the 2-d embedding needs no random fallback.
    Returns group -> number of distinct semantic distances."""
    counts = {}
    for name, rows in groups.items():
        v = vectors[rows]
        n = len(rows)
        iu = np.triu_indices(n, 1)
        dist = np.linalg.norm(v[iu[0]] - v[iu[1]], axis=1)
        distinct = np.unique(dist).size
        if distinct != dist.size:
            raise SystemExit(f"fixture: group {name} has tied semantic "
                             f"distances ({distinct} of {dist.size} distinct)")
        full = np.zeros((n, n))
        full[iu] = dist
        full += full.T
        centre = np.eye(n) - 1.0 / n
        evals = np.linalg.eigvalsh(-0.5 * centre @ (full * full) @ centre)
        if np.sum(evals > 1e-12 * max(1.0, abs(evals).max())) < 2:
            raise SystemExit(f"fixture: group {name} is nearly 1-d")
        counts[name] = distinct
    return counts


def make_study(root, seed):
    """Write the study under `root`; return a summary of what was made."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "grids").mkdir(exist_ok=True)
    rng = np.random.default_rng([seed, 20200911])
    template = np.array([(x, y) for _, x, y in NODES], dtype=float)
    moves = {lab: _node_moves(lab) for lab in LABELS}
    yy, xx = np.mgrid[0:SIZE, 0:SIZE].astype(float)

    ids = image_ids()
    rows = ["image_id," + ",".join(ADJECTIVES)]
    vectors = []
    face_of = None
    for image_id, expresser, label in ids:
        if face_of != expresser:
            face_of = expresser
            nodes = template + rng.normal(0, 3, template.shape)
            face = _base_face(rng, nodes)
            weights = _node_weights(nodes)
            expressiveness = rng.uniform(0.6, 1.0)
        intensity = expressiveness * rng.uniform(0.6, 1.2)
        shift = intensity * moves[label] + rng.normal(0, 0.8, template.shape)
        # backward warp: each pixel samples the neutral face where the
        # nearby nodes came from, so features follow their nodes
        dx = np.tensordot(shift[:, 0], weights, axes=1)
        dy = np.tensordot(shift[:, 1], weights, axes=1)
        warped = map_coordinates(face, [yy - dy, xx - dx], order=1,
                                 mode="reflect")
        warped += rng.normal(0, 2.0, warped.shape)
        _write_pgm(root / "images" / f"{image_id}.pgm", warped)

        points = np.clip(nodes + shift, 0.5, SIZE - 1.5)
        grid = {"image_id": image_id, "source_size": [SIZE, SIZE],
                "nose_tip": NOSE_TIP,
                "nodes": [{"name": name, "x": float(x), "y": float(y)}
                          for name, (x, y) in zip(NODE_NAMES, points)]}
        (root / "grids" / f"{image_id}.json").write_text(json.dumps(grid))

        prototype = np.array(PROTOTYPES[label])
        rating = 1.0 + (prototype - 1.0) * min(intensity, 1.0) \
            + rng.normal(0, 0.25, prototype.size)
        rating = np.clip(rating, 1.0, 5.0)
        vectors.append(rating)
        rows.append(image_id + "," + ",".join(repr(float(v)) for v in rating))
    (root / "ratings.csv").write_text("\n".join(rows) + "\n")

    index = {image_id: i for i, (image_id, _, _) in enumerate(ids)}
    groups = {e: [index[i] for i, ex, _ in ids if ex == e] for e in EXPRESSERS}
    groups[POOLED_GROUP] = list(range(len(ids)))
    distinct = _semantic_checks(np.array(vectors), groups)

    labels = {image_id: label for image_id, _, label in ids}
    common = {"image_dir": "images", "grid_dir": "grids",
              "ratings": "ratings.csv", "out_dir": "out", "labels": labels}
    study = dict(common, expressers={i: e for i, e, _ in ids},
                 options={"dims": 2})
    pooled = dict(common, expressers={i: POOLED_GROUP for i, _, _ in ids},
                  options={"dims": 2, "seed": seed,
                           "permutations": POOLED_PERMUTATIONS,
                           "tolerance": 0.0,
                           "max_iterations": POOLED_ITERATIONS})
    (root / "study.json").write_text(json.dumps(study, indent=1))
    (root / "pooled.json").write_text(json.dumps(pooled, indent=1))
    n = len(ids)
    return {"images": n, "semantic_pairs": n * (n - 1) // 2,
            "semantic_pairs_distinct": distinct[POOLED_GROUP]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(make_study(args.out, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
