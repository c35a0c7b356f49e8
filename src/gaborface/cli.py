"""End-to-end study pipeline and command-line entry point.

Stages (each reads the previous stage's files, enabling partial reruns):

  encode     images + grids -> per-image jet JSON (jets and placement)
  matrices   jets/ratings -> per-expresser pair matrices
  correlate  matrices -> per-expresser correlation results + summary table
  embed      matrices -> per-expresser nMDS configurations
  align      configurations -> Procrustes residuals (model vs semantic)
  plot       configurations -> SVG scatter plots
  study      all of the above

`encode` codes each image on its own; `run_stage` runs every other stage
one expresser at a time.  A failing expresser is warned about, its outputs
of that stage are removed and the others still run; then `correlate` writes
a `failed` summary row, and every other stage raises its first failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gabor, grid, nmds, rank_stats, ratings
from .errors import FormatError, RuntimeFailure, ValidationError
from .similarity import CodedImage, PairMatrix, pairwise_matrix

FEAR_LABEL = "FE"
FEAR_ADJECTIVE = "fear"
MIN_GROUP_SIZE = 3
MEASURES = ("gabor", "geometry")  # the models correlated with the ratings
EMBEDDED = ("gabor", "semantic")  # the matrices embedded, aligned and plotted


@dataclass
class StudyOptions:
    dims: int = 2
    tolerance: float = nmds.DEFAULT_TOLERANCE
    max_iterations: int = nmds.DEFAULT_MAX_ITERATIONS
    seed: int = 0
    permutations: int | None = None
    scan_dims: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValidationError(f"need a finite tolerance >= 0, got "
                                  f"{self.tolerance!r}")
        if self.max_iterations < 0:
            raise ValidationError(
                f"need max_iterations >= 0, got {self.max_iterations}")
        if self.seed < 0:
            raise ValidationError(f"need seed >= 0, got {self.seed}")
        if self.permutations is not None and self.permutations < 1:
            raise ValidationError(
                f"need permutations >= 1, got {self.permutations}")


@dataclass
class StudyConfig:
    image_dir: Path
    grid_dir: Path
    ratings_path: Path
    out_dir: Path
    expressers: dict  # image_id -> expresser_id
    labels: dict = field(default_factory=dict)  # image_id -> expression abbrev
    wavenumbers: tuple = gabor.DEFAULT_WAVENUMBERS
    orientations: tuple = gabor.DEFAULT_ORIENTATIONS
    sigma: float = gabor.DEFAULT_SIGMA
    options: StudyOptions = field(default_factory=StudyOptions)
    exclude_from_average: tuple = ()
    threads: int = 1
    no_fear: bool = False  # set by drop_fear()

    @classmethod
    def from_file(cls, path):
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read study config {path}: {exc}") from exc
        try:
            return cls._from_document(doc, path.parent)
        except ValidationError as exc:
            raise type(exc)(f"study config {path}: {exc}") from exc
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"study config {path}: bad field: {exc}") from exc

    @classmethod
    def _from_document(cls, doc, base):
        def section(key):
            value = doc.get(key, {})
            if not isinstance(value, dict):
                raise ValidationError(f"{key!r} must be an object")
            return value

        def resolve(key):
            if key not in doc:
                raise ValidationError(f"missing {key!r}")
            return (base / doc[key]).resolve()

        def integer(key, default=None):
            value = opts.get(key, default)
            if value is None and default is None:
                return None  # an optional option left unset
            try:
                if int(value) == value:
                    return int(value)
            except (TypeError, ValueError, OverflowError):
                pass
            raise ValidationError(f"options.{key} must be an integer, got {value!r}")

        if not isinstance(doc, dict):
            raise ValidationError("must be a JSON object")
        bank = section("bank")
        opts = section("options")
        expressers = section("expressers")
        if not all(isinstance(e, str) for e in expressers.values()):
            raise ValidationError("expresser ids must be strings")
        exclude = doc.get("exclude_from_average", [])
        if not (isinstance(exclude, list) and all(isinstance(e, str) for e in exclude)):
            raise ValidationError("'exclude_from_average' must be a list of "
                                  "expresser ids")
        options = StudyOptions(
            dims=integer("dims", 2),
            tolerance=float(opts.get("tolerance", nmds.DEFAULT_TOLERANCE)),
            max_iterations=integer("max_iterations", nmds.DEFAULT_MAX_ITERATIONS),
            seed=integer("seed", 0),
            permutations=integer("permutations"),
            scan_dims=integer("scan_dims"),
        )
        config = cls(
            image_dir=resolve("image_dir"),
            grid_dir=resolve("grid_dir"),
            ratings_path=resolve("ratings"),
            out_dir=resolve("out_dir"),
            expressers=dict(expressers),
            labels=dict(section("labels")),
            wavenumbers=tuple(bank.get("wavenumbers", gabor.DEFAULT_WAVENUMBERS)),
            orientations=tuple(bank.get("orientations", gabor.DEFAULT_ORIENTATIONS)),
            sigma=float(bank.get("sigma", gabor.DEFAULT_SIGMA)),
            options=options,
            exclude_from_average=tuple(exclude),
        )
        config.bank()  # a bad bank fails here, not in a later stage
        return config

    def bank(self):
        return gabor.build_filter_bank(self.wavenumbers, self.orientations,
                                       self.sigma)

    def image_ids(self):
        return sorted(self.expressers)

    def groups(self):
        """expresser_id -> sorted image ids."""
        groups = {}
        for image_id in self.image_ids():
            groups.setdefault(self.expressers[image_id], []).append(image_id)
        return dict(sorted(groups.items()))

    def drop_fear(self):
        """Remove fear-labelled images and the fear rating column."""
        keep = {i: e for i, e in self.expressers.items()
                if self.labels.get(i) != FEAR_LABEL}
        self.expressers = keep
        self.no_fear = True


def _write_atomic(path, data):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode()
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path, doc):
    """The one layout of every JSON file under out/: one line, sorted keys."""
    _write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Stage: encode
# ---------------------------------------------------------------------------

def _encode_one(config, bank, image_id):
    image = gabor.read_pgm(config.image_dir / f"{image_id}.pgm")
    placement = grid.load_grid((config.grid_dir / f"{image_id}.json").read_text())
    if tuple(placement.source_size) != (image.width, image.height):
        placement = grid.rescale_placement(placement, (image.width, image.height))
    jets = gabor.compute_jets(image, bank, placement.points())
    _write_json(config.out_dir / "jets" / f"{image_id}.json",
                gabor.jet_document(image_id, bank, placement, jets))


def run_encode(config):
    """Code every study image: one jet JSON per image, deterministic bytes."""
    bank = config.bank()
    ids = config.image_ids()
    # validate everything up front so a missing grid fails before any output
    for image_id in ids:
        image_path = config.image_dir / f"{image_id}.pgm"
        if not image_path.exists():
            raise ValidationError(f"missing image file {image_path}")
        if not (config.grid_dir / f"{image_id}.json").exists():
            raise ValidationError(f"no grid placement for image {image_id!r}")
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(lambda i: _encode_one(config, bank, i), ids))
    else:
        for image_id in ids:
            _encode_one(config, bank, image_id)
    return ids


# ---------------------------------------------------------------------------
# Stage driver: matrices, correlate, embed, align and plot run per expresser
# ---------------------------------------------------------------------------

def _read(config, relpath, parse):
    """parse(text) of the intermediate file out_dir/relpath; every error
    names the file."""
    path = config.out_dir / relpath
    if not path.exists():
        directory = relpath.split("/")[0]
        stage = {"jets": "encode", "embeddings": "embed"}.get(directory, directory)
        raise ValidationError(f"missing {path}; run the {stage} stage")
    try:
        return parse(path.read_text())
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _usable_groups(config):
    usable = {}
    for expresser, ids in config.groups().items():
        if len(ids) < MIN_GROUP_SIZE:
            warnings.warn(f"expresser {expresser!r} has only {len(ids)} images; "
                          "skipping (need >= 3)")
            continue
        usable[expresser] = ids
    return usable


def run_stage(config, name):
    """Run one stage; return its result per expresser (encode: the image
    ids).  Failures follow the policy in the module docstring."""
    if name == "encode":
        return run_encode(config)
    factory, directory, suffixes = _STAGES[name]
    unit = factory(config)
    results, failures = {}, []
    for expresser, ids in _usable_groups(config).items():
        try:
            results[expresser] = unit(expresser, ids)
        except (ValidationError, RuntimeFailure) as exc:
            warnings.warn(f"expresser {expresser!r} failed: {exc}")
            failures.append((expresser, exc))
            for suffix in suffixes:
                path = config.out_dir / directory / f"{expresser}{suffix}"
                path.unlink(missing_ok=True)
    if name == "correlate":
        _write_summary(config, results, [expresser for expresser, _ in failures])
    elif failures:
        raise failures[0][1]
    return results


def run_study(config):
    """Every stage in order; returns the correlate rows
    (expresser, gabor result, geometry result)."""
    results = {name: run_stage(config, name) for name in STAGE_ORDER}
    return [(expresser, *pair) for expresser, pair in results["correlate"].items()]


# Stage units: a factory does its stage's one-off set-up and returns
# unit(expresser, ids), which reads, computes and writes one group.

def _matrices(config):
    """Per expresser: Gabor similarity, geometry and semantic dissimilarity."""
    bank = config.bank()
    if not config.ratings_path.exists():
        raise ValidationError(f"missing ratings table {config.ratings_path}")
    vectors = ratings.load_ratings(config.ratings_path.read_text())
    if config.no_fear and vectors and FEAR_ADJECTIVE in vectors[0].adjectives:
        keep = [a != FEAR_ADJECTIVE for a in vectors[0].adjectives]
        adjectives = tuple(a for a in vectors[0].adjectives if a != FEAR_ADJECTIVE)
        vectors = [ratings.RatingVector(v.image_id, adjectives, v.values[keep])
                   for v in vectors]
    rating_map = {v.image_id: v for v in vectors}

    def coded_image(text):
        placement, loaded_bank, jets = gabor.parse_jet_document(text)
        if loaded_bank.fingerprint() != bank.fingerprint():
            raise ValidationError("coded with a different filter bank")
        return CodedImage(placement.image_id, jets, bank.fingerprint()), placement

    def unit(expresser, ids):
        missing = [i for i in ids if i not in rating_map]
        if missing:
            raise ValidationError(f"expresser {expresser!r}: no ratings for {missing}")
        coded, placements = zip(*(_read(config, f"jets/{i}.json", coded_image)
                                  for i in ids))
        shapes = [(image_id, grid.geometry_vector(placement))
                  for image_id, placement in zip(ids, placements)]
        matrices = {
            "gabor": pairwise_matrix(coded, "gabor"),
            "geometry": pairwise_matrix(shapes, "geometry"),
            "semantic": ratings.semantic_matrix([rating_map[i] for i in ids]),
        }
        for name, matrix in matrices.items():
            stem = config.out_dir / "matrices" / f"{expresser}_{name}"
            _write_json(stem.with_suffix(".json"), matrix.to_document())
            _write_atomic(stem.with_suffix(".csv"), matrix.to_csv())
        return matrices
    return unit


def _correlate(config):
    """Rank-correlate the model matrices against the semantic matrix."""
    opts = config.options

    def unit(expresser, ids):
        semantic, *models = (
            _read(config, f"matrices/{expresser}_{m}.json", PairMatrix.from_json)
            for m in ("semantic", *MEASURES))
        results = rank_stats.correlate_model_with_ratings(
            models, semantic, permutations=opts.permutations, seed=opts.seed)
        for measure, result in zip(MEASURES, results):
            _write_json(
                config.out_dir / "correlations" / f"{expresser}_{measure}.json",
                result.to_document(expresser_id=expresser, measure=measure,
                                   seed=opts.seed))
        return tuple(results)
    return unit


def _write_summary(config, results, failures):
    """Summary tables; `results` maps expresser -> (gabor, geometry) result."""
    averaged = [pair for expresser, pair in results.items()
                if expresser not in config.exclude_from_average]
    csv_lines = ["expresser,gabor_rho,gabor_p,geometry_rho,geometry_p,n_pairs"]
    for expresser, (gab, geo) in results.items():
        csv_lines.append(
            f"{expresser},{gab.rho!r},{gab.p_two_sided!r},"
            f"{geo.rho!r},{geo.p_two_sided!r},{gab.n}"
        )
    for expresser in failures:
        csv_lines.append(f"{expresser},failed,,,,")
    if averaged:
        avg_gabor = float(np.mean([gab.rho for gab, _ in averaged]))
        avg_geo = float(np.mean([geo.rho for _, geo in averaged]))
        csv_lines.append(f"Average,{avg_gabor!r},,{avg_geo!r},,")
    _write_atomic(config.out_dir / "summary.csv", "\n".join(csv_lines) + "\n")

    width = max([len("Expresser")] + [len(e) for e in results] + [7])
    text = [f"{'Expresser':<{width}}  {'Gabor':>8}  {'Geometry':>8}"]
    for expresser, (gab, geo) in results.items():
        text.append(f"{expresser:<{width}}  {gab.rho:8.3f}  {geo.rho:8.3f}")
    for expresser in failures:
        text.append(f"{expresser:<{width}}  {'failed':>8}  {'failed':>8}")
    if averaged:
        text.append(f"{'Average':<{width}}  {avg_gabor:8.3f}  {avg_geo:8.3f}")
    _write_atomic(config.out_dir / "summary.txt", "\n".join(text) + "\n")


def _model_dissimilarity(matrix):
    """Similarity -> dissimilarity (1 - s) for embedding; rank-equivalent."""
    if matrix.kind == "dissimilarity":
        return matrix
    values = 1.0 - matrix.values
    np.fill_diagonal(values, 0.0)
    values = np.maximum(values, 0.0)
    values = (values + values.T) / 2.0
    return PairMatrix(matrix.item_ids, values, "dissimilarity")


def _embed(config):
    """nMDS embedding of the Gabor and semantic matrices per expresser."""
    opts = config.options
    fit = {"max_iterations": opts.max_iterations, "tolerance": opts.tolerance,
           "seed": opts.seed}

    def unit(expresser, ids):
        configs = {}
        for measure in EMBEDDED:
            matrix = _model_dissimilarity(_read(
                config, f"matrices/{expresser}_{measure}.json", PairMatrix.from_json))
            n = len(matrix.item_ids)
            configs[measure] = nmds.embed(matrix, min(opts.dims, n - 1), **fit)
            stem = f"{expresser}_{measure}"
            _write_json(config.out_dir / "embeddings" / f"{stem}.json",
                        configs[measure].to_document(options=fit))
            if opts.scan_dims:
                rows = nmds.scan_dimensions(matrix, min(opts.scan_dims, n - 1),
                                            **fit)
                csv = "d,stress,rsq\n" + "".join(
                    f"{d},{s!r},{r!r}\n" for d, s, r in rows)
                _write_atomic(config.out_dir / "embeddings" / f"{stem}_scan.csv",
                              csv)
        return configs
    return unit


def _align(config):
    """Procrustes-align each Gabor configuration onto the semantic one."""
    def unit(expresser, ids):
        source, target = (_read(config, f"embeddings/{expresser}_{m}.json",
                                nmds.Configuration.from_json) for m in EMBEDDED)
        aligned, residual = nmds.procrustes_align(source, target)
        _write_json(config.out_dir / "align" / f"{expresser}.json",
                    aligned.to_document(residual=residual, target="semantic"))
        return residual
    return unit


def render_scatter(configuration, labels=None):
    """Render a 2-d configuration as a deterministic SVG scatter plot."""
    if configuration.d != 2:
        raise ValidationError(
            f"scatter plots need a 2-d configuration, got d={configuration.d}"
        )
    labels = labels or {}
    coords = configuration.coordinates
    size, margin = 640.0, 60.0
    span = float(np.max(np.abs(coords))) or 1.0
    scale = (size / 2.0 - margin) / span  # equal aspect on both axes

    def fmt(v):
        return f"{v:.6f}"

    def to_px(x, y):
        return size / 2.0 + x * scale, size / 2.0 - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(size)}" '
        f'height="{int(size)}" viewBox="0 0 {int(size)} {int(size)}">',
        f'<rect width="{int(size)}" height="{int(size)}" fill="white"/>',
        f'<line x1="{fmt(margin)}" y1="{fmt(size / 2)}" x2="{fmt(size - margin)}" '
        f'y2="{fmt(size / 2)}" stroke="#cccccc"/>',
        f'<line x1="{fmt(size / 2)}" y1="{fmt(margin)}" x2="{fmt(size / 2)}" '
        f'y2="{fmt(size - margin)}" stroke="#cccccc"/>',
    ]
    for item_id, (x, y) in zip(configuration.item_ids, coords):
        px, py = to_px(x, y)
        label = labels.get(item_id, item_id)
        parts.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="4" fill="#1f77b4"/>')
        parts.append(
            f'<text x="{fmt(px + 6)}" y="{fmt(py - 6)}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _plot(config):
    """SVG scatter for every stored 2-d configuration."""
    def unit(expresser, ids):
        for measure in EMBEDDED:
            configuration = _read(config, f"embeddings/{expresser}_{measure}.json",
                                  nmds.Configuration.from_json)
            path = config.out_dir / "plots" / f"{expresser}_{measure}.svg"
            if configuration.d != 2:
                warnings.warn(f"{expresser}/{measure}: d={configuration.d}, "
                              "skipping plot")
                path.unlink(missing_ok=True)  # it would depict another embedding
                continue
            _write_atomic(path, render_scatter(configuration, config.labels))
    return unit


# stage -> (factory(config) -> unit(expresser, ids), output directory, the
# suffixes after the expresser id of every file the unit can write there)
_STAGES = {
    "matrices": (_matrices, "matrices", [f"_{m}.{x}" for m in (*MEASURES, "semantic")
                                         for x in ("json", "csv")]),
    "correlate": (_correlate, "correlations", [f"_{m}.json" for m in MEASURES]),
    "embed": (_embed, "embeddings", [f"_{m}{x}" for m in EMBEDDED
                                     for x in (".json", "_scan.csv")]),
    "align": (_align, "align", [".json"]),
    "plot": (_plot, "plots", [f"_{m}.svg" for m in EMBEDDED]),
}
STAGE_ORDER = ("encode", *_STAGES)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gaborface",
        description="Gabor-jet facial expression coding and analysis pipeline",
    )
    parser.add_argument("--config", required=True, help="study config JSON")
    parser.add_argument("--stage", choices=sorted((*STAGE_ORDER, "study")),
                        default="study")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the study seed")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="encode images on N >= 1 threads; the jet kernel's matrix "
             "products release the GIL, but its per-point loop does not, so 2 "
             "threads encode about 1.1x faster on 2 cores; outputs are "
             "byte-identical for any N")
    parser.add_argument("--exclude", default="",
                        help="comma-separated expressers excluded from averages")
    parser.add_argument("--no-fear", action="store_true",
                        help="drop fear-labelled images and the fear rating "
                             "column before analysis")
    args = parser.parse_args(argv)

    try:
        config = StudyConfig.from_file(args.config)
        if args.out:
            config.out_dir = Path(args.out).resolve()
        if args.seed is not None:
            config.options = replace(config.options, seed=args.seed)
        if args.threads < 1:
            raise ValidationError(f"need --threads >= 1, got {args.threads}")
        config.threads = args.threads
        if args.exclude:
            config.exclude_from_average = tuple(
                e for e in args.exclude.split(",") if e
            )
        if args.no_fear:
            config.drop_fear()
        if args.stage == "study":
            run_study(config)
        else:
            run_stage(config, args.stage)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeFailure, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
