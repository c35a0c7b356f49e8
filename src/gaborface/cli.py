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
import html
import json
import math
import numbers
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gabor, grid, nmds, rank_stats, ratings
from .errors import FormatError, RuntimeFailure, ValidationError
from .similarity import PairMatrix, pairwise_matrix

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
        """Type and range checks; permutations and scan_dims may be None
        (the t-approximation, no dimension scan)."""
        for name, least in (("dims", 1), ("max_iterations", 0), ("seed", 0),
                            ("permutations", 1), ("scan_dims", 1)):
            value = getattr(self, name)
            if value is None and name in ("permutations", "scan_dims"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValidationError(f"need {name} >= {least}, got {value}")
            setattr(self, name, int(value))
        tolerance = self.tolerance
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
            raise ValidationError(f"tolerance must be a number, got {tolerance!r}")
        try:
            self.tolerance = float(tolerance)
        except OverflowError:
            self.tolerance = math.inf  # an integer too large for a float
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValidationError(f"need a finite tolerance >= 0, got {tolerance!r}")


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
        return _read(path, lambda doc: cls._from_document(doc, path.parent))

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
        try:
            config = cls(
                image_dir=resolve("image_dir"),
                grid_dir=resolve("grid_dir"),
                ratings_path=resolve("ratings"),
                out_dir=resolve("out_dir"),
                expressers=dict(expressers),
                labels=dict(section("labels")),
                wavenumbers=tuple(bank.get("wavenumbers", gabor.DEFAULT_WAVENUMBERS)),
                orientations=tuple(bank.get("orientations",
                                            gabor.DEFAULT_ORIENTATIONS)),
                sigma=float(bank.get("sigma", gabor.DEFAULT_SIGMA)),
                options=StudyOptions(**opts),
                exclude_from_average=tuple(exclude),
            )
            config.bank()  # a bad bank fails here, not in a later stage
        except ValidationError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"bad field: {exc}") from exc
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

def _encode_one(config, bank, image_id, placement):
    image = _read(config.image_dir / f"{image_id}.pgm", gabor.read_pgm, "bytes")
    if tuple(placement.source_size) != (image.width, image.height):
        placement = grid.rescale_placement(placement, (image.width, image.height))
    jets = gabor.compute_jets(image, bank, placement.points)
    _write_json(config.out_dir / "jets" / f"{image_id}.json",
                gabor.jet_document(image_id, bank, placement, jets))


def run_encode(config):
    """Code every study image: one jet JSON per image, deterministic bytes."""
    bank = config.bank()
    ids = config.image_ids()
    # every grid is read first, so a bad or missing grid fails before any output
    placements = [_read(config.grid_dir / f"{i}.json", grid.load_grid) for i in ids]
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(lambda i, p: _encode_one(config, bank, i, p),
                          ids, placements))
    else:
        for image_id, placement in zip(ids, placements):
            _encode_one(config, bank, image_id, placement)
    return ids


# ---------------------------------------------------------------------------
# Stage driver: matrices, correlate, embed, align and plot run per expresser
# ---------------------------------------------------------------------------

def _read(path, parse, form="json", stage=None):
    """parse(content) of the file at `path`: the one place the pipeline
    opens a file it reads.

    content is the file's JSON value, its UTF-8 text (form "text") or its
    bytes (form "bytes").  Every error names the file, and a missing
    intermediate file names the `stage` that writes it.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        hint = f"; run the {stage} stage" if stage else ""
        raise ValidationError(f"{path}: no such file{hint}") from None
    except OSError as exc:  # a directory in place of the file, say
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if form != "bytes":
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if form == "json":
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer of over 4,300 digits, deep nesting
            raise FormatError(f"{path}: malformed JSON: {exc}") from exc
    try:
        return parse(data)
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
    table = _read(config.ratings_path, ratings.load_ratings, "text")
    if config.no_fear and FEAR_ADJECTIVE in table.adjectives:
        fear = table.adjectives.index(FEAR_ADJECTIVE)
        table = table._replace(
            adjectives=table.adjectives[:fear] + table.adjectives[fear + 1:],
            values=np.delete(table.values, fear, axis=1))

    def coded_image(doc):
        placement, loaded_bank, jets = gabor.parse_jet_document(doc)
        if loaded_bank.fingerprint() != bank.fingerprint():
            raise ValidationError("coded with a different filter bank")
        return placement, jets

    def unit(expresser, ids):
        semantic = ratings.semantic_matrix(table, ids)
        placements, jets = zip(*(
            _read(config.out_dir / "jets" / f"{i}.json", coded_image, stage="encode")
            for i in ids))
        matrices = {
            "gabor": pairwise_matrix(
                [(p.image_id, j) for p, j in zip(placements, jets)], "gabor"),
            "geometry": pairwise_matrix(
                [(i, grid.geometry_vector(p)) for i, p in zip(ids, placements)],
                "geometry"),
            "semantic": semantic,
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
            _read(config.out_dir / "matrices" / f"{expresser}_{m}.json",
                  PairMatrix.from_document, stage="matrices")
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
                config.out_dir / "matrices" / f"{expresser}_{measure}.json",
                PairMatrix.from_document, stage="matrices"))
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
        source, target = (
            _read(config.out_dir / "embeddings" / f"{expresser}_{m}.json",
                  nmds.Configuration.from_document, stage="embed")
            for m in EMBEDDED)
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
        label = html.escape(str(labels.get(item_id, item_id)), quote=False)
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
            configuration = _read(
                config.out_dir / "embeddings" / f"{expresser}_{measure}.json",
                nmds.Configuration.from_document, stage="embed")
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
