"""End-to-end study pipeline and command-line entry point.

Stages (each reads the previous stage's files, enabling partial reruns):

  encode     images + grids -> per-image jet JSON (jets and placement)
  matrices   jets/ratings -> per-expresser pair matrices
  correlate  matrices -> per-expresser correlation results + summary table
  embed      matrices -> per-expresser nMDS configurations
  align      configurations -> Procrustes residuals (model vs semantic)
  plot       configurations -> SVG scatter plots
  study      all of the above

`run_stage` runs `encode` one image at a time and every other stage one
expresser at a time.  It removes a unit's files of the stage (as `_STAGES`
names them) before the unit runs and again if it fails.
A failure is warned about and the others still run; then `correlate` writes
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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import gabor, grid, nmds, rank_stats, ratings
from .errors import FormatError, RuntimeFailure, ValidationError, require_known_keys
from .similarity import PairMatrix, pairwise_matrix

FEAR_LABEL = "FE"
FEAR_ADJECTIVE = "fear"
MIN_GROUP_SIZE = 4  # 6 pairs; significance needs at least 4
MEASURES = ("gabor", "geometry")  # the models correlated with the ratings
EMBEDDED = ("gabor", "semantic")  # the matrices embedded, aligned and plotted
CONFIG_KEYS = ("image_dir", "grid_dir", "ratings", "out_dir", "expressers",
               "labels", "bank", "options", "exclude_from_average", "no_fear")


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
    filter_bank: gabor.FilterBank = gabor.FilterBank()
    options: StudyOptions = field(default_factory=StudyOptions)
    exclude_from_average: tuple = ()
    no_fear: bool = False  # from_file drops FE images; matrices the fear column

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
        require_known_keys(doc, CONFIG_KEYS, "top-level")
        opts = section("options")
        require_known_keys(opts, [f.name for f in fields(StudyOptions)], "options")
        expressers = section("expressers")
        labels = section("labels")
        if not all(isinstance(e, str) for e in expressers.values()):
            raise ValidationError("expresser ids must be strings")
        for image_id, label in labels.items():
            if not isinstance(label, str):
                raise ValidationError(f"the label of {image_id!r} must be a "
                                      f"string, got {label!r}")
        for item in (*expressers, *expressers.values()):
            # ids name files under out/ and fill unquoted CSV cells
            if item in ("", ".", "..") or any(c in item for c in '/\0,"\r\n'):
                raise ValidationError(
                    f"bad id {item!r}: an image or expresser id must not be "
                    "empty, '.' or '..', nor hold '/', NUL, ',', '\"', CR or LF")
        for text in (*expressers, *expressers.values(), *labels.values()):
            # a JSON escape such as "\ud800" gives a lone surrogate, which the
            # UTF-8 of a file name, CSV cell or SVG label cannot encode
            if any("\ud800" <= c <= "\udfff" for c in text):
                raise ValidationError(f"bad id or label {text!r}: holds a lone surrogate")
        if "Average" in expressers.values():  # the summaries' mean row
            raise ValidationError("bad id 'Average': an expresser id must not be "
                                  "'Average', the label of the summaries' mean row")
        unknown = sorted(set(labels) - set(expressers))
        if unknown:  # not refused: a slice of a study keeps its whole labels
            warnings.warn(f"{len(unknown)} 'labels' id(s) name no image of "
                          f"'expressers', first {unknown[0]!r}; their labels "
                          "are ignored")
        exclude = doc.get("exclude_from_average", [])
        if not (isinstance(exclude, list) and all(isinstance(e, str) for e in exclude)):
            raise ValidationError("'exclude_from_average' must be a list of "
                                  "expresser ids")
        no_fear = doc.get("no_fear", False)
        if not isinstance(no_fear, bool):
            raise ValidationError(f"'no_fear' must be true or false, got {no_fear!r}")
        if no_fear:
            expressers = {i: e for i, e in expressers.items()
                          if labels.get(i) != FEAR_LABEL}
        try:
            config = cls(
                image_dir=resolve("image_dir"),
                grid_dir=resolve("grid_dir"),
                ratings_path=resolve("ratings"),
                out_dir=resolve("out_dir"),
                expressers=dict(expressers),
                labels=dict(labels),
                filter_bank=gabor.FilterBank.from_document(section("bank"),
                                                           defaults=True),
                options=StudyOptions(**opts),
                exclude_from_average=tuple(exclude),
                no_fear=no_fear,
            )
        except ValidationError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"bad field: {exc}") from exc
        return config

    def bank(self):
        """Only the benchmark calls this: it stays until ROADMAP item 1e,
        and item 2 then deletes it."""
        return self.filter_bank

    def image_ids(self):
        return sorted(self.expressers)

    def groups(self):
        """expresser_id -> sorted image ids."""
        groups = {}
        for image_id in self.image_ids():
            groups.setdefault(self.expressers[image_id], []).append(image_id)
        return dict(sorted(groups.items()))


@contextmanager
def _atomic(path):
    """A UTF-8 text file whose content replaces `path` when the block ends.
    It is written as `<name>.tmp` and renamed; if the block raises, the
    temporary file is deleted and `path` keeps its old bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_atomic(path, text):
    with _atomic(path) as fh:
        fh.write(text)


def _write_json(path, doc):
    """The one layout of every JSON file under out/: one line, sorted keys
    (PairMatrix.text_chunks lays out the matrix files the same way)."""
    _write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_matrix(json_path, csv_path, matrix):
    """A pair matrix's JSON file and its CSV twin, streamed row by row from
    the one formatting pass of PairMatrix.text_chunks."""
    with _atomic(json_path) as json_file, _atomic(csv_path) as csv_file:
        for json_chunk, csv_chunk in matrix.text_chunks():
            json_file.write(json_chunk)
            csv_file.write(csv_chunk)


# ---------------------------------------------------------------------------
# Stage: encode
# ---------------------------------------------------------------------------

def _encode(config):
    """unit(image_id, out): the image's jet JSON, deterministic bytes."""
    bank = config.filter_bank
    # every grid is read first, so a bad or missing grid fails before any output
    placements = {i: _read(config.grid_dir / f"{i}.json",
                           lambda doc, i=i: _require_id(grid.load_grid(doc), i))
                  for i in config.image_ids()}
    work = {}  # compute_jets' work arrays (~2 MB), kept for the stage

    def unit(image_id, out):
        pixels = _read(config.image_dir / f"{image_id}.pgm", gabor.read_pgm, "bytes")
        placement = placements[image_id]
        if tuple(placement.source_size) != pixels.shape[::-1]:
            placement = grid.rescale_placement(placement, pixels.shape[::-1])
        jets = gabor.compute_jets(pixels, bank, placement.points, work=work)
        _write_json(out[".json"], gabor.jet_document(image_id, bank, placement, jets))
    return unit


def _require_id(placement, image_id, hint=""):
    """`placement`, if it is of `image_id`: the grid or jet file of one
    image must not hold another image's placement."""
    if placement.image_id != image_id:
        raise ValidationError(f"holds image_id {placement.image_id!r}, not "
                              f"{image_id!r}{hint}")
    return placement


# ---------------------------------------------------------------------------
# Stage driver: encode runs per image, every other stage per expresser
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
            data = json.loads(data, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer of over 4,300 digits, deep nesting
            raise FormatError(f"{path}: malformed JSON: {exc}") from exc
    try:
        return parse(data)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _unique_keys(pairs):
    """A JSON object's dict; a repeated key is a ValueError, where json.loads
    alone would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return doc


def _outputs(config, stage, key):
    """name -> path of each file `stage` writes for `key`, an image or expresser id."""
    _, directory, names = _STAGES[stage]
    return {n: config.out_dir / directory / f"{key}{n}" for n in names}


def _load(config, stage, key, name, parse):
    """parse() of `key`'s `name` file of `stage`."""
    return _read(_outputs(config, stage, key)[name], parse, stage=stage)


def _attempt(config, stage, key, run):
    """run(out) with `out`, the files of `stage` for `key`, removed before it
    runs and again if it fails; a ValidationError or RuntimeFailure is returned."""
    out = _outputs(config, stage, key)
    for path in out.values():
        path.unlink(missing_ok=True)
    try:
        return run(out)
    except BaseException as exc:
        for path in out.values():
            path.unlink(missing_ok=True)
        if not isinstance(exc, (ValidationError, RuntimeFailure)):
            raise
        return exc


def run_stage(config, name):
    """Run one stage (see the module docstring); return each unit's result."""
    unit = _STAGES[name][0](config)
    if name == "encode":
        kind = "image"
        outcomes = {i: _attempt(config, name, i, lambda out: unit(i, out))
                    for i in config.image_ids()}
    else:
        kind, outcomes = "expresser", {}
        for expresser, ids in config.groups().items():
            if len(ids) < MIN_GROUP_SIZE:  # its files go, and it is skipped
                _attempt(config, name, expresser, lambda out: warnings.warn(
                    f"expresser {expresser!r} has only {len(ids)} images; "
                    f"skipping (need >= {MIN_GROUP_SIZE})"))
            else:
                outcomes[expresser] = _attempt(
                    config, name, expresser, lambda out: unit(expresser, ids, out))
        if not outcomes:
            raise ValidationError(f"no expresser has >= {MIN_GROUP_SIZE} images, "
                                  "the fewest a significance test can use")
    failures = {key: exc for key, exc in outcomes.items() if isinstance(exc, Exception)}
    for key, exc in failures.items():
        warnings.warn(f"{kind} {key!r} failed: {exc}")
    results = {key: r for key, r in outcomes.items() if key not in failures}
    if name == "correlate":
        _write_summary(config, results, list(failures))
    elif failures:
        raise next(iter(failures.values()))
    return results


def run_study(config):
    """Every stage in order; returns the correlate rows
    (expresser, gabor result, geometry result)."""
    results = {name: run_stage(config, name) for name in _STAGES}
    return [(expresser, *pair) for expresser, pair in results["correlate"].items()]


# Stage units: a factory does its stage's one-off set-up and returns
# unit(expresser, ids, out), which computes one group and writes `out`'s paths.

def _matrices(config):
    """Per expresser: Gabor similarity, geometry and semantic dissimilarity."""
    table = _read(config.ratings_path, ratings.load_ratings, "text")
    if config.no_fear and FEAR_ADJECTIVE in table.adjectives:
        fear = table.adjectives.index(FEAR_ADJECTIVE)
        table = table._replace(
            adjectives=table.adjectives[:fear] + table.adjectives[fear + 1:],
            values=np.delete(table.values, fear, axis=1))

    def coded_image(doc, image_id):
        placement, loaded_bank, jets = gabor.parse_jet_document(doc)
        if loaded_bank != config.filter_bank:
            raise ValidationError("coded with a different filter bank")
        _require_id(placement, image_id, "; re-run the encode stage")
        return placement, jets

    def unit(expresser, ids, out):
        semantic = ratings.semantic_matrix(table, ids)
        placements, jets = zip(*(
            _load(config, "encode", i, ".json", lambda doc, i=i: coded_image(doc, i))
            for i in ids))
        matrices = {
            "gabor": pairwise_matrix(list(zip(ids, jets)), "gabor"),
            "geometry": pairwise_matrix(
                [(i, grid.geometry_vector(p)) for i, p in zip(ids, placements)],
                "geometry"),
            "semantic": semantic,
        }
        for name, matrix in matrices.items():
            _write_matrix(out[f"_{name}.json"], out[f"_{name}.csv"], matrix)
        return matrices
    return unit


def _correlate(config):
    """Rank-correlate the model matrices against the semantic matrix."""
    unknown = sorted(set(config.exclude_from_average)
                     - set(config.expressers.values()))
    if unknown:
        raise ValidationError(f"cannot exclude unknown expressers {unknown} "
                              "from the average")
    opts = config.options

    def unit(expresser, ids, out):
        semantic, *models = (
            _load(config, "matrices", expresser, f"_{m}.json", PairMatrix.from_document)
            for m in ("semantic", *MEASURES))
        results = rank_stats.correlate_model_with_ratings(
            models, semantic, permutations=opts.permutations, seed=opts.seed)
        for measure, result in zip(MEASURES, results):
            _write_json(out[f"_{measure}.json"],
                        result.to_document(expresser_id=expresser,
                                           measure=measure, seed=opts.seed))
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

    width = max(len(e) for e in ("Expresser", *results, *failures))
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
    values = np.maximum(1.0 - matrix.values, 0.0)
    return PairMatrix(matrix.item_ids, values, "dissimilarity")


def _embed(config):
    """nMDS embedding of the Gabor and semantic matrices per expresser."""
    opts = config.options
    fit = {"max_iterations": opts.max_iterations, "tolerance": opts.tolerance,
           "seed": opts.seed}

    def unit(expresser, ids, out):
        configs = {}
        for measure in EMBEDDED:
            matrix = _model_dissimilarity(_load(
                config, "matrices", expresser, f"_{measure}.json",
                PairMatrix.from_document))
            n = len(matrix.item_ids)
            dims = min(opts.dims, n - 1)
            scan = range(1, min(opts.scan_dims or 0, n - 1) + 1)
            # each d is fitted once, also when the scan covers dims
            fits = {d: nmds.embed(matrix, d, **fit)
                    for d in dict.fromkeys((dims, *scan))}
            configs[measure] = fits[dims]
            _write_json(out[f"_{measure}.json"], fits[dims].to_document(options=fit))
            if opts.scan_dims:
                _write_atomic(out[f"_{measure}_scan.csv"], "d,stress,rsq\n" + "".join(
                    f"{d},{fits[d].stress!r},{fits[d].rsq!r}\n" for d in scan))
        return configs
    return unit


def _align(config):
    """Procrustes-align each Gabor configuration onto the semantic one."""
    def unit(expresser, ids, out):
        source, target = (
            _load(config, "embed", expresser, f"_{m}.json",
                  nmds.Configuration.from_document)
            for m in EMBEDDED)
        aligned, residual = nmds.procrustes_align(source, target)
        _write_json(out[".json"],
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
    def unit(expresser, ids, out):
        for measure in EMBEDDED:
            configuration = _load(config, "embed", expresser, f"_{measure}.json",
                                  nmds.Configuration.from_document)
            if configuration.d != 2:
                warnings.warn(f"{expresser}/{measure}: d={configuration.d}, "
                              "skipping plot")
                continue
            _write_atomic(out[f"_{measure}.svg"],
                          render_scatter(configuration, config.labels))
    return unit


# stage -> (factory(config) -> unit, output directory, the names after the
# image or expresser id of all the unit's files): their one list, in run order
_STAGES = {
    "encode": (_encode, "jets", [".json"]),
    "matrices": (_matrices, "matrices", [f"_{m}.{x}" for m in (*MEASURES, "semantic")
                                         for x in ("json", "csv")]),
    "correlate": (_correlate, "correlations", [f"_{m}.json" for m in MEASURES]),
    "embed": (_embed, "embeddings", [f"_{m}{x}" for m in EMBEDDED
                                     for x in (".json", "_scan.csv")]),
    "align": (_align, "align", [".json"]),
    "plot": (_plot, "plots", [f"_{m}.svg" for m in EMBEDDED]),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gaborface",
        description="Gabor-jet facial expression coding and analysis pipeline",
    )
    parser.add_argument("--config", required=True, help="study config JSON")
    parser.add_argument("--stage", choices=sorted((*_STAGES, "study")),
                        default="study")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="accepted for N >= 1 and changes nothing: every stage runs on "
             "one thread")
    args = parser.parse_args(argv)

    try:
        config = StudyConfig.from_file(args.config)
        if args.out:
            config.out_dir = Path(args.out).resolve()
        if args.threads < 1:
            raise ValidationError(f"need --threads >= 1, got {args.threads}")
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
