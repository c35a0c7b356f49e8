"""End-to-end study pipeline and command-line entry point.

Stages (each reads the previous stage's files, enabling partial reruns):

  encode     images + grids -> per-image jet JSON (jets and placement)
  matrices   jets/ratings -> per-expresser pair matrices
  correlate  matrices -> per-expresser correlation results -> summary table
  embed      matrices -> per-expresser nMDS configurations
  align      configurations -> Procrustes residuals (model vs semantic)
  plot       configurations -> SVG scatter plots
  study      all of the above

`run_stage` runs each step of a stage in `_STAGES`, per image, per
expresser or once for the study (the summary).  A unit reads its own
inputs, writes its files and returns only its failure: the files are the
one data path between stages, and `run_stage` and `run_study` return
nothing.  A unit's files are removed before it runs and again if it fails.
Every failure is warned about and the others still run; then the stage
raises the first failure of its last step, so an expresser that fails in
`correlate` is a `failed` summary row, and a failed summary exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import gabor, grid, nmds, rank_stats, ratings
from .errors import (FormatError, RuntimeFailure, ValidationError, require_integer,
                     require_known_keys, require_real)
from .similarity import PairMatrix, pairwise_matrix

FEAR_LABEL = "FE"
FEAR_ADJECTIVE = "fear"
MIN_GROUP_SIZE = 4  # 6 pairs; significance needs at least 4
MEASURES = ("gabor", "geometry")  # the models correlated with the ratings
EMBEDDED = ("gabor", "semantic")  # the matrices embedded, aligned and plotted
# the kind of each matrix the matrices stage writes, and the later ones read
KINDS = {"gabor": "similarity", "geometry": "dissimilarity", "semantic": "dissimilarity"}
CONFIG_KEYS = ("image_dir", "grid_dir", "ratings", "out_dir", "expressers",
               "labels", "bank", "options", "exclude_from_average", "no_fear")
# what no id or label may hold: a C0 control character but tab (NUL ends a
# file name, CR and LF a CSV line), U+FFFE or U+FFFF, which XML text such as
# an SVG label cannot hold, or a lone surrogate (from a JSON escape such as
# "\ud800"), which UTF-8 cannot encode
BAD_TEXT = re.compile("[\x00-\x08\x0a-\x1f\ud800-\udfff\ufffe\uffff]")
BAD_TEXT_NAMES = "a control character but tab, a lone surrogate, U+FFFE or U+FFFF"
NAME_MAX = 255  # UTF-8 bytes in a file name under out/


@dataclass(frozen=True)
class StudyOptions:
    dims: int = 2
    tolerance: float = nmds.DEFAULT_TOLERANCE
    max_iterations: int = nmds.DEFAULT_MAX_ITERATIONS
    seed: int = 0
    permutations: int = rank_stats.DEFAULT_PERMUTATIONS
    scan_dims: int | None = None

    def __post_init__(self):
        """Type and range checks; scan_dims may be None (no dimension scan)."""
        for name, least in (("dims", 1), ("max_iterations", 0), ("seed", 0),
                            ("permutations", 1), ("scan_dims", 1)):
            value = getattr(self, name)
            if value is not None or name != "scan_dims":
                object.__setattr__(self, name, require_integer(value, name, least))
        object.__setattr__(self, "tolerance",
                           require_real(self.tolerance, "tolerance", 0))


class _ReadOnlyDict(dict):
    """A dict that refuses every change, so a frozen config's mappings keep
    its checks; it pickles (for a worker) as a copy, not item by item."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a StudyConfig dict is read-only; use dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
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
    no_fear: bool = False  # image_ids leaves out FE images; matrices the fear column

    def __post_init__(self):
        """The field types and the id and label rules (README, config
        section), for a config read or built in code; unpickling skips them
        and their warning.  A path field given as a string becomes a Path.
        The config and its dicts, copied read-only, change only by
        dataclasses.replace, which makes them hold for the new config too."""
        for name in ("image_dir", "grid_dir", "ratings_path", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, (str, os.PathLike)):
                raise ValidationError(f"{name!r} must be a path, got {value!r}")
            object.__setattr__(self, name, Path(value))
        for name, kind, what in (
                ("expressers", dict, "an object of image id to expresser id"),
                ("labels", dict, "an object of image id to label"),
                ("filter_bank", gabor.FilterBank, "a FilterBank"),
                ("options", StudyOptions, "a StudyOptions"),
                ("no_fear", bool, "true or false")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValidationError(f"{name!r} must be {what}, got {value!r}")
            if kind is dict:
                object.__setattr__(self, name, _ReadOnlyDict(value))
        exclude = self.exclude_from_average
        if not (isinstance(exclude, (list, tuple))
                and all(isinstance(e, str) for e in exclude)):
            raise ValidationError("'exclude_from_average' must be a list of "
                                  f"expresser ids, got {exclude!r}")
        object.__setattr__(self, "exclude_from_average", tuple(exclude))
        for scope, ids in (("image", self.expressers),
                           ("expresser", self.expressers.values())):
            # ids name files under out/ and fill unquoted CSV cells; an id's
            # longest file name is the id, a name of _STAGES and .tmp
            longest = NAME_MAX - max(
                len(f"{name}.tmp".encode()) for steps in _STAGES.values()
                for unit_scope, _, _, names in steps if unit_scope == scope
                for name in names)
            for item in ids:
                if (not isinstance(item, str) or item in ("", ".", "..")
                        or any(c in item for c in '/,"') or BAD_TEXT.search(item)):
                    raise ValidationError(
                        f"bad id {item!r}: an image or expresser id must be a "
                        "string, not empty, '.' or '..', nor hold '/', ',', "
                        f"'\"', {BAD_TEXT_NAMES}")
                if len(item.encode()) > longest:
                    raise ValidationError(
                        f"bad id {item!r}: an {scope} id of over {longest} UTF-8 "
                        f"bytes makes a file name under out/ of over {NAME_MAX}")
                if scope == "expresser" and item == "Average":
                    raise ValidationError(
                        "bad id 'Average': an expresser id must not be "
                        "'Average', the label of the summaries' mean row")
        unknown = sorted(set(exclude) - set(self.expressers.values()))
        if unknown:
            raise ValidationError(f"cannot exclude unknown expressers {unknown} "
                                  "from the average")
        for image_id, label in self.labels.items():
            if not isinstance(image_id, str):
                raise ValidationError(f"bad 'labels' id {image_id!r}: an image id "
                                      "must be a string")
            if not isinstance(label, str) or BAD_TEXT.search(label):
                raise ValidationError(f"bad label {label!r} of {image_id!r}: a label "
                                      f"must be a string without {BAD_TEXT_NAMES}")
        unknown = sorted(set(self.labels) - set(self.expressers))
        if unknown:  # not refused: a slice of a study keeps its whole labels
            warnings.warn(f"{len(unknown)} 'labels' id(s) name no image of "
                          f"'expressers', first {unknown[0]!r}; their labels "
                          "are ignored")

    @classmethod
    def from_file(cls, path):
        path = Path(path)
        return _read(path, lambda doc: cls._from_document(doc, path.parent))

    @classmethod
    def _from_document(cls, doc, base):
        """The config of the JSON value `doc`, whose shape alone this checks."""
        def resolve(key):
            if key not in doc:
                raise ValidationError(f"missing {key!r}")
            try:  # a TypeError if not a string; a NUL or lone surrogate, ValueError
                return (base / doc[key]).resolve()
            except (TypeError, ValueError):
                raise ValidationError(f"{key!r} must be a path string, "
                                      f"got {doc[key]!r}") from None

        if not isinstance(doc, dict):
            raise ValidationError("must be a JSON object")
        require_known_keys(doc, CONFIG_KEYS, "top-level")
        opts = doc.get("options", {})
        if not isinstance(opts, dict):
            raise ValidationError("'options' must be an object")
        require_known_keys(opts, [f.name for f in fields(StudyOptions)], "options")
        return cls(image_dir=resolve("image_dir"), grid_dir=resolve("grid_dir"),
                   ratings_path=resolve("ratings"), out_dir=resolve("out_dir"),
                   expressers=doc.get("expressers", {}), labels=doc.get("labels", {}),
                   filter_bank=gabor.FilterBank.from_document(doc.get("bank", {}),
                                                              defaults=True),
                   options=StudyOptions(**opts),
                   exclude_from_average=doc.get("exclude_from_average", ()),
                   no_fear=doc.get("no_fear", False))

    def bank(self):
        """Only the benchmark calls this: it stays until ROADMAP item 1e,
        and item 2 then deletes it."""
        return self.filter_bank

    def image_ids(self):
        """Sorted image ids; with no_fear set, less the FE-labelled ones."""
        return sorted(i for i in self.expressers
                      if not (self.no_fear and self.labels.get(i) == FEAR_LABEL))

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

def _encode(config, image_id, out):
    """The image's jet JSON, deterministic bytes."""
    bank = config.filter_bank
    placement = _read(config.grid_dir / f"{image_id}.json",
                      lambda doc: _require_id(grid.load_grid(doc), image_id))
    pixels = _read(config.image_dir / f"{image_id}.pgm", gabor.read_pgm, "bytes")
    if tuple(placement.source_size) != pixels.shape[::-1]:
        placement = grid.rescale_placement(placement, pixels.shape[::-1])
    jets = gabor.compute_jets(pixels, bank, placement.points)
    _write_json(out[".json"], gabor.jet_document(image_id, bank, placement, jets))


def _require_id(placement, image_id):
    """`placement`, if it is of `image_id`: the grid or jet file of one
    image must not hold another image's placement."""
    if placement.image_id != image_id:
        raise ValidationError(f"holds image_id {placement.image_id!r}, not "
                              f"{image_id!r}")
    return placement


# ---------------------------------------------------------------------------
# Stage driver: encode runs per image, every other stage per expresser
# ---------------------------------------------------------------------------

def _read(path, parse, form="json", stage=None):
    """parse(content) of the file at `path`: the one place the pipeline
    opens a file it reads, and the one that words its refusal.

    content is the file's JSON value, its UTF-8 text (form "text") or its
    bytes (form "bytes").  Every error names the file.  For an intermediate
    file, one that the `stage` writes, a missing file asks for that stage
    to be run, and any other refusal of its content for it to be re-run.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        hint = f"; run the {stage} stage" if stage else ""
        raise ValidationError(f"{path}: no such file{hint}") from None
    except OSError as exc:  # a directory in place of the file, say
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    hint = f"; re-run the {stage} stage" if stage else ""
    try:
        if form != "bytes":
            data = data.decode("utf-8")
        if form == "json":
            data = json.loads(data, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}{hint}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer of over 4,300 digits, deep nesting
        raise FormatError(f"{path}: malformed JSON: {exc}{hint}") from exc
    try:
        return parse(data)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}{hint}") from exc


def _unique_keys(pairs):
    """A JSON object's dict; a repeated key is a ValueError, where json.loads
    alone would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return doc


def _outputs(config, stage, key, step=0):
    """name -> path of each file of step `step` of `stage` for `key`."""
    _, _, directory, names = _STAGES[stage][step]
    return {n: config.out_dir / directory / f"{key}{n}" for n in names}


def _load(config, stage, expresser, ids, name, parse):
    """parse() of `expresser`'s `name` file of `stage`, a matrix or
    configuration that must be of the items `ids`, the expresser's images."""
    def of_ids(data):
        loaded = parse(data)
        if loaded.item_ids != tuple(ids):
            raise ValidationError(
                f"its {len(loaded.item_ids)} items are not the expresser's "
                f"{len(ids)} images in the config")
        return loaded
    return _read(_outputs(config, stage, expresser)[name], of_ids, stage=stage)


def _load_matrix(config, expresser, ids, measure):
    """_load() of `expresser`'s `measure` pair matrix, which must be of the
    measure's kind: a relabelled matrix would flip a correlation's sign."""
    def of_kind(doc):
        matrix = PairMatrix.from_document(doc)
        if matrix.kind != KINDS[measure]:
            raise FormatError(f"a {matrix.kind} matrix, where the {measure} "
                              f"matrix is a {KINDS[measure]} matrix")
        return matrix
    return _load(config, "matrices", expresser, ids, f"_{measure}.json", of_kind)


def _load_correlation(config, expresser, measure):
    """The CorrelationResult of `expresser`'s `measure` file, which must name
    that measure and expresser: a copy of another's would fill the wrong
    summary cells."""
    def of_slot(doc):
        result = rank_stats.CorrelationResult.from_document(doc)
        for key, value in (("measure", measure), ("expresser_id", expresser)):
            if doc.get(key) != value:
                raise FormatError(f"holds {key} {doc.get(key)!r}, not {value!r}")
        return result
    return _read(_outputs(config, "correlate", expresser)[f"_{measure}.json"], of_slot,
                 stage="correlate")


def _attempt(out, run):
    """run(out) with `out`'s files removed before it runs and again if it
    fails.  A unit writes its files and returns only its failure: the
    ValidationError or RuntimeFailure it raised is returned, else None.  A
    path that cannot be removed, a directory in place of the file, say, is
    the unit's ValidationError."""
    try:
        for path in out.values():
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                raise ValidationError(f"{path}: cannot remove: "
                                      f"{exc.strerror or exc}") from exc
        run(out)
    except BaseException as exc:
        for path in out.values():
            with suppress(OSError):  # the path that could not be removed
                path.unlink(missing_ok=True)
        if not isinstance(exc, (ValidationError, RuntimeFailure)):
            raise
        return exc


def _require_directories(config, stages):
    """Refuse, before any unit of them runs, an output directory of the
    `stages` whose nearest existing ancestor is not a directory."""
    for name in stages:
        for _, _, directory, _ in _STAGES[name]:
            path = config.out_dir / directory
            existing = next(p for p in (path, *path.parents) if p.exists())
            if not existing.is_dir():
                raise ValidationError(f"{existing}: not a directory; the {name} "
                                      f"stage writes in {path}")


def run_stage(config, name):
    """Run one stage (see the module docstring)."""
    _require_directories(config, [name])
    groups = config.groups()
    usable = {e: (e, ids) for e, ids in groups.items() if len(ids) >= MIN_GROUP_SIZE}
    # scope -> key -> the unit's arguments after config, None if it is skipped
    units = {"image": {i: (i,) for i in config.image_ids()},
             "expresser": {e: usable.get(e) for e in groups},
             "study": {"summary": (list(usable),) if usable else None}}
    for step, (scope, unit, _, _) in enumerate(_STAGES[name]):
        failures = {}
        for key, args in units[scope].items():
            out = _outputs(config, name, key, step)
            if args is None and scope == "expresser":  # only its files go
                warnings.warn(f"expresser {key!r} has only {len(groups[key])} "
                              f"images; skipping (need >= {MIN_GROUP_SIZE})")
            if failure := _attempt(
                    out, lambda out: None if args is None else unit(config, *args, out)):
                failures[key] = failure
        for key, exc in failures.items():
            warnings.warn(f"{scope} {key!r} failed: {exc}")
    if scope != "image" and not usable:
        raise ValidationError(f"no expresser has >= {MIN_GROUP_SIZE} images, "
                              "the fewest a significance test can use")
    if failures:
        raise next(iter(failures.values()))


def run_study(config):
    """Every stage in order; none runs if one cannot write its directories."""
    _require_directories(config, _STAGES)
    for name in _STAGES:
        run_stage(config, name)


# The units of the later stages: unit(config, expresser, ids, out) computes
# the group of `expresser`, its images `ids`, and writes `out`'s paths.

def _matrices(config, expresser, ids, out):
    """Semantic dissimilarity, Gabor similarity and geometry: each matrix is
    computed, written and dropped before the next.  The ratings go once their
    matrix is written, and the jet stack once its matrix is built, so the
    stack and the text of the matrix's files are never held together."""
    def write(name, matrix):
        _write_matrix(out[f"_{name}.json"], out[f"_{name}.csv"], matrix)

    table = _read(config.ratings_path, ratings.load_ratings, "text")
    if config.no_fear and FEAR_ADJECTIVE in table.adjectives:
        fear = table.adjectives.index(FEAR_ADJECTIVE)
        table = table._replace(
            adjectives=table.adjectives[:fear] + table.adjectives[fear + 1:],
            values=np.delete(table.values, fear, axis=1))
    write("semantic", ratings.semantic_matrix(table, ids))
    del table
    # one (images, 34, filters) stack: each image's jets have the config's
    # bank (_coded_image) and 34 points (a GridPlacement's)
    jets = np.empty((len(ids), grid.NODE_COUNT, len(config.filter_bank)))
    vectors = []
    for k, image_id in enumerate(ids):
        placement, jets[k] = _read(
            _outputs(config, "encode", image_id)[".json"],
            lambda doc: _coded_image(config, doc, image_id), stage="encode")
        vectors.append(grid.geometry_vector(placement))
    gabor_matrix = pairwise_matrix(list(zip(ids, jets)), "gabor")
    del jets
    write("gabor", gabor_matrix)
    del gabor_matrix
    write("geometry", pairwise_matrix(list(zip(ids, vectors)), "geometry"))


def _coded_image(config, doc, image_id):
    """The placement and jets of `image_id`'s jet document `doc`."""
    placement, loaded_bank, jets = gabor.parse_jet_document(doc)
    if loaded_bank != config.filter_bank:
        raise ValidationError("coded with a different filter bank")
    return _require_id(placement, image_id), jets


def _correlate(config, expresser, ids, out):
    """Rank-correlate the model matrices against the semantic matrix.  The
    models go as a generator, so each is loaded, ranked and released before
    the next is read."""
    opts = config.options
    semantic = _load_matrix(config, expresser, ids, "semantic")
    results = rank_stats.correlate_model_with_ratings(
        (_load_matrix(config, expresser, ids, m) for m in MEASURES), semantic,
        permutations=opts.permutations, seed=opts.seed)
    for measure, result in zip(MEASURES, results):
        _write_json(out[f"_{measure}.json"],
                    result.to_document(expresser_id=expresser,
                                       measure=measure, seed=opts.seed))


def _write_summary(config, expressers, out):
    """Summary tables of the correlation files of `expressers` (those of at
    least MIN_GROUP_SIZE images): one row per result, a `failed` row for an
    expresser that has none, then `Average`, which leaves out the config's
    `exclude_from_average` ids (StudyConfig refuses one that is no expresser's)."""
    # rows: (label, its five CSV values, None for an empty cell; None if failed)
    rows, failed = [], []
    for expresser in expressers:
        paths = _outputs(config, "correlate", expresser)
        if not any(path.exists() for path in paths.values()):
            failed.append((expresser, None))
            continue
        gab, geo = (_load_correlation(config, expresser, m) for m in MEASURES)
        rows.append((expresser,
                     (gab.rho, gab.p_two_sided, geo.rho, geo.p_two_sided, gab.n)))
    averaged = [values for expresser, values in rows
                if expresser not in config.exclude_from_average]
    rows += failed
    if averaged:
        avg_gabor, avg_geo = (float(np.mean([v[i] for v in averaged])) for i in (0, 2))
        rows.append(("Average", (avg_gabor, None, avg_geo, None, None)))
    width = max(len(label) for label in ["Expresser", *(label for label, _ in rows)])
    csv_lines = ["expresser,gabor_rho,gabor_p,geometry_rho,geometry_p,n_pairs"]
    text = [f"{'Expresser':<{width}}  {'Gabor':>8}  {'Geometry':>8}"]
    for label, values in rows:
        if values is None:
            csv_lines.append(f"{label},failed,,,,")
            text.append(f"{label:<{width}}  {'failed':>8}  {'failed':>8}")
        else:
            csv_lines.append(",".join([label, *("" if v is None else repr(v)
                                                for v in values)]))
            text.append(f"{label:<{width}}  {values[0]:8.3f}  {values[2]:8.3f}")
    _write_atomic(out[".csv"], "\n".join(csv_lines) + "\n")
    _write_atomic(out[".txt"], "\n".join(text) + "\n")


def _model_dissimilarity(matrix):
    """Similarity -> dissimilarity (1 - s) for embedding; rank-equivalent."""
    if matrix.kind == "dissimilarity":
        return matrix
    values = 1.0 - matrix.values
    np.maximum(values, 0.0, out=values)
    return PairMatrix(matrix.item_ids, values, "dissimilarity")


def _embed(config, expresser, ids, out):
    """nMDS embedding of the Gabor and semantic matrices, one measure's
    matrix and fits at a time."""
    opts = config.options
    fit = {"max_iterations": opts.max_iterations, "tolerance": opts.tolerance,
           "seed": opts.seed}
    for measure in EMBEDDED:
        matrix = _model_dissimilarity(_load_matrix(config, expresser, ids, measure))
        n = len(matrix.item_ids)
        dims = min(opts.dims, n - 1)
        scan = range(1, min(opts.scan_dims or 0, n - 1) + 1)
        # each d is fitted once, also when the scan covers dims
        fits = {d: nmds.embed(matrix, d, **fit)
                for d in dict.fromkeys((dims, *scan))}
        _write_json(out[f"_{measure}.json"], fits[dims].to_document(options=fit))
        if opts.scan_dims:
            _write_atomic(out[f"_{measure}_scan.csv"], "d,stress,rsq\n" + "".join(
                f"{d},{fits[d].stress!r},{fits[d].rsq!r}\n" for d in scan))
        del matrix, fits  # before the next measure's matrix is loaded


def _align(config, expresser, ids, out):
    """Procrustes-align the Gabor configuration onto the semantic one."""
    source, target = (
        _load(config, "embed", expresser, ids, f"_{m}.json",
              nmds.Configuration.from_document)
        for m in EMBEDDED)
    aligned, residual = nmds.procrustes_align(source, target)
    _write_json(out[".json"],
                aligned.to_document(residual=residual, target="semantic"))


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
        label = str(labels.get(item_id, item_id))
        # XML text escapes: & first, so no entity is escaped twice
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="4" fill="#1f77b4"/>')
        parts.append(
            f'<text x="{fmt(px + 6)}" y="{fmt(py - 6)}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _plot(config, expresser, ids, out):
    """SVG scatter for every stored 2-d configuration."""
    for measure in EMBEDDED:
        configuration = _load(config, "embed", expresser, ids, f"_{measure}.json",
                              nmds.Configuration.from_document)
        if configuration.d != 2:
            warnings.warn(f"{expresser}/{measure}: d={configuration.d}, "
                          "skipping plot")
            continue
        _write_atomic(out[f"_{measure}.svg"],
                      render_scatter(configuration, config.labels))


# stage -> its steps in run order, each (scope: "image", "expresser" or
# "study", whose one key is `summary`; unit; output directory; the names after
# the key of all the unit's files): the one list of the files under out/.
# Each unit is a module-level function, so that it can be pickled; it writes
# its files and returns only its failure (see _attempt).
_STAGES = {
    "encode": (("image", _encode, "jets", [".json"]),),
    "matrices": (("expresser", _matrices, "matrices", [
        f"_{m}.{x}" for m in (*MEASURES, "semantic") for x in ("json", "csv")]),),
    "correlate": (("expresser", _correlate, "correlations",
                   [f"_{m}.json" for m in MEASURES]),
                  ("study", _write_summary, "", [".csv", ".txt"])),
    "embed": (("expresser", _embed, "embeddings", [
        f"_{m}{x}" for m in EMBEDDED for x in (".json", "_scan.csv")]),),
    "align": (("expresser", _align, "align", [".json"]),),
    "plot": (("expresser", _plot, "plots", [f"_{m}.svg" for m in EMBEDDED]),),
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
        if args.out:  # the load warned; the same fields would warn again
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                config = replace(config, out_dir=Path(args.out).resolve())
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
