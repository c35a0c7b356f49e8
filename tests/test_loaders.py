"""Every loader of outside input either returns a value or raises a
ValidationError, whatever bytes it is given.

Each loader gets arbitrary input, arbitrary JSON where it reads JSON, and
valid documents with one field (at any depth) replaced by an arbitrary
JSON value, which reaches the checks behind the parser.
"""

import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gaborface as gf
from gaborface.cli import StudyConfig
from gaborface.errors import ValidationError
from gaborface.grid import NODE_COUNT, default_template_placement, grid_document

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with the value at one position replaced by arbitrary JSON."""
    path = draw(st.sampled_from(list(paths(doc))))
    value = draw(json_values)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def loads_or_rejects(load, data):
    try:
        load(data)
    except ValidationError:
        pass


def documents(valid):
    """Arbitrary text, arbitrary JSON and mutations of `valid`, as text."""
    return st.one_of(st.text(), json_values.map(json.dumps),
                     mutated(valid).map(json.dumps))


PLACEMENT = default_template_placement(
    "img", np.random.default_rng(0).uniform(0, 63, (NODE_COUNT, 2)), (64, 64))
BANK = gf.build_filter_bank([1.0], [0.0], 1.0)
JET_DOC = gf.gabor.jet_document("img", BANK, PLACEMENT,
                                np.ones((NODE_COUNT, len(BANK))))
MATRIX_DOC = gf.PairMatrix(
    ("a", "b", "c"), np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
    "dissimilarity").to_document()
STUDY_DOC = {
    "image_dir": "images", "grid_dir": "grids", "ratings": "ratings.csv",
    "out_dir": "out", "expressers": {"img0": "KA", "img1": "KA"},
    "labels": {"img0": "NE", "img1": "FE"},
    "bank": {"wavenumbers": [1.0, 0.5], "orientations": [0.0, 1.0], "sigma": 3.0},
    "options": {"dims": 2, "seed": 0, "tolerance": 1e-6, "max_iterations": 50,
                "permutations": 100, "scan_dims": None},
    "exclude_from_average": ["KA"],
}
CONFIG_DOC = gf.Configuration(
    ("a", "b", "c"), np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]), 0.1, 0.9,
    4).to_document()


def test_valid_documents_load():
    assert gf.load_grid(json.dumps(grid_document(PLACEMENT))) == PLACEMENT
    assert gf.gabor.parse_jet_document(json.dumps(JET_DOC))[0] == PLACEMENT
    assert gf.PairMatrix.from_json(json.dumps(MATRIX_DOC)).item_ids == ("a", "b", "c")
    assert gf.Configuration.from_json(json.dumps(CONFIG_DOC)).iterations == 4
    assert load_study_config(json.dumps(STUDY_DOC)).options.permutations == 100
    # nMDS may run to max_iterations with no tolerance, or not iterate at all
    limits = {"tolerance": 0, "max_iterations": 0}
    options = load_study_config(json.dumps({**STUDY_DOC, "options": limits})).options
    assert (options.tolerance, options.max_iterations) == (0, 0)


def load_study_config(text):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "study.json"
        path.write_text(text)
        return StudyConfig.from_file(path)


@FUZZ
@given(st.one_of(
    st.binary(),
    st.builds(lambda w, h, maxval, raster: f"P5\n{w} {h}\n{maxval}\n".encode() + raster,
              st.integers(-3, 12) | st.integers(), st.integers(-3, 12),
              st.integers(-1, 300), st.binary(max_size=200)),
))
def test_read_pgm(data):
    loads_or_rejects(gf.read_pgm, io.BytesIO(data))


@FUZZ
@given(documents(grid_document(PLACEMENT)))
def test_load_grid(text):
    loads_or_rejects(gf.load_grid, text)


@FUZZ
@given(documents(JET_DOC))
def test_parse_jet_document(text):
    loads_or_rejects(gf.gabor.parse_jet_document, text)


@FUZZ
@given(documents(MATRIX_DOC))
def test_pair_matrix_from_json(text):
    loads_or_rejects(gf.PairMatrix.from_json, text)


@FUZZ
@given(documents(CONFIG_DOC))
def test_configuration_from_json(text):
    loads_or_rejects(gf.Configuration.from_json, text)


@FUZZ
@given(documents(STUDY_DOC))
def test_study_config_from_file(text):
    loads_or_rejects(load_study_config, text)


SIX = "image_id,happiness,sadness,surprise,anger,disgust,fear"
cells = st.one_of(st.text(max_size=6),
                  st.floats(0, 6).map(repr),
                  st.sampled_from(["a", "b", "1", "3.5", "5", "nan", "inf"]))


@FUZZ
@given(st.one_of(
    st.text(),
    st.lists(st.lists(cells, min_size=5, max_size=8).map(",".join), max_size=5)
    .map(lambda rows: "\n".join([SIX] + rows)),
))
def test_load_ratings(text):
    loads_or_rejects(gf.load_ratings, text)
