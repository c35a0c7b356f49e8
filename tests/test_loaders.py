"""Every kind of file the pipeline reads, read through the one reader
(cli._read), either gives a value or raises a ValidationError whose message
starts with the file's path, whatever bytes the file holds.

Each kind gets arbitrary text, arbitrary JSON and valid documents with one
field (at any depth) replaced by an arbitrary JSON value, written as UTF-8;
the mutations reach the checks behind the parser.  Each kind also gets
arbitrary bytes, and its valid content in another encoding or with a byte
that is not UTF-8 put in, which reach the decode step.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gaborface as gf
from gaborface.cli import StudyConfig, _read
from gaborface.errors import FormatError, ValidationError
from gaborface.grid import NODE_COUNT
from oracles import default_template_placement, grid_document, matrix_document

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


def documents(valid):
    """UTF-8 file contents for a JSON file whose valid form is `valid`."""
    return st.one_of(st.text(), json_values.map(json.dumps),
                     mutated(valid).map(json.dumps)).map(str.encode)


PLACEMENT = default_template_placement(
    "img", np.random.default_rng(0).uniform(0, 63, (NODE_COUNT, 2)), (64, 64))
BANK = gf.FilterBank([1.0], [0.0], 1.0)
GRID_DOC = grid_document(PLACEMENT)
JET_DOC = gf.gabor.jet_document("img", BANK, PLACEMENT,
                                np.ones((NODE_COUNT, len(BANK))))
MATRIX_DOC = matrix_document(gf.PairMatrix(
    ("a", "b", "c"), np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
    "dissimilarity"))
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
SIX = "image_id,happiness,sadness,surprise,anger,disgust,fear"
RATINGS = SIX + "\nimg0,1,2,3,4,5,1\nimg1,2.5,2.5,2.5,2.5,2.5,2.5\n"

# each kind of file: how the pipeline reads it, and a valid content
READERS = {
    "pgm": (lambda path: _read(path, gf.read_pgm, "bytes"),
            b"P5\n2 2\n255\n\x00\x40\x80\xff"),
    "grid": (lambda path: _read(path, gf.load_grid), GRID_DOC),
    "jet": (lambda path: _read(path, gf.gabor.parse_jet_document), JET_DOC),
    "matrix": (lambda path: _read(path, gf.PairMatrix.from_document), MATRIX_DOC),
    "embedding": (lambda path: _read(path, gf.Configuration.from_document),
                  CONFIG_DOC),
    "study": (StudyConfig.from_file, STUDY_DOC),
    "ratings": (lambda path: _read(path, gf.load_ratings, "text"), RATINGS),
}
JSON_KINDS = ["grid", "jet", "matrix", "embedding", "study"]


def read_bytes_as(kind, data):
    """Read `data` as a file of `kind`: the value, or the ValidationError."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / f"input.{kind}"
        path.write_bytes(data)
        try:
            return READERS[kind][0](path)
        except ValidationError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return exc


def valid_bytes(kind):
    content = READERS[kind][1]
    if isinstance(content, dict):
        content = json.dumps(content)
    return content if isinstance(content, bytes) else content.encode()


def test_valid_documents_load():
    image = read_bytes_as("pgm", valid_bytes("pgm"))
    np.testing.assert_array_equal(image, [[0, 64], [128, 255]])
    assert grid_document(read_bytes_as("grid", valid_bytes("grid"))) == GRID_DOC
    placement = read_bytes_as("jet", valid_bytes("jet"))[0]
    assert grid_document(placement) == GRID_DOC
    assert read_bytes_as("matrix", valid_bytes("matrix")).item_ids == ("a", "b", "c")
    assert read_bytes_as("embedding", valid_bytes("embedding")).iterations == 4
    assert read_bytes_as("ratings", valid_bytes("ratings")).image_ids == (
        "img0", "img1")
    study = read_bytes_as("study", valid_bytes("study"))
    assert study.options.permutations == 100
    # nMDS may run to max_iterations with no tolerance, or not iterate at all
    limits = {"tolerance": 0, "max_iterations": 0}
    options = read_bytes_as(
        "study", json.dumps({**STUDY_DOC, "options": limits}).encode()).options
    assert (options.tolerance, options.max_iterations) == (0, 0)
    assert isinstance(options.tolerance, float)  # written as 0.0 in embeddings


def edited(doc, change):
    doc = copy.deepcopy(doc)
    change(doc)
    return doc


def set_at(*path_and_value):
    """A change that sets the value at a path of keys and indices."""
    *path, key, value = path_and_value

    def change(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return change


# kind -> documents that float() or numpy would turn into numbers or ids:
# every number in an intermediate file must be a JSON number, every id list
# a JSON list
NOT_NUMBERS = {
    "matrix": {
        "string-values": set_at("values", [[repr(v) for v in row]
                                           for row in MATRIX_DOC["values"]]),
        "boolean-values": set_at("values", [[i != j for j in range(3)]
                                            for i in range(3)]),
        "mixed-values": lambda doc: [set_at("values", i, j, True)(doc)
                                     for i, j in ((0, 1), (1, 0))],
        "string-ids": set_at("item_ids", "abc"),
    },
    "embedding": {
        "string-coordinates": set_at("coordinates", [
            [repr(v) for v in row] for row in CONFIG_DOC["coordinates"]]),
        "mixed-coordinates": set_at("coordinates", 1, 0, True),
        "boolean-stress": set_at("stress", True),
        "string-ids": set_at("item_ids", "abc"),
    },
    "grid": {
        "string-x": set_at("nodes", 0, "x", "10"),
        "boolean-y": set_at("nodes", 0, "y", True),
    },
    "jet": {
        "string-amplitudes": set_at("points", 0, "amplitudes", ["1.0"] * len(BANK)),
        # the other points' amplitudes stay floats
        "mixed-amplitudes": set_at("points", 0, "amplitudes", [True] * len(BANK)),
        "string-x": set_at("points", 0, "x", "10"),
        "string-sigma": set_at("bank", "sigma", "1.0"),
    },
}


@pytest.mark.parametrize("kind,change", [
    pytest.param(kind, change, id=f"{kind}-{name}")
    for kind, changes in NOT_NUMBERS.items() for name, change in changes.items()])
def test_strings_and_booleans_are_not_numbers(kind, change):
    doc = edited(READERS[kind][1], change)
    result = read_bytes_as(kind, json.dumps(doc).encode())
    assert isinstance(result, FormatError), result
    assert "must be numbers" in str(result) or "must be a list" in str(result)


@pytest.mark.parametrize("kind,change", [
    ("matrix", lambda doc: [set_at("values", i, j, 10 ** 400)(doc)
                            for i, j in ((0, 1), (1, 0))]),
    ("embedding", set_at("coordinates", 0, 0, 10 ** 400)),
    ("grid", set_at("nodes", 0, "x", 10 ** 400)),
    ("jet", set_at("points", 0, "amplitudes", [10 ** 400] * len(BANK))),
], ids=["matrix", "embedding", "grid", "jet"])
def test_integer_too_large_for_a_float_is_malformed(kind, change):
    result = read_bytes_as(kind, json.dumps(edited(READERS[kind][1], change)).encode())
    assert isinstance(result, FormatError), result


@pytest.mark.parametrize("kind", ["study", "jet"])
@pytest.mark.parametrize("field,value", [
    ("sigma", 10 ** 400),
    ("wavenumbers", [1.0, 10 ** 400]),
    ("orientations", [0.0, -10 ** 400]),
])
def test_bank_integer_too_large_for_a_float_names_its_field(kind, field, value):
    result = read_bytes_as(kind, json.dumps(
        edited(READERS[kind][1], set_at("bank", field, value))).encode())
    assert isinstance(result, ValidationError), result
    assert f"bank {field!r} must be finite" in str(result)


# damage -> (new content from the valid bytes, what the error says)
DAMAGE = {
    "utf-16": (lambda valid: valid.decode("latin-1").encode("utf-16"),
               "not UTF-8 text"),
    "invalid-utf-8": (lambda valid: b"\xff" + valid, "not UTF-8 text"),
    "truncated": (lambda valid: valid[:-9], ""),
    "empty": (lambda valid: b"", ""),
}


@pytest.mark.parametrize("kind,damage", [
    (kind, damage) for kind in sorted(READERS) for damage in DAMAGE
    if kind != "pgm" or damage in ("truncated", "empty")])  # a PGM is not text
def test_damaged_file_is_rejected_naming_it(kind, damage):
    content, message = DAMAGE[damage]
    result = read_bytes_as(kind, content(valid_bytes(kind)))
    assert isinstance(result, ValidationError) and message in str(result)


@pytest.mark.parametrize("kind", JSON_KINDS)
@pytest.mark.parametrize("data", [b"1" * 5000, b"[" * 100_000],
                         ids=["long-integer", "deep-nesting"])
def test_json_the_decoder_refuses_is_malformed(kind, data):
    result = read_bytes_as(kind, data)
    assert isinstance(result, FormatError) and "malformed JSON" in str(result)


@FUZZ
@given(st.one_of(
    st.binary(),
    st.builds(lambda w, h, maxval, raster: f"P5\n{w} {h}\n{maxval}\n".encode() + raster,
              st.integers(-3, 12) | st.integers(), st.integers(-3, 12),
              st.integers(-1, 300), st.binary(max_size=200)),
))
def test_read_pgm(data):
    read_bytes_as("pgm", data)


@FUZZ
@given(documents(GRID_DOC))
def test_load_grid(data):
    read_bytes_as("grid", data)


@FUZZ
@given(documents(JET_DOC))
def test_parse_jet_document(data):
    read_bytes_as("jet", data)


@FUZZ
@given(documents(MATRIX_DOC))
def test_pair_matrix_from_json(data):
    read_bytes_as("matrix", data)


@FUZZ
@given(documents(CONFIG_DOC))
def test_configuration_from_json(data):
    read_bytes_as("embedding", data)


@FUZZ
@given(documents(STUDY_DOC))
def test_study_config_from_file(data):
    read_bytes_as("study", data)


cells = st.one_of(st.text(max_size=6),
                  st.floats(0, 6).map(repr),
                  st.sampled_from(["a", "b", "1", "3.5", "5", "nan", "inf"]))


@FUZZ
@given(st.one_of(
    st.text(),
    st.lists(st.lists(cells, min_size=5, max_size=8).map(",".join), max_size=5)
    .map(lambda rows: "\n".join([SIX] + rows)),
).map(str.encode))
def test_load_ratings(data):
    read_bytes_as("ratings", data)


@FUZZ
@pytest.mark.parametrize("kind", sorted(set(READERS) - {"pgm"}))  # text kinds
@given(data=st.data())
def test_bytes_that_are_not_utf8(kind, data):
    """Arbitrary bytes give a value or an error; the valid content in
    another encoding, or with a byte that is not ASCII put in, an error."""
    read_bytes_as(kind, data.draw(st.binary()))
    valid = valid_bytes(kind)  # ASCII, so any byte >= 0x80 breaks its UTF-8
    foreign = data.draw(st.one_of(
        st.sampled_from(["utf-16", "utf-16-le", "utf-32"]).map(valid.decode().encode),
        st.builds(lambda at, byte: valid[:at] + bytes([byte]) + valid[at:],
                  st.integers(0, len(valid)), st.integers(0x80, 0xff))))
    assert isinstance(read_bytes_as(kind, foreign), ValidationError)
