"""Each record that carries the pipeline between stages checks its own
fields: the filter bank, the grid placement, the nMDS configuration and the
correlation result.  A value of the wrong type is refused with the same
message whether the record is built in code or read from its document,
whose reader only walks the document and hands the values on."""

import numpy as np
import pytest

import gaborface as gf
from gaborface.errors import ValidationError
from gaborface.grid import NODE_COUNT, GridPlacement
from oracles import NODE_NAMES, NOSE_TIP

POINTS = np.random.default_rng(0).uniform(1, 62, (NODE_COUNT, 2)).tolist()


def grid_doc(fields):
    return {"image_id": fields["image_id"], "source_size": fields["source_size"],
            "nose_tip": fields["nose_tip"],
            "nodes": [{"name": name, "x": x, "y": y}
                      for name, (x, y) in zip(fields["names"], fields["points"])]}


def result_doc(fields):
    return {"rho": fields["rho"], "n_pairs": fields["n"],
            "p_two_sided": fields["p_two_sided"], "method": "permutation"}


def with_point(i, x, y):
    """The valid points with point `i` set to (x, y)."""
    return [[x, y] if j == i else point for j, point in enumerate(POINTS)]


# record -> (its constructor, its reader, the document of its fields, the
# prefix the reader puts on a field's message, the fields of a valid record)
RECORDS = {
    "bank": (gf.FilterBank, gf.FilterBank.from_document, dict, "",
             {"wavenumbers": [1.0, 0.5], "orientations": [0.0, 1.0], "sigma": 3.0}),
    "grid": (GridPlacement, gf.load_grid, grid_doc, "malformed grid document: ",
             {"image_id": "img", "names": list(NODE_NAMES), "points": POINTS,
              "nose_tip": NOSE_TIP, "source_size": [64, 64]}),
    "configuration": (gf.Configuration, gf.Configuration.from_document, dict,
                      "malformed configuration: ",
                      {"item_ids": ["a", "b", "c"],
                       "coordinates": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]],
                       "stress": 0.1, "rsq": 0.9, "iterations": 4}),
    "correlation": (gf.CorrelationResult, gf.CorrelationResult.from_document,
                    result_doc, "malformed correlation result: ",
                    {"rho": 0.5, "n": 6, "p_two_sided": 0.01}),
}

# record -> case -> the changed fields: a boolean, a numeric string and a
# scalar where a list belongs (for the correlation, a list where a number
# belongs: it has no list field)
WRONG_TYPES = {
    "bank": {
        "bool-sigma": {"sigma": True},
        "string-sigma": {"sigma": "3"},
        "bool-wavenumber": {"wavenumbers": [1.0, True]},
        "string-orientation": {"orientations": [0.0, "1"]},
        "string-wavenumbers": {"wavenumbers": "123"},
        "number-wavenumbers": {"wavenumbers": 1.5},
        "list-sigma": {"sigma": [3.0]},
    },
    "grid": {
        "bool-y": {"points": with_point(3, 10.0, True)},
        "string-x": {"points": with_point(0, "10", 20.0)},
        "string-points": {"points": [[str(x), str(y)] for x, y in POINTS]},
        "bool-size": {"source_size": [True, 64]},
        "string-size": {"source_size": ["64", "64"]},
        "number-size": {"source_size": 64},
    },
    "configuration": {
        "bool-stress": {"stress": True},
        "string-rsq": {"rsq": "0.9"},
        "bool-coordinate": {"coordinates": [[0.0, 1.0], [True, 0.0], [2.0, 2.0]]},
        "string-coordinates": {"coordinates": [["0", "1"], ["1", "0"], ["2", "2"]]},
        "number-coordinates": {"coordinates": 5.0},
        "string-iterations": {"iterations": "4"},
    },
    "correlation": {
        "bool-rho": {"rho": True},
        "string-rho": {"rho": "0.5"},
        "string-n": {"n": "6"},
        "float-n": {"n": 6.0},
        "bool-p": {"p_two_sided": False},
        "list-rho": {"rho": [0.5]},
    },
}


@pytest.mark.parametrize("record", RECORDS)
def test_valid_fields_build_and_read(record):
    build, read, document, _, fields = RECORDS[record]
    build(**fields)
    read(document(fields))


@pytest.mark.parametrize("record,change", [
    pytest.param(record, change, id=f"{record}-{case}")
    for record, cases in WRONG_TYPES.items() for case, change in cases.items()])
def test_a_wrong_type_is_refused_alike_in_code_and_in_a_document(record, change):
    build, read, document, prefix, fields = RECORDS[record]
    fields = {**fields, **change}
    with pytest.raises(ValidationError) as built:
        build(**fields)
    with pytest.raises(ValidationError) as read_back:
        read(document(fields))
    assert str(read_back.value) == prefix + str(built.value)
