import dataclasses
import json
import math

import numpy as np
import pytest

import gaborface as gf
from gaborface.cli import _read
from gaborface.errors import FormatError, ParameterError
from gaborface.grid import NODE_COUNT
from oracles import NODE_NAMES, NOSE_TIP, default_template_placement, grid_document


def square_layout(size=256):
    pts = [(20.0 + 30.0 * (i % 6), 20.0 + 30.0 * (i // 6)) for i in range(NODE_COUNT)]
    return default_template_placement("img", pts, (size, size))


def random_placement(seed=0, size=256):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, size - 1, size=(NODE_COUNT, 2))
    return default_template_placement("img", pts, (size, size))


class TestLoadGrid:
    def test_round_trip_preserves_coordinates(self):
        placement = random_placement(1)
        doc = grid_document(placement)
        back = gf.load_grid(json.loads(json.dumps(doc)))
        assert grid_document(back) == doc

    def test_wrong_node_count(self):
        doc = grid_document(square_layout())
        doc["nodes"] = doc["nodes"][:33]
        with pytest.raises(FormatError, match="expected 34 nodes, found 33"):
            gf.load_grid(doc)

    def test_duplicate_name(self):
        doc = grid_document(square_layout())
        doc["nodes"][1]["name"] = doc["nodes"][0]["name"]
        with pytest.raises(FormatError, match="duplicate node name"):
            gf.load_grid(doc)

    def test_missing_nose_tip(self):
        doc = grid_document(square_layout())
        doc["nose_tip"] = "no_such_node"
        with pytest.raises(FormatError, match="no_such_node"):
            gf.load_grid(doc)

    def test_out_of_range_coordinate(self):
        doc = grid_document(square_layout())
        doc["nodes"][3]["x"] = 300.0
        with pytest.raises(FormatError, match=doc["nodes"][3]["name"]):
            gf.load_grid(doc)

    @pytest.mark.parametrize("field,value", [
        ("source_size", [256, 256, 1]), ("source_size", "256x256"),
        ("source_size", [float("nan"), 256]), ("nodes", 34), ("name", 7),
        ("name", ["nose"]), ("image_id", None)])
    def test_ill_typed_field_is_format_error(self, field, value):
        doc = grid_document(square_layout())
        if field == "name":
            doc["nodes"][2]["name"] = value
        else:
            doc[field] = value
        with pytest.raises(FormatError):
            gf.load_grid(doc)

    def test_json_nan_coordinate_is_non_finite(self, tmp_path):
        doc = grid_document(square_layout())
        doc["nodes"][5]["x"] = math.nan
        path = tmp_path / "img.json"
        path.write_text(json.dumps(doc))
        assert '"x": NaN' in path.read_text()
        with pytest.raises(FormatError, match=f"node {doc['nodes'][5]['name']!r} "
                                              "has non-finite coordinates"):
            _read(path, gf.load_grid)

    def test_points_that_are_not_xy_pairs(self):
        with pytest.raises(FormatError, match=r"\(34, 2\) array, got shape \(34, 3\)"):
            dataclasses.replace(square_layout(), points=np.zeros((34, 3)))

    def test_not_json(self, tmp_path):
        path = tmp_path / "img.json"
        path.write_text("not json {")
        with pytest.raises(FormatError, match="malformed JSON"):
            _read(path, gf.load_grid)


class TestRescalePlacement:
    def test_identity(self):
        p = random_placement(2)
        q = gf.rescale_placement(p, p.source_size)
        assert grid_document(q) == grid_document(p)

    def test_halving(self):
        pts = [(128.0, 64.0)] + [(float(i), float(i)) for i in range(33)]
        p = default_template_placement("img", pts, (256, 256))
        q = gf.rescale_placement(p, (128, 128))
        assert tuple(q.points[0]) == (64.0, 32.0)
        assert q.source_size == (128, 128)

    def test_anisotropic(self):
        p = random_placement(3)
        q = gf.rescale_placement(p, (512, 256))
        for a, b in zip(p.points, q.points):
            assert b[0] == pytest.approx(2.0 * a[0])
            assert b[1] == a[1]

    def test_node_order_preserved(self):
        p = random_placement(4)
        q = gf.rescale_placement(p, (100, 100))
        assert q.names == p.names

    def test_bad_target(self):
        with pytest.raises(ParameterError):
            gf.rescale_placement(random_placement(5), (0, 10))


class TestGeometryVector:
    def test_three_four_five(self):
        pts = [(50.0 + i, 50.0) for i in range(NODE_COUNT)]
        nose_idx = NODE_NAMES.index(NOSE_TIP)
        pts[nose_idx] = (100.0, 100.0)
        other_idx = 0
        pts[other_idx] = (103.0, 104.0)
        p = default_template_placement("img", pts, (256, 256))
        vec = gf.geometry_vector(p)
        assert vec[0] == pytest.approx(5.0)

    def test_all_coincident(self):
        pts = [(42.0, 42.0)] * NODE_COUNT
        p = default_template_placement("img", pts, (256, 256))
        assert np.all(gf.geometry_vector(p) == 0.0)

    def test_matches_direct_recomputation(self):
        # independent per-node distance oracle
        p = random_placement(6)
        vec = gf.geometry_vector(p)
        nodes = dict(zip(p.names, p.points.tolist()))
        nx, ny = nodes[p.nose_tip]
        expected = [math.sqrt((x - nx) ** 2 + (y - ny) ** 2)
                    for name, (x, y) in nodes.items() if name != p.nose_tip]
        np.testing.assert_allclose(vec, expected, rtol=1e-15)

    def test_length_is_33(self):
        assert gf.geometry_vector(random_placement(7)).size == 33

    def test_translation_invariance(self):
        p = random_placement(8, size=200)
        shifted = default_template_placement(
            "img", p.points + (30.0, 17.0), (256, 256))
        np.testing.assert_allclose(gf.geometry_vector(shifted),
                                   gf.geometry_vector(p), rtol=1e-12)

    def test_uniform_rescale_scales_distances(self):
        p = random_placement(9, size=128)
        q = gf.rescale_placement(p, (256, 256))
        np.testing.assert_allclose(gf.geometry_vector(q),
                                   2.0 * gf.geometry_vector(p),
                                   rtol=1e-12)
