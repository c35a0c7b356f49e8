import json
import math
import warnings

import numpy as np
import pytest

import gaborface as gf
from gaborface.errors import (
    DegenerateJetError,
    DimensionError,
    FormatError,
    ParameterError,
)
from gaborface.grid import NODE_COUNT
from gaborface.similarity import pairwise_matrix


def random_jet(rng, dim=18):
    return rng.uniform(0.1, 5.0, size=dim)


def random_jets(rng):
    return rng.uniform(0.1, 5.0, (NODE_COUNT, 18))


class TestJetSimilarity:
    def test_self_similarity(self):
        jet = random_jet(np.random.default_rng(0))
        assert gf.jet_similarity(jet, jet) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.eye(18)[0]
        b = np.eye(18)[1]
        assert gf.jet_similarity(a, b) == 0.0

    def test_scale_invariance(self):
        jet = random_jet(np.random.default_rng(1))
        scaled = 7.0 * jet
        assert gf.jet_similarity(jet, scaled) == pytest.approx(1.0)

    def test_zero_jet_raises(self):
        zero = np.zeros(18)
        with pytest.raises(DegenerateJetError):
            gf.jet_similarity(zero, random_jet(np.random.default_rng(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gf.jet_similarity(random_jet(np.random.default_rng(3), 18),
                              random_jet(np.random.default_rng(3), 6))

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = gf.jet_similarity(random_jet(rng), random_jet(rng))
            assert 0.0 <= s <= 1.0 + 1e-15


class TestGaborImageSimilarity:
    def test_self_is_one(self):
        a = random_jets(np.random.default_rng(0))
        assert gf.gabor_image_similarity(a, a) == pytest.approx(1.0)

    def test_half_identical_half_orthogonal(self):
        rng = np.random.default_rng(1)
        basis = np.eye(18)
        jets_a, jets_b = [], []
        for i in range(NODE_COUNT):
            if i < 17:
                jet = random_jet(rng)
                jets_a.append(jet)
                jets_b.append(jet)
            else:
                jets_a.append(basis[0])
                jets_b.append(basis[1])
        assert gf.gabor_image_similarity(jets_a, jets_b) == pytest.approx(0.5)

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(2)
        a = random_jets(rng)
        b = random_jets(rng)
        expected = np.mean([gf.jet_similarity(ja, jb) for ja, jb in zip(a, b)])
        assert gf.gabor_image_similarity(a, b) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = random_jets(rng)
        b = random_jets(rng)
        assert gf.gabor_image_similarity(a, b) == gf.gabor_image_similarity(b, a)

    def test_zero_jet_counts_zero_with_warning(self):
        rng = np.random.default_rng(5)
        jets = [random_jet(rng) for _ in range(NODE_COUNT - 1)]
        jets.append(np.zeros(18))
        a = np.array(jets)
        b = random_jets(rng)
        with pytest.warns(UserWarning, match="zero jet"):
            s = gf.gabor_image_similarity(a, b)
        expected = np.mean([gf.jet_similarity(ja, jb)
                            for ja, jb in zip(a[:-1], b[:-1])] + [0.0])
        assert s == pytest.approx(expected, rel=1e-12)


def geometry_distances(*vectors):
    ids = [f"v{i}" for i in range(len(vectors))]
    return pairwise_matrix(list(zip(ids, vectors)), "geometry").values


class TestGeometryDissimilarity:
    def test_self_is_zero(self):
        vec = np.arange(33.0)
        assert geometry_distances(vec, vec)[0, 1] == 0.0

    def test_unit_offsets(self):
        d = geometry_distances(np.full(33, 5.0), np.full(33, 6.0))
        assert d[0, 1] == pytest.approx(np.sqrt(33))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 100, 33)
        b = rng.uniform(0, 100, 33)
        expected = np.sqrt(np.sum((a - b) ** 2))
        assert geometry_distances(a, b)[0, 1] == pytest.approx(expected, rel=1e-15)

    def test_triangle_inequality_on_sampled_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = geometry_distances(*rng.uniform(0, 50, (3, 33)))
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9


class TestPairwiseMatrix:
    def test_identical_coded_images(self):
        rng = np.random.default_rng(0)
        a = random_jets(rng)
        m = pairwise_matrix([("a", a), ("b", a.copy())], "gabor")
        np.testing.assert_allclose(m.values, np.ones((2, 2)), rtol=1e-12)
        assert m.kind == "similarity"

    def test_geometry_with_equal_pair(self):
        rng = np.random.default_rng(1)
        v1 = rng.uniform(0, 10, 33)
        v2 = v1.copy()
        v3 = rng.uniform(0, 10, 33)
        m = pairwise_matrix([("a", v1), ("b", v2), ("c", v3)], "geometry")
        assert m.kind == "dissimilarity"
        assert m.values[0, 1] == 0.0
        assert np.all(np.diag(m.values) == 0.0)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        jets = [random_jets(rng) for _ in range(5)]
        m = pairwise_matrix([(f"i{k}", j) for k, j in enumerate(jets)], "gabor")
        for i in range(5):
            for j in range(5):
                expected = 1.0 if i == j else gf.gabor_image_similarity(jets[i], jets[j])
                assert m.values[i, j] == pytest.approx(expected, rel=1e-14)

    def test_zero_jet_warns_once_per_image_and_node(self):
        rng = np.random.default_rng(6)
        jets = [random_jets(rng) for _ in range(4)]
        jets[1][5] = 0.0
        with pytest.warns(UserWarning, match="zero jet") as record:
            m = pairwise_matrix([(f"i{k}", j) for k, j in enumerate(jets)], "gabor")
        assert sum("zero jet" in str(w.message) for w in record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for j in (0, 2, 3):
                expected = gf.gabor_image_similarity(jets[1], jets[j])
                assert m.values[1, j] == pytest.approx(expected, rel=1e-14)

    def test_too_few_items(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ParameterError):
            pairwise_matrix([("a", random_jets(rng))], "gabor")

    @pytest.mark.parametrize("shapes", [[(33, 18), (33, 18)],
                                        [(NODE_COUNT, 18), (NODE_COUNT, 6)]])
    def test_rejects_ill_shaped_jets(self, shapes):
        items = [(f"i{k}", np.ones(shape)) for k, shape in enumerate(shapes)]
        with pytest.raises(ParameterError):
            pairwise_matrix(items, "gabor")

    def test_unknown_measure(self):
        with pytest.raises(ParameterError):
            pairwise_matrix([], "colour")


class TestIlluminationInvariance:
    def test_recoding_scaled_image_preserves_similarity(self):
        from scipy.ndimage import gaussian_filter
        rng = np.random.default_rng(7)
        bank = gf.build_filter_bank()
        size = 96

        def code(pixels):
            img = gf.ImageRaster(size, size, pixels)
            return np.array([gf.compute_jet(img, bank, p) for p in rng_points])

        rng_points = [tuple(p) for p in rng.uniform(10, size - 10, (NODE_COUNT, 2))]
        pa = 128 + 60 * gaussian_filter(rng.standard_normal((size, size)), 2)
        pb = 128 + 60 * gaussian_filter(rng.standard_normal((size, size)), 2)
        a = code(pa)
        b = code(pb)
        base = gf.gabor_image_similarity(a, b)
        for c in (0.5, 2.0, 10.0):
            b_scaled = code(c * pb)
            assert gf.gabor_image_similarity(a, b_scaled) == pytest.approx(
                base, abs=1e-9)


class TestPairMatrixSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, (3, 3))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        m = gf.PairMatrix(("a", "b", "c"), vals, "dissimilarity")
        back = gf.PairMatrix.from_document(json.loads(json.dumps(m.to_document())))
        assert back.item_ids == m.item_ids
        assert back.kind == m.kind
        np.testing.assert_array_equal(back.values, m.values)

    def test_csv_has_header_row_and_column(self):
        m = gf.PairMatrix(("a", "b"), np.array([[0.0, 0.1 + 0.2], [0.1 + 0.2, 0.0]]),
                          "dissimilarity")
        assert m.to_csv() == (",a,b\na,0.0,0.30000000000000004\n"
                              "b,0.30000000000000004,0.0\n")

    @pytest.mark.parametrize("values", [[[0.0, 1.0], [1.0]], [[0.0, "x"], ["x", 0.0]],
                                        "", [None, [1.0, 0.0]],
                                        [[0.0, math.inf], [math.inf, 0.0]],
                                        [[0.0, math.nan], [math.nan, 0.0]]])
    def test_from_json_ill_formed_values(self, values):
        doc = {"kind": "dissimilarity", "item_ids": ["a", "b"], "values": values}
        with pytest.raises(FormatError):
            gf.PairMatrix.from_document(doc)

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            gf.PairMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]),
                          "dissimilarity")

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ParameterError):
            gf.PairMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                          "similarity")

    @pytest.mark.parametrize("ids,message", [
        ((7, "b"), "must be strings"), ((None, "b"), "must be strings"),
        (("a", "a"), "duplicate item ids")])
    def test_rejects_ids_that_are_not_distinct_strings(self, ids, message):
        with pytest.raises(ParameterError, match=message):
            gf.PairMatrix(ids, np.array([[0.0, 1.0], [1.0, 0.0]]), "dissimilarity")
