import collections
import json
import math
import sys
import warnings

import numpy as np
import pytest

import gaborface as gf
from gaborface.errors import FormatError, ParameterError
from gaborface.grid import NODE_COUNT
from gaborface.similarity import pairwise_matrix
from oracles import (
    DegenerateJetError,
    DimensionError,
    gabor_image_similarity,
    jet_similarity,
    matrix_csv,
    matrix_document,
    traced_peak,
)


def random_jet(rng, dim=18):
    return rng.uniform(0.1, 5.0, size=dim)


def random_jets(rng):
    return rng.uniform(0.1, 5.0, (NODE_COUNT, 18))


class TestJetSimilarity:
    def test_self_similarity(self):
        jet = random_jet(np.random.default_rng(0))
        assert jet_similarity(jet, jet) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.eye(18)[0]
        b = np.eye(18)[1]
        assert jet_similarity(a, b) == 0.0

    def test_scale_invariance(self):
        jet = random_jet(np.random.default_rng(1))
        scaled = 7.0 * jet
        assert jet_similarity(jet, scaled) == pytest.approx(1.0)

    def test_zero_jet_raises(self):
        zero = np.zeros(18)
        with pytest.raises(DegenerateJetError):
            jet_similarity(zero, random_jet(np.random.default_rng(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            jet_similarity(random_jet(np.random.default_rng(3), 18),
                           random_jet(np.random.default_rng(3), 6))

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = jet_similarity(random_jet(rng), random_jet(rng))
            assert 0.0 <= s <= 1.0 + 1e-15


class TestGaborImageSimilarity:
    def test_self_is_one(self):
        a = random_jets(np.random.default_rng(0))
        assert gabor_image_similarity(a, a) == pytest.approx(1.0)

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
        assert gabor_image_similarity(jets_a, jets_b) == pytest.approx(0.5)

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(2)
        a = random_jets(rng)
        b = random_jets(rng)
        expected = np.mean([jet_similarity(ja, jb) for ja, jb in zip(a, b)])
        assert gabor_image_similarity(a, b) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = random_jets(rng)
        b = random_jets(rng)
        assert gabor_image_similarity(a, b) == gabor_image_similarity(b, a)

    def test_zero_jet_counts_zero_with_warning(self):
        rng = np.random.default_rng(5)
        jets = [random_jet(rng) for _ in range(NODE_COUNT - 1)]
        jets.append(np.zeros(18))
        a = np.array(jets)
        b = random_jets(rng)
        with pytest.warns(UserWarning, match="zero jet"):
            s = gabor_image_similarity(a, b)
        expected = np.mean([jet_similarity(ja, jb)
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

    @pytest.mark.parametrize("rows,message", [
        ([[1.0, 2.0], [1.0]], "inconsistent vector dimensions"),
        ([np.eye(2), np.eye(2)], r"need one vector per item, got arrays of "
                                 r"shape \(2, 2\)"),
    ], ids=["ragged", "not-vectors"])
    def test_rows_that_are_not_equal_length_vectors_are_refused(self, rows, message):
        # as the Gabor path refuses inconsistent jets, not with pdist's
        # bare ValueError
        with pytest.raises(ParameterError, match=message):
            geometry_distances(*rows)


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
                expected = 1.0 if i == j else gabor_image_similarity(jets[i], jets[j])
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
                expected = gabor_image_similarity(jets[1], jets[j])
                assert m.values[1, j] == pytest.approx(expected, rel=1e-14)

    def test_leaves_the_jet_arrays_unchanged(self):
        # it normalises its own copy: the caller's jets, a zero jet and
        # the rows of one stack among them, keep their values
        rng = np.random.default_rng(7)
        stack = rng.uniform(0.1, 5.0, (3, NODE_COUNT, 18))
        stack[1, 4] = 0.0
        jets = [*stack, random_jets(rng)]
        before = [j.copy() for j in jets]
        with pytest.warns(UserWarning, match="zero jet"):
            pairwise_matrix([(f"i{k}", j) for k, j in enumerate(jets)], "gabor")
        for got, want in zip(jets, before):
            np.testing.assert_array_equal(got, want)

    def test_gabor_matrix_at_210_images_copies_the_jets_once(self):
        # past the caller's jets, a call holds one normalised copy of them,
        # whose node norms it takes one image at a time, and the n x n
        # product: ~1.2 matrices on top of the stack.  The stack goes before
        # the product is mirrored and copied into the PairMatrix, which hold
        # under 2.5 matrices.  Norms over the whole stack square it beside
        # the copy (~3.3 matrices past it), a view of the stack left bound
        # keeps it through the mirror (~2.5), and a unit copy takes a
        # second stack.
        n = 210
        rng = np.random.default_rng(n)
        items = [(f"i{k:03d}", random_jets(rng)) for k in range(n)]
        stack, matrix = n * NODE_COUNT * 18 * 8, n * n * 8
        assert traced_peak(lambda: pairwise_matrix(items, "gabor")) < stack + 2 * matrix

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

    def test_keeps_a_read_only_copy_of_the_values(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        matrix = gf.PairMatrix(("a", "b"), values, "dissimilarity")
        values[0, 1] = 5.0  # the caller's array stays writable
        assert matrix.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert not matrix.values.flags.writeable


class TestIlluminationInvariance:
    def test_recoding_scaled_image_preserves_similarity(self):
        from scipy.ndimage import gaussian_filter
        rng = np.random.default_rng(7)
        bank = gf.FilterBank()
        size = 96

        def code(pixels):
            return np.array([gf.compute_jet(pixels, bank, p) for p in rng_points])

        rng_points = [tuple(p) for p in rng.uniform(10, size - 10, (NODE_COUNT, 2))]
        pa = 128 + 60 * gaussian_filter(rng.standard_normal((size, size)), 2)
        pb = 128 + 60 * gaussian_filter(rng.standard_normal((size, size)), 2)
        a = code(pa)
        b = code(pb)
        base = gabor_image_similarity(a, b)
        for c in (0.5, 2.0, 10.0):
            b_scaled = code(c * pb)
            assert gabor_image_similarity(a, b_scaled) == pytest.approx(
                base, abs=1e-9)


class TestPairMatrixSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, (3, 3))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        m = gf.PairMatrix(("a", "b", "c"), vals, "dissimilarity")
        back = gf.PairMatrix.from_document(json.loads(json.dumps(matrix_document(m))))
        assert back.item_ids == m.item_ids
        assert back.kind == m.kind
        np.testing.assert_array_equal(back.values, m.values)

    def test_csv_has_header_row_and_column(self):
        m = gf.PairMatrix(("a", "b"), np.array([[0.0, 0.1 + 0.2], [0.1 + 0.2, 0.0]]),
                          "dissimilarity")
        assert matrix_csv(m) == (",a,b\na,0.0,0.30000000000000004\n"
                                 "b,0.30000000000000004,0.0\n")

    @pytest.mark.parametrize("values", [[[0.0, 1.0], [1.0]], [[0.0, "x"], ["x", 0.0]],
                                        "", [None, [1.0, 0.0]],
                                        [[0.0, math.inf], [math.inf, 0.0]],
                                        [[0.0, math.nan], [math.nan, 0.0]]])
    def test_from_json_ill_formed_values(self, values):
        doc = {"kind": "dissimilarity", "item_ids": ["a", "b"], "values": values}
        with pytest.raises(FormatError):
            gf.PairMatrix.from_document(doc)

    def test_text_of_210_items_keeps_a_quarter_of_the_cell_strings(self):
        # a string right of the diagonal is freed once its mirror below the
        # diagonal is written, so at most the ~n^2/4 strings of the upper
        # right block between rows are held at once, not all ~n^2/2 of the
        # upper triangle: the bound sits between the two, at 3n^2/8
        n = 210
        rng = np.random.default_rng(n)
        values = rng.uniform(0, 1, (n, n))
        values = (values + values.T) / 2
        np.fill_diagonal(values, 0.0)
        m = gf.PairMatrix(tuple(f"i{k:03d}" for k in range(n)), values, "dissimilarity")
        cell = sys.getsizeof(repr(float(values[0, 1]))) + 8  # a string, its list slot
        assert traced_peak(lambda: collections.deque(m.text_chunks(), maxlen=0)) \
            < 3 * n * n // 8 * cell

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
