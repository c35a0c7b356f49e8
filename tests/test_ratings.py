import numpy as np
import pytest

import gaborface as gf
from gaborface.errors import DimensionError, FormatError, ParameterError
from gaborface.ratings import dump_ratings, semantic_matrix

SIX = "image_id,happiness,sadness,surprise,anger,disgust,fear"


class TestLoadRatings:
    def test_six_column_table(self):
        table = "\n".join([
            SIX,
            "a,1.0,2.0,3.0,4.0,5.0,1.5",
            "b,2.5,2.5,2.5,2.5,2.5,2.5",
            "c,1.0,1.0,1.0,1.0,1.0,1.0",
        ])
        vectors = gf.load_ratings(table)
        assert len(vectors) == 3
        assert all(len(v.adjectives) == 6 for v in vectors)
        assert vectors[0].image_id == "a"
        np.testing.assert_array_equal(vectors[0].values, [1, 2, 3, 4, 5, 1.5])

    def test_five_column_table(self):
        table = "image_id,happiness,sadness,surprise,anger,disgust\na,1,2,3,4,5\n"
        vectors = gf.load_ratings(table)
        assert len(vectors[0].adjectives) == 5

    def test_out_of_range_value_locates_cell(self):
        table = SIX + "\na,1,2,3,4,5,1\nb,1,2,5.7,4,5,1\n"
        with pytest.raises(FormatError, match="row 3, column 4"):
            gf.load_ratings(table)

    def test_non_numeric_cell(self):
        table = SIX + "\na,1,2,x,4,5,1\n"
        with pytest.raises(FormatError, match="row 2, column 4"):
            gf.load_ratings(table)

    def test_inconsistent_column_count(self):
        table = SIX + "\na,1,2,3,4,5\n"
        with pytest.raises(FormatError, match="row 2"):
            gf.load_ratings(table)

    def test_wrong_adjective_count(self):
        with pytest.raises(FormatError):
            gf.load_ratings("image_id,happy\na,3\n")

    def test_repeated_image_id(self):
        table = SIX + "\na,1,2,3,4,5,1\nb,1,1,1,1,1,1\na,5,5,5,5,5,5\n"
        with pytest.raises(FormatError, match="row 4.*'a'"):
            gf.load_ratings(table)

    def test_missing_image_id_header(self):
        with pytest.raises(FormatError):
            gf.load_ratings("id,a,b,c,d,e\nx,1,2,3,4,5\n")

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        rows = [SIX]
        for i in range(4):
            vals = rng.uniform(1, 5, 6)
            rows.append(f"im{i}," + ",".join(repr(float(v)) for v in vals))
        table = "\n".join(rows) + "\n"
        vectors = gf.load_ratings(table)
        assert dump_ratings(vectors) == table
        again = gf.load_ratings(dump_ratings(vectors))
        for v1, v2 in zip(vectors, again):
            np.testing.assert_array_equal(v1.values, v2.values)


def semantic_distances(*vectors):
    return semantic_matrix(list(vectors)).values


class TestSemanticDissimilarity:
    def vec(self, image_id, values, adjectives=("h", "s", "u", "a", "d")):
        return gf.RatingVector(image_id, adjectives, np.asarray(values, dtype=float))

    def test_identical_is_zero(self):
        a = self.vec("a", [1, 2, 3, 4, 5])
        b = self.vec("b", [1, 2, 3, 4, 5])
        assert semantic_distances(a, b)[0, 1] == 0.0

    def test_single_axis_difference(self):
        a = self.vec("a", [1, 3, 3, 3, 3])
        b = self.vec("b", [5, 3, 3, 3, 3])
        assert semantic_distances(a, b)[0, 1] == 4.0

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(1)
        a = self.vec("a", rng.uniform(1, 5, 5))
        b = self.vec("b", rng.uniform(1, 5, 5))
        expected = sum((x - y) ** 2 for x, y in zip(a.values, b.values)) ** 0.5
        assert semantic_distances(a, b)[0, 1] == pytest.approx(expected, rel=1e-15)

    def test_adjective_mismatch(self):
        a = self.vec("a", [1, 2, 3, 4, 5])
        b = self.vec("b", [1, 2, 3, 4, 5], adjectives=("x", "s", "u", "a", "d"))
        with pytest.raises(DimensionError):
            semantic_matrix([a, b])

    def test_metric_properties_on_sampled_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = semantic_distances(*(self.vec(n, rng.uniform(1, 5, 5)) for n in "abc"))
            assert d[0, 1] == d[1, 0]
            assert d[0, 1] >= 0.0
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


class TestRatingVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            gf.RatingVector("a", ("h", "s", "u", "a", "d"),
                            np.array([0.5, 3, 3, 3, 3]))

    def test_rejects_bad_length(self):
        with pytest.raises(ParameterError):
            gf.RatingVector("a", ("h", "s"), np.array([3.0, 3.0]))


class TestSemanticMatrix:
    def test_matches_pairwise_recomputation(self):
        rng = np.random.default_rng(3)
        vectors = [gf.RatingVector(f"i{k}", ("h", "s", "u", "a", "d"),
                                   rng.uniform(1, 5, 5)) for k in range(4)]
        m = semantic_matrix(vectors)
        assert m.kind == "dissimilarity"
        for i in range(4):
            for j in range(4):
                expected = np.sqrt(np.sum((vectors[i].values - vectors[j].values) ** 2))
                assert m.values[i, j] == pytest.approx(expected, rel=1e-14)
