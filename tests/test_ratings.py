import numpy as np
import pytest

import gaborface as gf
from gaborface.errors import FormatError, ValidationError
from gaborface.ratings import RatingTable, semantic_matrix
from oracles import dump_ratings

SIX = "image_id,happiness,sadness,surprise,anger,disgust,fear"


class TestLoadRatings:
    def test_six_column_table(self):
        table = "\n".join([
            SIX,
            "a,1.0,2.0,3.0,4.0,5.0,1.5",
            "b,2.5,2.5,2.5,2.5,2.5,2.5",
            "c,1.0,1.0,1.0,1.0,1.0,1.0",
        ])
        ratings = gf.load_ratings(table)
        assert ratings.image_ids == ("a", "b", "c")
        assert len(ratings.adjectives) == 6
        assert ratings.values.shape == (3, 6)
        np.testing.assert_array_equal(ratings.values[0], [1, 2, 3, 4, 5, 1.5])

    def test_five_column_table(self):
        table = "image_id,happiness,sadness,surprise,anger,disgust\na,1,2,3,4,5\n"
        assert len(gf.load_ratings(table).adjectives) == 5

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

    @pytest.mark.parametrize("header,column", [
        ("image_id,fear,fear,b,c,d", "column 3: adjective 'fear'"),
        ("image_id,a,,b,c,d", "column 3: adjective ''"),
    ], ids=["repeated", "empty"])
    def test_repeated_or_empty_adjective(self, header, column):
        # a second fear column would survive no_fear, which drops the first
        with pytest.raises(FormatError, match=column):
            gf.load_ratings(header + "\na,1,2,3,4,5\n")

    def test_spaces_around_header_cells_dropped(self):
        # else no_fear looks for "fear", finds " fear" and keeps the column
        table = gf.load_ratings(
            "image_id, happiness, sadness, surprise, anger, disgust, fear\n"
            "a,1,2,3,4,5,1\n")
        assert table.adjectives == tuple(SIX.split(",")[1:])

    def test_missing_image_id_header(self):
        with pytest.raises(FormatError):
            gf.load_ratings("id,a,b,c,d,e\nx,1,2,3,4,5\n")

    def test_byte_order_mark_dropped(self):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        table = gf.load_ratings("\ufeffimage_id,a,b,c,d,e\nx,1,2,3,4,5\n")
        assert table.image_ids == ("x",) and table.adjectives == tuple("abcde")
        # only one: a second mark is part of the header's first cell
        with pytest.raises(FormatError, match="first column must be image_id"):
            gf.load_ratings("\ufeff\ufeffimage_id,a,b,c,d,e\nx,1,2,3,4,5\n")

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        rows = [SIX]
        for i in range(4):
            vals = rng.uniform(1, 5, 6)
            rows.append(f"im{i}," + ",".join(repr(float(v)) for v in vals))
        table = "\n".join(rows) + "\n"
        ratings = gf.load_ratings(table)
        assert dump_ratings(ratings) == table
        again = gf.load_ratings(dump_ratings(ratings))
        np.testing.assert_array_equal(ratings.values, again.values)


def semantic_distances(*rows):
    ids = [f"v{i}" for i in range(len(rows))]
    table = RatingTable(tuple(ids), ("h", "s", "u", "a", "d"), np.array(rows))
    return semantic_matrix(table, ids).values


class TestSemanticDissimilarity:
    def test_identical_is_zero(self):
        assert semantic_distances([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])[0, 1] == 0.0

    def test_single_axis_difference(self):
        assert semantic_distances([1, 3, 3, 3, 3], [5, 3, 3, 3, 3])[0, 1] == 4.0

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(1, 5, 5)
        b = rng.uniform(1, 5, 5)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5
        assert semantic_distances(a, b)[0, 1] == pytest.approx(expected, rel=1e-15)

    def test_metric_properties_on_sampled_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = semantic_distances(*rng.uniform(1, 5, (3, 5)))
            assert d[0, 1] == d[1, 0]
            assert d[0, 1] >= 0.0
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


class TestSemanticMatrix:
    def test_matches_pairwise_recomputation(self):
        rng = np.random.default_rng(3)
        table = RatingTable(tuple(f"i{k}" for k in range(4)), ("h", "s", "u", "a", "d"),
                            rng.uniform(1, 5, (4, 5)))
        m = semantic_matrix(table, table.image_ids)
        assert m.kind == "dissimilarity"
        for i in range(4):
            for j in range(4):
                expected = np.sqrt(np.sum((table.values[i] - table.values[j]) ** 2))
                assert m.values[i, j] == pytest.approx(expected, rel=1e-14)

    def test_picks_the_rows_of_ids_in_their_order(self):
        table = gf.load_ratings(SIX + "\na,1,1,1,1,1,1\nb,2,2,2,2,2,2\nc,4,4,4,4,4,4\n")
        m = semantic_matrix(table, ["c", "a"])
        assert m.item_ids == ("c", "a")
        assert m.values[0, 1] == pytest.approx(3.0 * np.sqrt(6))

    def test_missing_ratings_name_the_images(self):
        table = gf.load_ratings(SIX + "\na,1,1,1,1,1,1\nb,2,2,2,2,2,2\n")
        with pytest.raises(ValidationError, match=r"no ratings for \['x', 'y'\]"):
            semantic_matrix(table, ["a", "x", "b", "y"])
