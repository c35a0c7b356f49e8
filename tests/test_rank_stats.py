import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gaborface as gf
from gaborface.errors import ParameterError, RuntimeFailure
from gaborface import rank_stats
from gaborface.rank_stats import matrix_series
from oracles import mantel_per_draw

CONSTANT_SERIES = "constant series has no rank correlation"


def oracle_midranks(values):
    """Exact midranks via pairwise counting, in Fractions."""
    n = len(values)
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        # midrank = mean of ranks less+1 .. less+equal
        ranks.append(Fraction(2 * less + equal + 1, 2))
    assert sum(ranks) == Fraction(n * (n + 1), 2)
    return ranks


def oracle_spearman(x, y):
    """Exact Pearson correlation of midranks, in Fractions (then float)."""
    rx = oracle_midranks(list(x))
    ry = oracle_midranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return float(cov) / math.sqrt(float(vx) * float(vy))


class TestAverageRanks:
    def test_strictly_increasing(self):
        np.testing.assert_array_equal(gf.average_ranks([10, 20, 30]), [1, 2, 3])

    def test_one_tie_pair(self):
        np.testing.assert_array_equal(gf.average_ranks([5, 5]), [1.5, 1.5])

    def test_hand_enumerated_midranks(self):
        np.testing.assert_array_equal(gf.average_ranks([7, 3, 7, 1]),
                                      [3.5, 2, 3.5, 1])

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.integers(0, 5, size=rng.integers(1, 30)).astype(float)
            ranks = gf.average_ranks(vals)
            n = vals.size
            assert ranks.sum() == pytest.approx(n * (n + 1) / 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            gf.average_ranks([1.0, float("nan")])

    def test_empty_array_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            gf.average_ranks([])

    def test_two_dimensional_array_rejected(self):
        with pytest.raises(ParameterError, match="1-d array"):
            gf.average_ranks([[3, 1], [2, 4]])

    def test_bit_identical_to_run_scan(self):
        def scanned(values):
            order = np.argsort(values, kind="stable")
            ranks = np.empty(values.size)
            i = 0
            while i < values.size:
                j = i
                while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
                    j += 1
                ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(5)
        for _ in range(200):
            vals = rng.integers(-3, 4, size=rng.integers(1, 60)) * rng.choice([1.0, 0.1])
            np.testing.assert_array_equal(gf.average_ranks(vals), scanned(vals))


class TestSpearmanRho:
    def test_perfect_concordance(self):
        x = np.arange(10.0)
        assert gf.spearman_rho(x, np.exp(x)) == pytest.approx(1.0)

    def test_perfect_discordance(self):
        x = np.arange(10.0)
        assert gf.spearman_rho(x, -x) == pytest.approx(-1.0)

    def test_constant_series_raises(self):
        with pytest.raises(RuntimeFailure, match=CONSTANT_SERIES):
            gf.spearman_rho([1, 1, 1, 1], [1, 2, 3, 4])

    def test_series_of_unequal_lengths_rejected(self):
        with pytest.raises(ParameterError, match="series lengths differ: 3 vs 2"):
            gf.spearman_rho([1, 2, 3], [1, 2])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = rng.integers(3, 9)
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            expected = oracle_spearman(x, y)
            if expected is None:
                with pytest.raises(RuntimeFailure, match=CONSTANT_SERIES):
                    gf.spearman_rho(x, y)
            else:
                assert gf.spearman_rho(x, y) == pytest.approx(
                    expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        rho = gf.spearman_rho(x, y)
        for transform in (lambda v: 3.0 * v + 1.0, lambda v: v ** 3, np.exp):
            assert gf.spearman_rho(transform(x), y) == pytest.approx(
                rho, abs=1e-12)
            assert gf.spearman_rho(x, transform(y)) == pytest.approx(
                rho, abs=1e-12)

    def test_symmetry_and_negation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert gf.spearman_rho(x, y) == gf.spearman_rho(y, x)
        assert gf.spearman_rho(x, -y) == pytest.approx(
            -gf.spearman_rho(x, y), abs=1e-14)


class TestCorrelationResult:
    @pytest.mark.parametrize("rho,p", [(3.0, 0.5), (-1.5, 0.5), (0.5, 7.5), (0.5, 0.0),
                                       (math.nan, 0.5), (0.5, math.nan)])
    def test_result_outside_its_range_rejected(self, rho, p):
        with pytest.raises(ParameterError, match=r"rho must lie in \[-1, 1\] and "
                                                 r"p_two_sided in \(0, 1\]"):
            rank_stats.CorrelationResult(rho, 10, p)

    def test_result_at_its_bounds_is_kept(self):
        for rho, p in [(-1.0, 1.0), (1.0, 1e-300)]:
            assert rank_stats.CorrelationResult(rho, 10, p).rho == rho


class TestSignificance:
    def test_permutation_agrees_with_t_on_null_data(self):
        # pair values drawn independently carry no item effects, so the
        # item-label null has the spread the t-approximation assumes
        from scipy import stats
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(66), rng.standard_normal(66)
        rho = gf.spearman_rho(x, y)
        p_t = 2 * stats.t.sf(abs(rho * np.sqrt(64 / (1 - rho * rho))), 64)
        [p_perm] = gf.significance(*item_ranks([x], y), 20_000, seed=9)
        assert abs(p_t - p_perm) < 0.02

    def test_permutation_deterministic_for_seed(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(28), rng.standard_normal(28)
        p1 = gf.significance(*item_ranks([x], y), 2000, seed=42)
        p2 = gf.significance(*item_ranks([x], y), 2000, seed=42)
        assert p1 == p2

    @pytest.mark.parametrize("permutations", [-5, -1, 0])
    def test_fewer_than_one_permutation_rejected(self, permutations):
        ranks = item_ranks([np.arange(10.0)], np.arange(10.0) % 3)
        with pytest.raises(ParameterError, match="permutations >= 1"):
            gf.significance(*ranks, permutations)

    @pytest.mark.parametrize("permutations", [2.5, "7", True, None])
    def test_non_integer_permutations_rejected(self, permutations):
        ranks = item_ranks([np.arange(10.0)], np.arange(10.0) % 3)
        with pytest.raises(ParameterError, match="permutations must be an integer"):
            gf.significance(*ranks, permutations)

    @pytest.mark.parametrize("m", [4, 5, 20, 189])
    def test_series_that_are_not_the_pairs_of_an_item_set_rejected(self, m):
        x_ranks = gf.average_ranks(np.arange(float(m)) % 3)[None]
        with pytest.raises(ParameterError, match="pairs of an item set"):
            gf.significance(x_ranks, x_ranks[0], 10)

    @pytest.mark.parametrize("y_ranks", [np.ones((5, 4))], ids=["not-square"])
    def test_rank_matrix_that_is_not_a_symmetric_item_matrix_rejected(self,
                                                                       y_ranks):
        # y_ranks is a series; any 2-D y_ranks is refused
        with pytest.raises(ParameterError, match="pairs of an item set"):
            gf.significance(np.ones((1, 10)), y_ranks, 10)

    def test_item_matrix_of_y_ranks_rejected(self):
        # the symmetric k x k matrix that once carried y is refused, also
        # where its k * k cells number the pairs of another item set: 6 * 6
        # cells, the 36 pairs of 9 items
        matrix = np.array(pair_matrix(gf.average_ranks(np.arange(15.0) % 4).tolist()))
        for pairs in (15, 36):
            x_ranks = gf.average_ranks(np.arange(float(pairs)))[None]
            with pytest.raises(ParameterError, match="pairs of an item set"):
                gf.significance(x_ranks, matrix, 10)

    def test_series_of_another_item_set_rejected(self):
        # x over the 10 pairs of 5 items, y over the 15 pairs of 6
        x_ranks, y_ranks = item_ranks([np.arange(10.0)], np.arange(15.0) % 4)
        with pytest.raises(ParameterError, match="pairs of an item set"):
            gf.significance(x_ranks, y_ranks, 10)

    def test_permutation_test_of_fewer_than_four_pairs_rejected(self):
        # 3 items have 3 pairs
        with pytest.raises(ParameterError, match="n >= 4"):
            gf.significance(*item_ranks([[1.0, 2.0, 3.0]], [3.0, 1.0, 2.0]), 10)

    @pytest.mark.parametrize("constant", ["x", "y"])
    def test_permutation_test_of_a_constant_series_rejected(self, constant):
        x, y = np.arange(10.0), np.arange(10.0) % 4
        if constant == "x":
            x = np.ones(10)
        else:
            y = np.ones(10)
        with pytest.raises(RuntimeFailure, match=CONSTANT_SERIES):
            gf.significance(*item_ranks([x], y), 10)

    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_permutation_test_of_non_finite_ranks_rejected(self, where, value):
        x_ranks, y_ranks = item_ranks([np.arange(10.0)], np.arange(10.0) % 4)
        if where == "x":
            x_ranks[0, 3] = value
        else:
            y_ranks[3] = value
        with pytest.raises(ParameterError, match="must be finite"):
            gf.significance(x_ranks, y_ranks, 99)


def item_count(m):
    """k, for m = k(k-1)/2 pair values."""
    k = round((1 + math.sqrt(1 + 8 * m)) / 2)
    assert k * (k - 1) // 2 == m
    return k


def pair_matrix(values):
    """The symmetric item matrix whose canonical pairs hold `values`."""
    k = item_count(len(values))
    matrix = [[0.0] * k for _ in range(k)]
    pairs = ((i, j) for i in range(k) for j in range(i + 1, k))
    for (i, j), v in zip(pairs, values):
        matrix[i][j] = matrix[j][i] = v
    return matrix


def item_ranks(xs, y):
    """significance's permutation-test inputs for the series `xs` against
    `y`, pair values over the canonical pairs of one item set: the midranks
    of each x, one row each, and the midranks of y."""
    return np.array([gf.average_ranks(x) for x in xs]), gf.average_ranks(y)


def relabelled(matrix, labels):
    """The canonical pair values of the items relabelled by `labels`:
    pair (i, j) takes the value of pair (labels[i], labels[j])."""
    k = len(labels)
    return [matrix[labels[i]][labels[j]] for i in range(k) for j in range(i + 1, k)]


def reference_relabel_hits(rho, x, y, permutations, seed):
    """Brute-force item-label permutation test of one series: per draw,
    rng.permutation of the item labels, the y pair values relabelled one
    by one, then the rank correlation from scratch."""
    y = pair_matrix(np.asarray(y, float).tolist())
    rx = gf.average_ranks(x)
    rng = np.random.default_rng(seed)
    threshold = abs(rho) - 1e-12
    hits = 0
    for _ in range(permutations):
        ry = gf.average_ranks(relabelled(y, rng.permutation(len(y)).tolist()))
        a = rx - rx.mean()
        b = ry - ry.mean()
        if abs(np.dot(a, b) / np.sqrt(np.sum(a * a) * np.sum(b * b))) >= threshold:
            hits += 1
    return hits


def shared_stream_hits(xs, y, permutations, seed):
    ps = gf.significance(*item_ranks(xs, y), permutations, seed=seed)
    return [round(p * (permutations + 1)) - 1 for p in ps]


class TestSharedPermutationStream:
    """significance scores every series against one stream of item
    relabellings of the shared y; each must keep the hits of the
    brute-force per-series loop."""

    def check_against_reference(self, xs, y, permutations=1000, seed=7):
        rhos = [gf.spearman_rho(x, y) for x in xs]
        expected = [reference_relabel_hits(r, x, y, permutations, seed)
                    for r, x in zip(rhos, xs)]
        assert shared_stream_hits(xs, y, permutations, seed) == expected
        return expected

    def test_random_series(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(300)
        xs = [0.3 * y + rng.standard_normal(300), rng.standard_normal(300)]
        # seed 8: a pair shuffle's hits differ from the relabelling's here
        hits = self.check_against_reference(xs, y, seed=8)
        assert hits[0] < 10 < hits[1]

    def test_tied_series(self):
        # few distinct values: many permuted rhos equal the observed one
        rng = np.random.default_rng(12)
        for _ in range(5):
            y = rng.integers(0, 3, 15).astype(float)
            xs = [rng.integers(0, 2, 15).astype(float),
                  rng.integers(0, 4, 15).astype(float)]
            if min(np.ptp(v) for v in xs + [y]) == 0:
                continue
            self.check_against_reference(xs, y, permutations=500)

    def test_near_null_series(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(2016)
        x = rng.standard_normal(2016)
        [hits] = self.check_against_reference([x], y, permutations=300)
        assert hits > 150

    def test_two_series_in_one_call_equal_each_alone(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(190)
        xs = [0.2 * y + rng.standard_normal(190), rng.integers(0, 5, 190)]
        together = gf.significance(*item_ranks(xs, y), 800, seed=3)
        alone = [gf.significance(*item_ranks([x], y), 800, seed=3)[0] for x in xs]
        assert together == alone

    def test_one_rho_per_series(self):
        ranks = item_ranks([np.arange(10.0)], np.arange(10.0) % 4)
        with pytest.raises(ParameterError, match="one rho per series"):
            gf.significance(np.empty((0, 10)), ranks[1], 10)


class TestChunkedDraws:
    """significance draws and scores its relabellings a chunk at a time; its
    p-values must be those of one rng.permutation and one score per draw."""

    @pytest.mark.parametrize("items", [4, 21, 210])
    @pytest.mark.parametrize("draws", ["one", "default", "chunk-and-one"])
    def test_p_values_equal_the_per_draw_loop(self, items, draws):
        from scipy.spatial.distance import pdist
        chunk = rank_stats.CHUNK_PAIR_DRAWS // (items * (items - 1) // 2)
        permutations = {"one": 1, "default": rank_stats.DEFAULT_PERMUTATIONS,
                        "chunk-and-one": chunk + 1}[draws]
        rng = np.random.default_rng(items)
        y = pdist(rng.standard_normal((items, 3)))
        # a weak, a tied and an unrelated series
        xs = [0.2 * y + pdist(rng.standard_normal((items, 3))), np.round(2 * y),
              pdist(rng.standard_normal((items, 3)))]
        ranks = item_ranks(xs, y)
        assert (gf.significance(*ranks, permutations, seed=items)
                == mantel_per_draw(*ranks, permutations, seed=items))

    def test_a_chunk_holds_two_pair_by_draw_buffers(self):
        # a chunk holds two pairs x draws buffers: the cell indices, and the
        # permuted ranks, whose memory first holds the column labels.  The
        # rest (the items x draws labels, and the last chunk's smaller
        # buffers before the full ones go) stays under a third; with its own
        # column-label buffer a chunk peaks at ~3.5 buffers.
        from scipy.spatial.distance import pdist
        items, permutations = 21, rank_stats.DEFAULT_PERMUTATIONS
        m = items * (items - 1) // 2
        buffer = m * (rank_stats.CHUNK_PAIR_DRAWS // m) * 8  # 312 draws of 210
        rng = np.random.default_rng(items)
        ranks = item_ranks([pdist(rng.standard_normal((items, 3)))],
                           pdist(rng.standard_normal((items, 3))))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gf.significance(*ranks, permutations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - held < 3 * buffer


class TestItemLabelNull:
    """The permutation test's null: the items are exchangeable, not the
    pairs (Mantel 1967)."""

    def test_null_rejection_rate_holds_alpha(self):
        # 300 null studies: the distances among 21 items in two unrelated
        # random 6-d configurations.  Pairs that share an item are
        # dependent, so a pair shuffle rejects ~21% of them at .05; the
        # item-label null must stay near 5% (binomial sd 1.3%).
        from scipy.spatial.distance import pdist
        rng = np.random.default_rng(2024)
        rejected = 0
        for study in range(300):
            x = pdist(rng.standard_normal((21, 6)))
            y = pdist(rng.standard_normal((21, 6)))
            [p] = gf.significance(*item_ranks([x], y), 199, seed=study)
            rejected += p <= 0.05
        assert 0.01 <= rejected / 300 <= 0.09

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_p_matches_all_120_relabellings_of_5_items(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, 10).astype(float)  # ties included
        x = y + rng.integers(0, 3, 10)
        rho = gf.spearman_rho(x, y)
        observed = abs(oracle_spearman(x, y)) - 1e-12
        matrix = pair_matrix(y.tolist())
        extreme = sum(abs(oracle_spearman(x, relabelled(matrix, labels))) >= observed
                      for labels in itertools.permutations(range(5)))
        exact_p = extreme / 120
        assert 0 < extreme < 120
        draws = 20_000
        [p] = gf.significance(*item_ranks([x], y), draws, seed=seed)
        # the Monte Carlo p counts the observed labelling as one draw
        assert p == pytest.approx(exact_p, abs=4 * math.sqrt(0.25 / draws) + 1 / draws)
        # and the seeded draws are the brute-force relabelling's
        assert (shared_stream_hits([x], y, 1000, seed)
                == [reference_relabel_hits(rho, x, y, 1000, seed)])


def dissim_matrix(ids, values):
    return gf.PairMatrix(tuple(ids), values, "dissimilarity")


def matrix_from_pairs(ids, pair_values, kind="dissimilarity"):
    n = len(ids)
    vals = np.zeros((n, n))
    it = iter(pair_values)
    for i in range(n):
        for j in range(i + 1, n):
            vals[i, j] = vals[j, i] = next(it)
    if kind == "similarity":
        np.fill_diagonal(vals, 1.0)
    return gf.PairMatrix(tuple(ids), vals, kind)


class TestCorrelateModelWithRatings:
    def test_sign_alignment_gives_positive_rho(self):
        # model similarity = decreasing function of semantic dissimilarity
        rng = np.random.default_rng(0)
        ids = [f"i{k}" for k in range(6)]
        semantic_pairs = rng.uniform(0.5, 4.0, 15)
        model_pairs = 1.0 / (1.0 + semantic_pairs)  # similarity, reversed order
        model = matrix_from_pairs(ids, model_pairs, "similarity")
        semantic = matrix_from_pairs(ids, semantic_pairs)
        [result] = gf.correlate_model_with_ratings([model], semantic)
        assert result.rho == pytest.approx(1.0)
        assert result.to_document()["method"] == "permutation"
        assert result.n == 15

    def test_geometry_dissimilarity_used_as_is(self):
        rng = np.random.default_rng(1)
        ids = [f"i{k}" for k in range(6)]
        semantic_pairs = rng.uniform(0.5, 4.0, 15)
        model = matrix_from_pairs(ids, 2.0 * semantic_pairs)
        semantic = matrix_from_pairs(ids, semantic_pairs)
        [result] = gf.correlate_model_with_ratings([model], semantic)
        assert result.rho == pytest.approx(1.0)

    def test_orthogonal_construction_near_zero(self):
        # constructed permutation with (close to) zero rank correlation,
        # verified against the brute-force oracle
        ids = [f"i{k}" for k in range(5)]
        x = np.array([1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        y = np.array([5.0, 10, 1, 7, 3, 9, 2, 8, 4, 6])
        model = matrix_from_pairs(ids, x)
        semantic = matrix_from_pairs(ids, y)
        [result] = gf.correlate_model_with_ratings([model], semantic)
        assert result.rho == pytest.approx(oracle_spearman(x, y), abs=1e-12)
        assert abs(result.rho) < 0.15

    def test_item_set_mismatch(self):
        ids1 = ["a", "b", "c"]
        ids2 = ["a", "b", "d"]
        vals = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0.0]])
        with pytest.raises(ParameterError,
                           match=r"item sets differ; unmatched ids: \['c', 'd'\]"):
            gf.correlate_model_with_ratings([dissim_matrix(ids1, vals)],
                                            dissim_matrix(ids2, vals))

    def test_canonical_order_independent_of_matrix_order(self):
        rng = np.random.default_rng(2)
        ids = ["d", "a", "c", "b"]
        vals = rng.uniform(1, 3, (4, 4))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        m1 = dissim_matrix(ids, vals)
        perm = [1, 3, 2, 0]  # a, b, c, d
        m2 = dissim_matrix([ids[i] for i in perm], vals[np.ix_(perm, perm)])
        np.testing.assert_array_equal(matrix_series(m1), matrix_series(m2))

    def test_matrix_series_matches_per_pair_lookup(self):
        rng = np.random.default_rng(4)
        ids = [f"img{k:02d}" for k in rng.permutation(30)]
        vals = rng.uniform(0, 1, (30, 30))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        values = matrix_series(dissim_matrix(ids, vals))
        index = {item_id: i for i, item_id in enumerate(ids)}
        # canonical order: the id pairs (a, b), a < b, in lexicographic order
        expected = [vals[index[a], index[b]]
                    for a, b in itertools.combinations(sorted(ids), 2)]
        np.testing.assert_array_equal(values, expected)

    def test_permutation_method_recorded(self):
        rng = np.random.default_rng(3)
        ids = [f"i{k}" for k in range(6)]
        model = matrix_from_pairs(ids, rng.uniform(0, 1, 15))
        semantic = matrix_from_pairs(ids, rng.uniform(0, 1, 15))
        [result] = gf.correlate_model_with_ratings([model], semantic,
                                                   permutations=500, seed=1)
        assert result.to_document()["method"] == "permutation"
        assert gf.CorrelationResult.from_document(result.to_document()) == result
        assert 0.0 < result.p_two_sided <= 1.0

    def test_one_result_per_model_each_as_if_alone(self):
        rng = np.random.default_rng(5)
        ids = [f"i{k}" for k in range(8)]
        semantic = matrix_from_pairs(ids, rng.uniform(0, 1, 28))
        models = [matrix_from_pairs(ids, rng.uniform(0, 1, 28), "similarity"),
                  matrix_from_pairs(ids, rng.uniform(0, 1, 28))]
        for draws in ({}, {"permutations": 300}):  # the default, and 300
            together = gf.correlate_model_with_ratings(models, semantic, seed=2, **draws)
            alone = [gf.correlate_model_with_ratings([m], semantic, seed=2, **draws)[0]
                     for m in models]
            assert together == alone

    def test_item_set_mismatch_in_any_model(self):
        ids = [f"i{k}" for k in range(4)]
        semantic = matrix_from_pairs(ids, np.arange(1.0, 7.0))
        other = matrix_from_pairs(ids[:3] + ["x"], np.arange(1.0, 7.0))
        with pytest.raises(ParameterError,
                           match=r"item sets differ; unmatched ids: \['i3', 'x'\]"):
            gf.correlate_model_with_ratings([semantic, other], semantic,
                                            permutations=10)

    def test_each_matrix_is_ranked_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        ids = [f"i{k}" for k in range(7)]
        semantic = matrix_from_pairs(ids, rng.uniform(0, 1, 21))
        models = [matrix_from_pairs(ids, rng.uniform(0, 1, 21), "similarity"),
                  matrix_from_pairs(ids, rng.uniform(0, 1, 21))]
        calls = []
        average_ranks = rank_stats.average_ranks

        def counted(values):
            calls.append(len(values))
            return average_ranks(values)

        monkeypatch.setattr(rank_stats, "average_ranks", counted)
        for draws in ({}, {"permutations": 50}):
            calls.clear()
            gf.correlate_model_with_ratings(models, semantic, **draws)
            assert calls == [21, 21, 21]


def pinned_case():
    """30 items in shuffled id order, semantic distances of integer ratings
    (6 distinct values over 435 pairs, so many ties), a similarity-kind and
    a dissimilarity-kind model, both weakly related to them."""
    rng = np.random.default_rng(2613)
    n = 30
    ids = tuple(f"img{k:02d}" for k in rng.permutation(n))
    ratings = rng.integers(1, 4, (n, 2)).astype(float)
    semantic = np.sqrt(((ratings[:, None] - ratings[None]) ** 2).sum(-1))
    noise = rng.standard_normal((n, n))
    noise = noise + noise.T
    similarity = 1.0 / (1.0 + 0.15 * semantic + noise ** 2)
    np.fill_diagonal(similarity, 1.0)
    dissimilarity = np.abs(0.3 * semantic + 2.0 * noise)
    np.fill_diagonal(dissimilarity, 0.0)
    return ([gf.PairMatrix(ids, similarity, "similarity"),
             gf.PairMatrix(ids, dissimilarity, "dissimilarity")],
            gf.PairMatrix(ids, semantic, "dissimilarity"))


@pytest.mark.parametrize("draws,expected", [
    ({}, [(0.11533316316226472, 0.017), (0.021349744459352348, 0.638)]),
    ({"permutations": 500}, [(0.11533316316226472, 0.011976047904191617),
                             (0.021349744459352348, 0.654690618762475)]),
], ids=["default-permutations", "permutations"])
def test_correlate_numbers_are_pinned(draws, expected):
    # the literals are the repr floats of earlier implementations, which
    # ranked PairedSeries built from the pair labels or drew one relabelling
    # at a time; every bit must hold
    models, semantic = pinned_case()
    assert len(np.unique(matrix_series(semantic))) == 6
    results = gf.correlate_model_with_ratings(models, semantic, seed=5, **draws)
    assert [(r.rho, r.p_two_sided) for r in results] == expected
    assert [r.n for r in results] == [435, 435]
