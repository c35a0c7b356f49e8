import itertools
import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import gaborface as gf
from gaborface.cli import _read
from gaborface.errors import (
    AlignmentError,
    DegenerateConfigurationError,
    FormatError,
    ParameterError,
)
from gaborface.nmds import Disparities, _dissimilarity_order


def planted_matrix(rng, n, d, transform=None):
    pts = rng.uniform(-5, 5, (n, d))
    dist = squareform(pdist(pts))
    if transform is not None:
        dist = transform(dist)
        np.fill_diagonal(dist, 0.0)
    ids = tuple(f"p{i:02d}" for i in range(n))
    return gf.PairMatrix(ids, dist, "dissimilarity"), pts


def config_from_points(pts, ids=None):
    ids = ids or tuple(f"p{i:02d}" for i in range(len(pts)))
    return gf.Configuration(ids, np.asarray(pts, float), 0.0, 1.0, 0)


def oracle_isotonic(y):
    """Exhaustive least-squares monotone fit over all consecutive-block
    partitions (feasible for n <= 12)."""
    n = len(y)
    best = None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        means = [np.mean(y[a:b]) for a, b in zip(bounds, bounds[1:])]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fit = np.concatenate([np.full(b - a, m)
                              for (a, b), m in zip(zip(bounds, bounds[1:]), means)])
        sse = float(np.sum((fit - y) ** 2))
        if best is None or sse < best[0] - 1e-15:
            best = (sse, fit)
    return best[1]


class TestClassicalInit:
    def test_collinear_recovery(self):
        pts = np.array([[0.0], [2.0], [7.0]])
        dist = squareform(pdist(pts))
        m = gf.PairMatrix(("a", "b", "c"), dist, "dissimilarity")
        config = gf.classical_init(m, 1)
        got = pdist(config.coordinates)
        np.testing.assert_allclose(sorted(got), sorted(pdist(pts)), atol=1e-6)

    def test_all_zero_dissimilarity(self):
        m = gf.PairMatrix(("a", "b", "c"), np.zeros((3, 3)), "dissimilarity")
        config = gf.classical_init(m, 2)
        np.testing.assert_array_equal(config.coordinates, np.zeros((3, 2)))

    def test_planted_2d_recovery(self):
        m, pts = planted_matrix(np.random.default_rng(0), 12, 2)
        config = gf.classical_init(m, 2)
        np.testing.assert_allclose(pdist(config.coordinates), pdist(pts),
                                   rtol=1e-6)

    def test_deterministic_and_sign_fixed(self):
        m, _ = planted_matrix(np.random.default_rng(1), 8, 2)
        c1 = gf.classical_init(m, 2)
        c2 = gf.classical_init(m, 2)
        np.testing.assert_array_equal(c1.coordinates, c2.coordinates)
        for col in c1.coordinates.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_deficient_dimension_falls_back_flagged(self):
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])
        dist = squareform(pdist(pts))
        m = gf.PairMatrix(tuple("abcd"), dist, "dissimilarity")
        with pytest.warns(UserWarning, match="positive eigenvalues"):
            config = gf.classical_init(m, 3)
        assert config.coordinates.shape == (4, 3)

    def test_rejects_similarity_matrix(self):
        m = gf.PairMatrix(("a", "b"), np.ones((2, 2)), "similarity")
        with pytest.raises(ParameterError):
            gf.classical_init(m, 1)


class TestIsotonicFit:
    def test_already_monotone_unchanged(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        out = gf.isotonic_fit(d, np.arange(4))
        np.testing.assert_array_equal(out.values, d)

    def test_two_decreasing_pooled_to_mean(self):
        out = gf.isotonic_fit(np.array([3.0, 1.0]), np.arange(2))
        np.testing.assert_array_equal(out.values, [2.0, 2.0])

    def test_matches_exhaustive_partition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            y = rng.uniform(0, 10, n)
            order = rng.permutation(n)
            got = gf.isotonic_fit(y, order)
            np.testing.assert_allclose(got.values[order], oracle_isotonic(y[order]),
                                       atol=1e-9)

    def test_mean_preserved_and_monotone(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 5, 40)
        order = rng.permutation(40)
        out = gf.isotonic_fit(y, order)
        assert np.mean(out.values) == pytest.approx(np.mean(y), rel=1e-12)
        assert np.all(np.diff(out.values[order]) >= -1e-12)

    def test_bad_order_rejected(self):
        y = np.array([1.0, 2.0, 3.0])
        for order in ([0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1],
                      [0, 1, 10**15], [0.0, 1.0, 2.0], [[0, 1, 2]]):
            with pytest.raises(ParameterError):
                gf.isotonic_fit(y, np.array(order))


class TestStress1:
    def test_perfect_fit(self):
        d = np.array([1.0, 2.0, 3.0])
        assert gf.stress1(d, Disparities(d)) == 0.0

    def test_zero_disparities(self):
        d = np.array([1.0, 2.0, 3.0])
        assert gf.stress1(d, Disparities(np.zeros(3))) == 1.0

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.1, 5, 20)
        dh = rng.uniform(0.1, 5, 20)
        expected = math.sqrt(sum((a - b) ** 2 for a, b in zip(d, dh)) /
                             sum(a * a for a in d))
        assert gf.stress1(d, Disparities(dh)) == pytest.approx(expected, rel=1e-14)

    def test_all_zero_distances_degenerate(self):
        with pytest.raises(DegenerateConfigurationError):
            gf.stress1(np.zeros(3), Disparities(np.zeros(3)))


class TestEmbed:
    def test_planted_exact_distances(self):
        m, _ = planted_matrix(np.random.default_rng(5), 15, 2)
        history = []
        config = gf.embed(m, 2, on_iteration=lambda i, s: history.append(s))
        assert config.stress < 1e-3
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert np.allclose(config.coordinates.mean(axis=0), 0.0, atol=1e-9)

    def test_monotone_transform_recovery(self):
        m, _ = planted_matrix(np.random.default_rng(6), 20, 2,
                              transform=lambda d: d ** 2)
        config = gf.embed(m, 2)
        assert config.stress < 0.05

    def test_equilateral_four_points(self):
        vals = np.ones((4, 4)) - np.eye(4)
        m = gf.PairMatrix(tuple("abcd"), vals, "dissimilarity")
        with pytest.warns(UserWarning, match="degenerate"):
            config = gf.embed(m, 2)
        # all pairs equal: the init already is the (degenerate-flagged) answer
        assert config.coordinates.shape == (4, 2)

    def test_near_equilateral(self):
        rng = np.random.default_rng(7)
        vals = np.ones((4, 4)) - np.eye(4) + 1e-3 * rng.uniform(0, 1, (4, 4))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        m = gf.PairMatrix(tuple("abcd"), vals, "dissimilarity")
        config = gf.embed(m, 2)
        assert config.stress < 1e-3

    def test_invariance_under_increasing_transforms(self):
        # nonmetric solutions are unique only up to a monotone transform of
        # the embedded distances, so shapes agree approximately, not to
        # machine precision
        rng = np.random.default_rng(8)
        m, _ = planted_matrix(rng, 12, 2)
        base = gf.embed(m, 2, tolerance=1e-12, max_iterations=2000)
        for transform in (lambda d: 3.0 * d + 1.0, lambda d: d ** 1.5):
            vals = transform(m.values)
            np.fill_diagonal(vals, 0.0)
            m2 = gf.PairMatrix(m.item_ids, vals, "dissimilarity")
            other = gf.embed(m2, 2, tolerance=1e-12, max_iterations=2000)
            a, _ = gf.procrustes_align(other, base, allow_scaling=True)
            scale = np.linalg.norm(base.coordinates)
            residual = np.sqrt(np.mean(np.sum(
                (a.coordinates - base.coordinates) ** 2, axis=1))) / scale
            assert residual < 0.05

    def test_rsq_bounds_and_perfect_fit(self):
        m, _ = planted_matrix(np.random.default_rng(9), 10, 2)
        config = gf.embed(m, 2)
        assert 0.0 <= config.rsq <= 1.0
        if config.stress == 0.0:
            assert config.rsq == 1.0
        m2, _ = planted_matrix(np.random.default_rng(10), 10, 5)
        rough = gf.embed(m2, 1)
        assert 0.0 <= rough.rsq <= 1.0

    def test_dimension_bounds(self):
        m, _ = planted_matrix(np.random.default_rng(11), 5, 2)
        with pytest.raises(ParameterError):
            gf.embed(m, 0)
        with pytest.raises(ParameterError):
            gf.embed(m, 5)

    def test_scan_dimensions_stress_decreases(self):
        m, _ = planted_matrix(np.random.default_rng(12), 10, 3)
        rows = gf.scan_dimensions(m, 4)
        stresses = [s for _, s, _ in rows]
        assert stresses[2] <= stresses[0] + 1e-9

    @pytest.mark.parametrize("iterations", ["many", -1, True, 2.5, None])
    def test_configuration_rejects_bad_iterations(self, iterations):
        with pytest.raises(ParameterError, match="iterations"):
            gf.Configuration(("a", "b"), [[0.0], [1.0]], 0.0, 1.0, iterations)

    def test_configuration_rejects_ids_that_are_not_strings(self):
        with pytest.raises(ParameterError, match="must be strings"):
            gf.Configuration((["a"], "b"), [[0.0], [1.0]], 0.0, 1.0, 0)

    def test_json_round_trip(self):
        m, _ = planted_matrix(np.random.default_rng(13), 6, 2)
        config = gf.embed(m, 2)
        back = gf.Configuration.from_document(json.loads(json.dumps(
            config.to_document())))
        assert back.item_ids == config.item_ids
        np.testing.assert_array_equal(back.coordinates, config.coordinates)
        assert back.stress == config.stress

    def test_malformed_json_is_format_error(self, tmp_path):
        m, _ = planted_matrix(np.random.default_rng(13), 4, 2)
        text = json.dumps(gf.embed(m, 2).to_document())
        bad = [text[:end] for end in range(0, len(text), 7)]
        bad += ['[]', '{"item_ids": ["a"], "coordinates": [[1.0, 2.0], [3.0, 4.0]], '
                '"stress": 0, "rsq": 1, "iterations": 0}',
                '{"item_ids": ["a"], "coordinates": [["x", 2.0]], '
                '"stress": 0, "rsq": 1, "iterations": 0}',
                '{"item_ids": ["a"], "coordinates": [[NaN, 2.0]], '
                '"stress": 0, "rsq": 1, "iterations": 0}',
                '{"item_ids": ["a"], "coordinates": [[1.0, 2.0]], '
                '"stress": Infinity, "rsq": 1, "iterations": 0}']
        path = tmp_path / "embedding.json"
        for doc in bad:
            path.write_text(doc)
            with pytest.raises(FormatError):
                _read(path, gf.Configuration.from_document)


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def grid_search_residual(X, Y, allow_reflection=True, steps=3600):
    """Best RMS residual over rotations (optionally times reflection) and
    optimal translation."""
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    best = math.inf
    flips = [1.0, -1.0] if allow_reflection else [1.0]
    for flip in flips:
        F = np.diag([1.0, flip])
        for i in range(steps):
            R = rotation(2 * math.pi * i / steps)
            resid = math.sqrt(np.mean(np.sum((Xc @ F @ R.T - Yc) ** 2, axis=1)))
            best = min(best, resid)
    return best


class TestProcrustesAlign:
    def test_identity(self):
        rng = np.random.default_rng(0)
        c = config_from_points(rng.uniform(-3, 3, (6, 2)))
        aligned, residual = gf.procrustes_align(c, c)
        assert residual == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(aligned.coordinates, c.coordinates, atol=1e-12)

    def test_rotation_translation_recovered(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, (8, 2))
        moved = pts @ rotation(math.pi / 6).T + np.array([4.0, -2.5])
        _, residual = gf.procrustes_align(config_from_points(pts),
                                          config_from_points(moved))
        assert residual < 1e-9

    def test_reflection_only_when_permitted(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, (7, 2))
        reflected = pts @ np.diag([-1.0, 1.0])
        src = config_from_points(pts)
        tgt = config_from_points(reflected)
        _, with_refl = gf.procrustes_align(src, tgt, allow_reflection=True)
        assert with_refl < 1e-9
        _, without = gf.procrustes_align(src, tgt, allow_reflection=False)
        oracle = grid_search_residual(pts, reflected, allow_reflection=False)
        assert without <= oracle + 1e-9
        assert without == pytest.approx(oracle, rel=1e-3)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            X = rng.uniform(-3, 3, (6, 2))
            Y = rng.uniform(-3, 3, (6, 2))
            _, residual = gf.procrustes_align(config_from_points(X),
                                              config_from_points(Y))
            assert residual <= grid_search_residual(X, Y) + 1e-9

    def test_scaling_option(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-3, 3, (6, 2))
        scaled = 3.5 * pts @ rotation(1.0).T
        src = config_from_points(pts)
        tgt = config_from_points(scaled)
        _, without = gf.procrustes_align(src, tgt, allow_scaling=False)
        _, with_scale = gf.procrustes_align(src, tgt, allow_scaling=True)
        assert with_scale < 1e-9
        assert without > with_scale

    def test_underdetermined(self):
        c = config_from_points(np.zeros((3, 2)))
        with pytest.raises(DegenerateConfigurationError):
            gf.procrustes_align(c, c)

    def test_item_mismatch(self):
        rng = np.random.default_rng(5)
        a = config_from_points(rng.uniform(-1, 1, (4, 2)), tuple("abcd"))
        b = config_from_points(rng.uniform(-1, 1, (4, 2)), tuple("abce"))
        with pytest.raises(AlignmentError):
            gf.procrustes_align(a, b)


class TestTieHandling:
    def test_stable_order_for_ties(self):
        vals = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        m = gf.PairMatrix(("a", "b", "c"), vals, "dissimilarity")
        order = _dissimilarity_order(m)
        # pairs in squareform order: (a,b)=1, (a,c)=1, (b,c)=2; ties keep
        # their original relative order (stable sort)
        np.testing.assert_array_equal(order, [0, 1, 2])

    @pytest.mark.parametrize("seed", range(5))
    def test_stress_is_minimal_over_orders_within_tie_blocks(self, seed):
        # 10 pairs in four tie blocks (3, 3, 2, 2 pairs): 144 block orders
        rng = np.random.default_rng(seed)
        off_diag = rng.permutation([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
        ids = tuple("abcde")
        config = gf.embed(gf.PairMatrix(ids, squareform(off_diag), "dissimilarity"), 2)
        distances = pdist(config.coordinates)
        blocks = [np.flatnonzero(off_diag == v) for v in np.unique(off_diag)]
        best = min(
            gf.stress1(distances, gf.isotonic_fit(distances, np.concatenate(orders)))
            for orders in itertools.product(*(itertools.permutations(b)
                                              for b in blocks)))
        assert config.stress == pytest.approx(best, rel=1e-9, abs=1e-12)
