import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import gaborface as gf
from gaborface import nmds
from gaborface.cli import _read
from gaborface.errors import FormatError, ParameterError, RuntimeFailure
from gaborface.nmds import Disparities
from oracles import classical_start, traced_peak


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


def _start_case(points):
    dist = squareform(pdist(np.asarray(points, float)))
    return gf.PairMatrix(tuple(f"p{i:02d}" for i in range(len(dist))), dist,
                         "dissimilarity")


def _non_euclidean():
    vals = np.random.default_rng(30).uniform(1, 2, (30, 30))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, 0.0)
    return gf.PairMatrix(tuple(f"p{i:02d}" for i in range(30)), vals, "dissimilarity")


# (matrix, d) for the classical start: 16 items or more, so the block of
# d + 8 rows is a proper subspace, except the square's 4 corners, where it
# is all of it
START_CASES = {
    "planted": (lambda: _start_case(np.random.default_rng(5).uniform(-5, 5, (16, 3))), 2),
    "random-fill": (lambda: _start_case(np.random.default_rng(7).uniform(-5, 5, (16, 3))), 4),
    "collinear": (lambda: _start_case(np.random.default_rng(4).uniform(-5, 5, (16, 1))), 3),
    "zeros": (lambda: _start_case(np.zeros((16, 1))), 2),
    "square": (lambda: _start_case([[0, 0], [1, 0], [1, 1], [0, 1]]), 2),
    "polygon": (lambda: _start_case(np.column_stack([
        np.cos(np.arange(12) * np.pi / 6), np.sin(np.arange(12) * np.pi / 6)])), 2),
    "non-euclidean": (_non_euclidean, 3),
}


class TestClassicalInit:
    def test_collinear_recovery(self):
        pts = np.array([[0.0], [2.0], [7.0]])
        dist = squareform(pdist(pts))
        m = gf.PairMatrix(("a", "b", "c"), dist, "dissimilarity")
        coords = gf.classical_init(m, 1)
        got = pdist(coords)
        np.testing.assert_allclose(sorted(got), sorted(pdist(pts)), atol=1e-6)

    def test_all_zero_dissimilarity(self):
        m = gf.PairMatrix(("a", "b", "c"), np.zeros((3, 3)), "dissimilarity")
        coords = gf.classical_init(m, 2)
        np.testing.assert_array_equal(coords, np.zeros((3, 2)))

    def test_planted_2d_recovery(self):
        m, pts = planted_matrix(np.random.default_rng(0), 12, 2)
        coords = gf.classical_init(m, 2)
        np.testing.assert_allclose(pdist(coords), pdist(pts),
                                   rtol=1e-6)

    def test_deterministic_and_sign_fixed(self):
        m, _ = planted_matrix(np.random.default_rng(1), 8, 2)
        c1 = gf.classical_init(m, 2)
        c2 = gf.classical_init(m, 2)
        np.testing.assert_array_equal(c1, c2)
        for col in c1.T:
            assert col[np.argmax(np.abs(col))] > 0

    @pytest.mark.filterwarnings("ignore:only .* positive eigenvalues")
    @pytest.mark.parametrize("case", START_CASES)
    def test_equals_the_column_at_a_time_start(self, case):
        # the start against all eigenpairs of -1/2 J (D o D) J from eigh: the
        # same map up to rotations within a repeated eigenvalue, which the
        # square's corners and the regular 12-gon's vertices have
        build, d = START_CASES[case]
        m = build()
        coords = gf.classical_init(m, d, seed=5)
        np.testing.assert_allclose(pdist(coords), pdist(classical_start(m, d, seed=5)),
                                   rtol=0, atol=1e-12)
        for col in coords.T:
            # the sign rule, up to ties between the largest magnitudes
            assert col.max() >= -col.min() - 1e-12

    def test_dominant_negative_eigenvalues_do_not_hide_the_largest(self):
        # 15 eigenvalues near -10 outweigh the wanted 3, 2 and 1, more than
        # the block's 8 spare rows hold: the shift keeps them out
        rng = np.random.default_rng(15)
        n = 40
        vectors, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = np.zeros(n)
        values[:18] = [3.0, 2.0, 1.0, *(-10.0 - rng.uniform(0, 1, 15))]
        B = (vectors * values) @ vectors.T
        evals, evecs = nmds._leading_eigenpairs(B, 3)
        np.testing.assert_allclose(evals, [3.0, 2.0, 1.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(np.sum(evecs * vectors[:, :3].T, axis=1)),
                                   1.0, rtol=0, atol=1e-12)

    def test_deficient_dimension_falls_back_flagged(self):
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])
        dist = squareform(pdist(pts))
        m = gf.PairMatrix(tuple("abcd"), dist, "dissimilarity")
        with pytest.warns(UserWarning, match="positive eigenvalues"):
            coords = gf.classical_init(m, 3)
        assert coords.shape == (4, 3)

    def test_double_centring_at_210_items_holds_one_matrix(self):
        # D o D, centred in place into B; the subspace iteration's blocks
        # are (d + 8, n).  The GEMM form -J/2 (D o D) J held three
        n = 210
        m, _ = planted_matrix(np.random.default_rng(n), n, 3)
        matrix = n * n * 8
        assert traced_peak(lambda: gf.classical_init(m, 2)) < 1.5 * matrix

    def test_embed_bytes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a 210 x 210 matrix product or eigh between its
        # threads, and the split sums round differently.  The start makes
        # neither call, and the Guttman step's thin (n, n) @ (n, d) product
        # rounds alike on 1 and 2 threads, so the coordinates do too
        code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from scipy.spatial.distance import pdist, squareform
import gaborface as gf
points = np.random.default_rng(210).uniform(-5, 5, (210, 3))
m = gf.PairMatrix(tuple(f"p{i:03d}" for i in range(210)),
                  squareform(pdist(points) ** 1.5), "dissimilarity")
print(gf.embed(m, 2, max_iterations=20).coordinates.tobytes().hex())
"""
        src = str(Path(gf.__file__).parents[1])
        found = []
        for threads in ("1", "2"):
            env = {**os.environ, **dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
            out = subprocess.run([sys.executable, "-c", code, src], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            found.append(out.stdout)
        assert found[0] == found[1]

    def test_rejects_similarity_matrix(self):
        m = gf.PairMatrix(("a", "b", "c"), np.ones((3, 3)), "similarity")
        for start in (gf.classical_init, gf.embed):
            with pytest.raises(ParameterError, match="need a dissimilarity matrix"):
                start(m, 1)

    @pytest.mark.parametrize("tied", [False, True], ids=["exact-fit", "tied"])
    def test_embed_at_zero_iterations_is_the_start(self, tied):
        pts = np.random.default_rng(0).uniform(-1, 1, (12, 2))
        dist = squareform(pdist(pts))
        if tied:
            dist = np.round(2.0 * dist) / 2.0  # 66 pairs on 6 values
        m = gf.PairMatrix(tuple(f"p{i:02d}" for i in range(12)), dist,
                          "dissimilarity")
        start = gf.classical_init(m, 2)
        embedded = gf.embed(m, 2, max_iterations=0)
        assert embedded.iterations == 0
        # embed re-centres its result; the start is centred already
        np.testing.assert_allclose(embedded.coordinates, start, rtol=0, atol=1e-12)
        if not tied:
            assert (embedded.stress, embedded.rsq) == (0.0, 1.0)
        else:
            # Kruskal's primary approach: a tie block in start-distance order
            distances = pdist(start)
            fit = gf.isotonic_fit(distances, np.lexsort((distances, squareform(dist))))
            assert embedded.stress == gf.stress1(distances, fit)

    def test_embed_evaluates_its_start_once(self, monkeypatch):
        # one disparity fit for the start and one per Guttman step; the loop
        # ends at max_iterations, so it evaluates no rejected step
        fits = []
        fit = nmds.isotonic_fit
        monkeypatch.setattr(nmds, "isotonic_fit",
                            lambda *args: fits.append(args) or fit(*args))
        m, _ = planted_matrix(np.random.default_rng(6), 20, 2,
                              transform=lambda d: d ** 2)
        config = gf.embed(m, 2, max_iterations=5)
        assert config.iterations == 5
        assert len(fits) == config.iterations + 1


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

    def test_disparities_keep_a_read_only_copy_of_the_values(self):
        values = np.array([1.0, 2.0])
        disparities = Disparities(values)
        values[1] = 5.0  # the caller's array stays writable
        assert disparities.values.tolist() == [1.0, 2.0]
        assert not disparities.values.flags.writeable

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
        with pytest.raises(RuntimeFailure, match="all configuration distances are zero"):
            gf.stress1(np.zeros(3), Disparities(np.zeros(3)))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ParameterError, match="length mismatch: 3 vs 2"):
            gf.stress1(np.ones(3), np.ones(2))


class TestEmbed:
    def test_guttman_step_at_210_items_holds_one_matrix(self):
        # B = diag(W 1) - W is built in W's buffer, beside the half-matrix
        # of ratios W is spread from; B kept beside W made two matrices
        n = 210
        m, pts = planted_matrix(np.random.default_rng(n), n, 2,
                                transform=lambda d: d ** 1.5)
        evaluation = nmds._evaluator(squareform(m.values, checks=False))(pts)
        matrix = n * n * 8
        assert traced_peak(lambda: nmds._guttman_update(evaluation)) < 2 * matrix

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

    def test_matrix_of_zeros_fits_at_coincident_points(self):
        m = gf.PairMatrix(tuple("abcd"), np.zeros((4, 4)), "dissimilarity")
        with pytest.warns(UserWarning, match="degenerate"):
            config = gf.embed(m, 2)
        assert (config.stress, config.rsq, config.iterations) == (0.0, 1.0, 0)
        assert not np.any(config.coordinates)

    @pytest.mark.parametrize("update", [
        lambda evaluation: np.zeros_like(evaluation.coords),
        lambda evaluation: evaluation.coords[::-1],
    ], ids=["coincident", "reversed"])
    def test_rejected_first_step_returns_the_classical_start(self, monkeypatch, update):
        # coincident points are a collapse; the reversed points, here, an
        # uphill step: embed accepts neither
        rng = np.random.default_rng(3)
        vals = rng.uniform(1, 2, (6, 6))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        m = gf.PairMatrix(tuple("abcdef"), vals, "dissimilarity")
        monkeypatch.setattr(nmds, "_guttman_update", update)
        calls = []
        config = gf.embed(m, 2, on_iteration=lambda i, stress: calls.append(i))
        assert config.iterations == 0 and calls == [0]
        np.testing.assert_allclose(config.coordinates, gf.classical_init(m, 2),
                                   rtol=0, atol=1e-15)

    def test_disparities_pooled_into_one_block_have_rsq_zero(self):
        distances = np.array([1.0, 2.0, 3.0])
        disparities = np.full(3, 2.0)  # their mean: one pooled block
        evaluation = nmds._Evaluation(None, distances, disparities,
                                      gf.stress1(distances, disparities))
        assert nmds._diagnostics(evaluation) == (evaluation.stress, 0.0)

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

    @pytest.mark.parametrize("start", [gf.classical_init, gf.embed])
    @pytest.mark.parametrize("d", [2.0, True, "2", None])
    def test_non_integer_dimension_rejected(self, start, d):
        m, _ = planted_matrix(np.random.default_rng(11), 5, 2)
        with pytest.raises(ParameterError, match="d must be an integer"):
            start(m, d)

    @staticmethod
    def _loop_ran(iteration, stress):
        raise AssertionError("embed started its loop")

    @pytest.mark.parametrize("max_iterations", [-1, 2.5, None, True, "5"])
    def test_bad_iteration_cap_rejected(self, max_iterations):
        # -1, 2.5 and None never equal an iteration count, so they would
        # leave the loop uncapped: the test checks the raise, not the loop
        m, _ = planted_matrix(np.random.default_rng(11), 8, 2)
        with pytest.raises(ParameterError, match="max_iterations"):
            gf.embed(m, 2, max_iterations=max_iterations, on_iteration=self._loop_ran)

    @pytest.mark.parametrize("tolerance", [None, -1e-6, math.nan, math.inf, True, "0"])
    def test_bad_tolerance_rejected(self, tolerance):
        m, _ = planted_matrix(np.random.default_rng(11), 8, 2)
        with pytest.raises(ParameterError, match="tolerance"):
            gf.embed(m, 2, tolerance=tolerance, on_iteration=self._loop_ran)

    def test_scan_dimensions_stress_decreases(self):
        m, _ = planted_matrix(np.random.default_rng(12), 10, 3)
        stresses = [gf.embed(m, d).stress for d in range(1, 5)]
        assert stresses[2] <= stresses[0] + 1e-9

    @pytest.mark.parametrize("iterations", ["many", -1, True, 2.5, None])
    def test_configuration_rejects_bad_iterations(self, iterations):
        with pytest.raises(ParameterError, match="iterations"):
            gf.Configuration(("a", "b"), [[0.0], [1.0]], 0.0, 1.0, iterations)

    def test_configuration_keeps_a_read_only_copy_of_the_coordinates(self):
        coords = np.array([[0.0], [1.0]])
        config = gf.Configuration(("a", "b"), coords, 0.0, 1.0, 0)
        coords[1, 0] = 5.0  # the caller's array stays writable
        assert config.coordinates.tolist() == [[0.0], [1.0]]
        assert not config.coordinates.flags.writeable

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


def grid_search_residual(X, Y, steps=3600):
    """Best RMS residual over rotations, each with and without a reflection,
    and optimal translation."""
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    best = math.inf
    for flip in (1.0, -1.0):
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

    def test_reflection_recovered(self):
        # an nMDS map is defined only up to reflection
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, (7, 2))
        reflected = pts @ np.diag([-1.0, 1.0])
        _, residual = gf.procrustes_align(config_from_points(pts),
                                          config_from_points(reflected))
        assert residual < 1e-9

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
        with pytest.raises(RuntimeFailure,
                           match="need at least 2 distinct points to align"):
            gf.procrustes_align(c, c)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        a = config_from_points(rng.uniform(-1, 1, (4, 2)))
        b = config_from_points(rng.uniform(-1, 1, (4, 3)))
        with pytest.raises(ParameterError, match="dimension mismatch: 2 vs 3"):
            gf.procrustes_align(a, b)

    def test_item_mismatch(self):
        rng = np.random.default_rng(5)
        a = config_from_points(rng.uniform(-1, 1, (4, 2)), tuple("abcd"))
        b = config_from_points(rng.uniform(-1, 1, (4, 2)), tuple("abce"))
        with pytest.raises(ParameterError,
                           match="configurations must share item_ids in order"):
            gf.procrustes_align(a, b)


class TestTieHandling:
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
