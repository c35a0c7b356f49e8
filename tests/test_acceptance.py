"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The external-dataset reproduction (criterion 9) only runs when
GABORFACE_JAFFE_STUDY points at a study config for that dataset.
"""

import hashlib
import itertools
import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter
from scipy.spatial.distance import pdist, squareform

import gaborface as gf
from gaborface.cli import StudyConfig, _read, main, run_study
from gaborface.grid import NODE_COUNT
from oracles import amplitude, filter_response, gabor_image_similarity
from synthetic_study import make_synthetic_study


def report(number, text):
    print(f"PASS criterion {number}: {text}")


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, \
            f"runtime {elapsed:.1f}s exceeds budget {self.seconds}s"
        return elapsed


def smooth_pixels(rng, size):
    return 128 + 60 * gaussian_filter(rng.standard_normal((size, size)), 2)


def test_criterion_1_dc_rejection():
    budget = Budget(1.0)
    img = np.full((256, 256), 128.0)
    for spec in gf.FilterBank().specs:
        even, odd = filter_response(img, spec, (128.0, 128.0))
        bound = 1e-6 * 128 * spec.wavenumber ** 2 / spec.sigma ** 2
        assert abs(even) < bound
        assert abs(odd) < bound
    elapsed = budget.check()
    report(1, f"all 18 filters reject a constant image ({elapsed:.2f}s)")


def test_criterion_2_illumination_scale_invariance():
    budget = Budget(10.0)
    rng = np.random.default_rng(21)
    bank = gf.FilterBank()
    size = 64
    points = [tuple(p) for p in rng.uniform(8, size - 8, (NODE_COUNT, 2))]

    def code(pixels):
        return np.array([gf.compute_jet(pixels, bank, p) for p in points])

    worst = 0.0
    for pair in range(5):
        pa = smooth_pixels(rng, size)
        pb = smooth_pixels(rng, size)
        base = gabor_image_similarity(code(pa), code(pb))
        for c in (0.5, 2.0, 10.0):
            rescored = gabor_image_similarity(code(pa), code(c * pb))
            worst = max(worst, abs(rescored - base))
    assert worst < 1e-9
    elapsed = budget.check()
    report(2, f"similarity shift under rescaled illumination "
              f"max {worst:.1e} < 1e-9 ({elapsed:.2f}s)")


def test_criterion_3_amplitude_shift_robustness():
    # margin frozen from the pre-build sweep: amplitude moves ~5.2e-5
    # relative, the even-phase linear response >= 0.25 relative
    budget = Budget(10.0)
    k = math.pi / 8
    spec = gf.FilterSpec(k, 0.0, math.pi)
    xs = np.arange(256)
    img = np.tile(128 + 100 * np.cos(k * xs), (256, 1))
    e0, o0 = filter_response(img, spec, (128.0, 128.0))
    e2, o2 = filter_response(img, spec, (130.0, 128.0))
    a0, a2 = amplitude(e0, o0), amplitude(e2, o2)
    rel_amp = abs(a2 - a0) / a0
    rel_even = abs(e2 - e0) / abs(e0)
    assert rel_amp < rel_even
    assert rel_amp < 1e-4      # frozen regression bound
    assert rel_even > 0.25     # frozen regression bound
    elapsed = budget.check()
    report(3, f"2-px shift: amplitude {rel_amp:.1e} vs linear {rel_even:.2f} "
              f"relative change ({elapsed:.2f}s)")


def _oracle_spearman(x, y):
    def midranks(values):
        out = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out.append(Fraction(2 * less + equal + 1, 2))
        return out

    rx, ry = midranks(list(x)), midranks(list(y))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return float(cov) / math.sqrt(float(vx) * float(vy))


def test_criterion_4_spearman_oracle_equivalence():
    budget = Budget(5.0)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        x = rng.integers(0, 4, n).astype(float)  # small range forces ties
        y = rng.integers(0, 4, n).astype(float)
        expected = _oracle_spearman(x, y)
        if expected is None:
            continue
        got = gf.spearman_rho(x, y)
        assert abs(got - expected) < 1e-12
        checked += 1
    assert checked > 500
    elapsed = budget.check()
    report(4, f"{checked} random series match the exact midrank oracle "
              f"to 1e-12 ({elapsed:.2f}s)")


def _oracle_pava(y):
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


def test_criterion_5_pava_optimality():
    budget = Budget(30.0)
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        y = rng.uniform(0, 10, n)
        got = gf.isotonic_fit(y, np.arange(n))
        np.testing.assert_allclose(got.values, _oracle_pava(y), atol=1e-9)
    elapsed = budget.check()
    report(5, f"500 random inputs match the exhaustive block-partition "
              f"oracle to 1e-9 ({elapsed:.2f}s)")


def test_criterion_6_nmds_recovery():
    budget = Budget(10.0)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-5, 5, (20, 2))
    dist = squareform(pdist(pts)) ** 2  # squared distances: monotone transform
    ids = tuple(f"p{i:02d}" for i in range(20))
    matrix = gf.PairMatrix(ids, dist, "dissimilarity")
    history = []
    config = gf.embed(matrix, 2, on_iteration=lambda i, s: history.append(s))
    assert config.stress < 0.05
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    elapsed = budget.check()
    report(6, f"planted 20-point set recovered at stress {config.stress:.4f} "
              f"with monotone stress over {len(history)} evaluations "
              f"({elapsed:.2f}s)")


def test_criterion_7_procrustes_optimality():
    budget = Budget(10.0)
    rng = np.random.default_rng(7)

    def grid_best(X, Y):
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        angles = 2 * math.pi * np.arange(3600) / 3600
        cos, sin = np.cos(angles), np.sin(angles)
        best = math.inf
        for flip in (1.0, -1.0):
            Xf = Xc @ np.diag([1.0, flip])
            # rotated[i] for all angles at once: (3600, n, 2)
            rx = Xf[:, 0][None, :] * cos[:, None] - Xf[:, 1][None, :] * sin[:, None]
            ry = Xf[:, 0][None, :] * sin[:, None] + Xf[:, 1][None, :] * cos[:, None]
            sq = (rx - Yc[:, 0][None, :]) ** 2 + (ry - Yc[:, 1][None, :]) ** 2
            best = min(best, float(np.sqrt(sq.mean(axis=1).min())))
        return best

    for trial in range(20):
        n = int(rng.integers(4, 10))
        X = rng.uniform(-3, 3, (n, 2))
        Y = rng.uniform(-3, 3, (n, 2))
        ids = tuple(f"p{i}" for i in range(n))
        src = gf.Configuration(ids, X, 0.0, 1.0, 0)
        tgt = gf.Configuration(ids, Y, 0.0, 1.0, 0)
        _, residual = gf.procrustes_align(src, tgt)
        assert residual <= grid_best(X, Y) + 1e-9
    elapsed = budget.check()
    report(7, f"20 alignments beat the 3600-angle +/- reflection grid search "
              f"({elapsed:.2f}s)")


def test_criterion_8_end_to_end_synthetic_study(tmp_path):
    budget = Budget(60.0)
    config_path = make_synthetic_study(tmp_path / "study")
    rows = run_study(StudyConfig.from_file(config_path))
    assert len(rows) == 1
    _, gab, _ = rows[0]
    assert gab.rho > 0.8
    assert gab.p_two_sided < 0.01
    elapsed = budget.check()
    report(8, f"synthetic study: Gabor rho {gab.rho:.3f} > 0.8, "
              f"p {gab.p_two_sided:.1e} < 0.01 ({elapsed:.1f}s)")


def jaffe_config(path, no_fear):
    """The study config of criterion 9 with its `no_fear` field set: with
    true, the fear-excluded study, no fear-labelled image, no fear column."""
    path = Path(path)
    return _read(path, lambda doc: StudyConfig._from_document(
        {**doc, "no_fear": no_fear}, path.parent))


def test_jaffe_config_drops_fear_only_when_asked(tmp_path):
    config_path = make_synthetic_study(tmp_path / "study", n_images=5)
    doc = json.loads(config_path.read_text())
    doc["labels"]["img00"] = "FE"
    doc["no_fear"] = True
    config_path.write_text(json.dumps(doc))
    # GABORFACE_JAFFE_NO_FEAR, not the config file, sets the field
    everything = jaffe_config(config_path, no_fear=False)
    assert everything.image_ids()[0] == "img00" and not everything.no_fear
    fearless = jaffe_config(config_path, no_fear=True)
    assert fearless.image_ids() == everything.image_ids()[1:] and fearless.no_fear
    assert fearless == StudyConfig.from_file(config_path)


@pytest.mark.skipif("GABORFACE_JAFFE_STUDY" not in os.environ,
                    reason="external dataset not available; criterion is "
                           "out of scope without it (criteria 1-8, 10 stand)")
def test_criterion_9_paper_number_reproduction():
    no_fear = bool(os.environ.get("GABORFACE_JAFFE_NO_FEAR"))
    config = jaffe_config(os.environ["GABORFACE_JAFFE_STUDY"], no_fear)
    rows = run_study(config)
    assert rows, "no expresser groups produced results"
    gabor_rhos = {e: g.rho for e, g, _ in rows}
    geometry_rhos = {e: geo.rho for e, _, geo in rows}
    for expresser in gabor_rhos:
        assert gabor_rhos[expresser] > geometry_rhos[expresser]
    keep = [e for e in gabor_rhos if e not in config.exclude_from_average]
    avg_gabor = np.mean([gabor_rhos[e] for e in keep])
    avg_geometry = np.mean([geometry_rhos[e] for e in keep])
    # table targets: all-expression study vs fear-excluded study
    expected_gabor, expected_geometry = (0.679, 0.462) if no_fear else (0.568, 0.366)
    assert abs(avg_gabor - expected_gabor) < 0.05
    assert abs(avg_geometry - expected_geometry) < 0.05
    report(9, f"dataset averages reproduced: Gabor {avg_gabor:.3f}, "
              f"geometry {avg_geometry:.3f}")


def test_criterion_10_determinism_across_thread_counts(tmp_path):
    budget = Budget(120.0)
    config_path = make_synthetic_study(tmp_path / "study", n_images=6)

    def digest_tree(out_dir):
        digests = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                digests[str(path.relative_to(out_dir))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        return digests

    trees = {}
    for threads, name in ((1, "o1"), (8, "o8")):
        assert main(["--config", str(config_path), "--out", str(tmp_path / name),
                     "--threads", str(threads)]) == 0
        trees[name] = digest_tree(tmp_path / name)
    assert trees["o1"] == trees["o8"]
    elapsed = budget.check()
    report(10, f"--threads 1 and --threads 8 runs are byte-identical "
               f"({len(trees['o1'])} files, {elapsed:.1f}s)")
