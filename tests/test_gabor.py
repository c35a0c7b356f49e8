import json
import math

import numpy as np
import pytest

import gaborface as gf
from gaborface.cli import _read
from gaborface.errors import FormatError, OutOfBoundsError, ParameterError
from gaborface.grid import default_template_placement, grid_document


def smooth_image(seed, size=128, scale=60.0):
    from scipy.ndimage import gaussian_filter
    rng = np.random.default_rng(seed)
    return gf.ImageRaster(
        size, size, 128 + scale * gaussian_filter(rng.standard_normal((size, size)), 2)
    )


def grating(k, theta, size=256, mean=128.0, contrast=100.0, phase=0.0):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    arg = k * (math.cos(theta) * xx + math.sin(theta) * yy) + phase
    return gf.ImageRaster(size, size, mean + contrast * np.cos(arg))


class TestBuildFilterBank:
    def test_default_bank_is_18_filters(self):
        bank = gf.build_filter_bank()
        assert len(bank) == 18
        assert bank.frequency_count == 3
        assert bank.orientation_count == 6
        assert bank.wavenumbers == (math.pi / 2, math.pi / 4, math.pi / 8)
        assert bank.sigma == math.pi

    def test_minimal_bank(self):
        bank = gf.build_filter_bank([1.0], [0.0], 1.0)
        assert len(bank) == 1

    def test_frequency_major_ordering(self):
        bank = gf.build_filter_bank([math.pi / 2, math.pi / 4], [0.0, math.pi / 2], math.pi)
        got = [(s.wavenumber, s.orientation) for s in bank.specs]
        assert got == [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2),
                       (math.pi / 4, 0.0), (math.pi / 4, math.pi / 2)]

    @pytest.mark.parametrize("kwargs", [
        dict(wavenumbers=[]),
        dict(orientations=[]),
        dict(wavenumbers=[1.0, 1.0]),
        dict(orientations=[0.0, 0.0]),
        dict(orientations=[math.pi]),
        dict(orientations=[-0.1]),
        dict(wavenumbers=[0.0]),
        dict(wavenumbers=[-1.0]),
        dict(sigma=0.0),
        dict(wavenumbers=[float("nan")]),
    ])
    def test_invalid_parameters(self, kwargs):
        defaults = dict(wavenumbers=[1.0], orientations=[0.0], sigma=1.0)
        defaults.update(kwargs)
        with pytest.raises(ParameterError):
            gf.build_filter_bank(**defaults)

    def test_fingerprint_depends_on_parameters(self):
        a = gf.build_filter_bank()
        b = gf.build_filter_bank(sigma=3.0)
        assert a.fingerprint() == gf.build_filter_bank().fingerprint()
        assert a.fingerprint() != b.fingerprint()


class TestEvaluateKernel:
    def test_at_center(self):
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        even, odd = gf.evaluate_kernel(spec, (10.0, 20.0), (10.0, 20.0))
        k, s = spec.wavenumber, spec.sigma
        assert even == pytest.approx((k * k / (s * s)) * (1 - math.exp(-s * s / 2)))
        assert odd == 0.0

    def test_far_away_vanishes(self):
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        even, odd = gf.evaluate_kernel(spec, (0.0, 0.0), (500.0, 500.0))
        assert abs(even) < 1e-300
        assert abs(odd) < 1e-300

    def test_against_high_precision_oracle(self):
        # independent arbitrary-precision evaluation of the closed forms
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        even, odd = gf.evaluate_kernel(spec, (0.0, 0.0), (1.0, 0.0))
        k = mp.mpf(math.pi) / 2
        sigma = mp.mpf(math.pi)
        env = (k ** 2 / sigma ** 2) * mp.e ** (-(k ** 2) / (2 * sigma ** 2))
        expected_even = env * (mp.cos(k) - mp.e ** (-(sigma ** 2) / 2))
        expected_odd = env * mp.sin(k)
        assert even == pytest.approx(float(expected_even), rel=1e-14)
        assert odd == pytest.approx(float(expected_odd), rel=1e-14)

    def test_oblique_point_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        theta = math.pi / 3
        spec = gf.FilterSpec(math.pi / 4, theta, math.pi)
        even, odd = gf.evaluate_kernel(spec, (5.0, -2.0), (7.5, 1.25))
        k = mp.mpf(math.pi) / 4
        sigma = mp.mpf(math.pi)
        dx, dy = mp.mpf("2.5"), mp.mpf("3.25")
        env = (k ** 2 / sigma ** 2) * mp.e ** (
            -(k ** 2) * (dx ** 2 + dy ** 2) / (2 * sigma ** 2))
        phase = k * (mp.cos(theta) * dx + mp.sin(theta) * dy)
        assert even == pytest.approx(
            float(env * (mp.cos(phase) - mp.e ** (-(sigma ** 2) / 2))), rel=1e-12)
        assert odd == pytest.approx(float(env * mp.sin(phase)), rel=1e-12)


class TestFilterResponse:
    def test_constant_image_rejected(self):
        img = gf.ImageRaster(96, 96, np.full(96 * 96, 128.0))
        for spec in gf.build_filter_bank().specs:
            even, odd = gf.filter_response(img, spec, (48.0, 48.0))
            bound = 1e-6 * 128 * spec.wavenumber ** 2 / spec.sigma ** 2
            assert abs(even) < bound
            assert abs(odd) < bound

    def test_center_out_of_bounds(self):
        img = smooth_image(0, size=32)
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        for bad in [(-1.0, 5.0), (5.0, 32.0), (40.0, 5.0)]:
            with pytest.raises(OutOfBoundsError):
                gf.filter_response(img, spec, bad)

    def test_tuning_peak_at_filter_frequency(self):
        # brute-force sweep of grating frequencies: the even response is
        # maximal when the grating matches the filter's wavenumber
        spec = gf.FilterSpec(math.pi / 4, 0.0, math.pi)
        sweep = np.pi / np.array([2, 3, 4, 6, 8, 12, 16])
        responses = []
        for k in sweep:
            img = grating(k, 0.0, size=160)
            even, _ = gf.filter_response(img, spec, (80.0, 80.0))
            responses.append(even)
        assert int(np.argmax(responses)) == int(np.argmin(np.abs(sweep - math.pi / 4)))

    def test_truncated_matches_full_support(self):
        # full-support oracle summation over the whole image
        for seed in range(3):
            img = smooth_image(seed)
            for spec in gf.build_filter_bank().specs[::4]:
                et, ot = gf.filter_response(img, spec, (64.3, 63.7))
                ef, of = gf.filter_response(img, spec, (64.3, 63.7), truncate=False)
                assert math.hypot(et - ef, ot - of) < 1e-4 * math.hypot(ef, of)

    def test_linearity(self):
        a = smooth_image(1, size=64)
        b = smooth_image(2, size=64)
        combo = gf.ImageRaster(64, 64, 2.5 * a.pixels + 0.75 * b.pixels)
        spec = gf.FilterSpec(math.pi / 4, math.pi / 6, math.pi)
        center = (31.0, 30.0)
        ea, oa = gf.filter_response(a, spec, center)
        eb, ob = gf.filter_response(b, spec, center)
        ec, oc = gf.filter_response(combo, spec, center)
        assert ec == pytest.approx(2.5 * ea + 0.75 * eb, rel=1e-12)
        assert oc == pytest.approx(2.5 * oa + 0.75 * ob, rel=1e-12)

    def test_shift_robustness_of_amplitude(self):
        # frozen regression bound from the pre-build sweep: a 2-pixel shift
        # on a k=pi/8 grating moves the amplitude by ~5.2e-5 relative while
        # the even-phase linear response moves by >= 0.29 relative
        k = math.pi / 8
        spec = gf.FilterSpec(k, 0.0, math.pi)
        img = grating(k, 0.0)
        e0, o0 = gf.filter_response(img, spec, (128.0, 128.0))
        e2, o2 = gf.filter_response(img, spec, (130.0, 128.0))
        a0 = gf.amplitude(e0, o0)
        a2 = gf.amplitude(e2, o2)
        rel_amp = abs(a2 - a0) / a0
        rel_even = abs(e2 - e0) / abs(e0)
        assert rel_amp < rel_even
        assert rel_amp < 1e-4
        assert rel_even > 0.25


class TestAmplitude:
    def test_pythagorean(self):
        assert gf.amplitude(3.0, 4.0) == 5.0

    def test_zero(self):
        assert gf.amplitude(0.0, 0.0) == 0.0

    def test_sign_discarded(self):
        assert gf.amplitude(-2.0, 0.0) == 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            gf.amplitude(float("nan"), 0.0)


class TestComputeJet:
    def test_constant_image_gives_zero_jet(self):
        img = gf.ImageRaster(96, 96, np.full(96 * 96, 200.0))
        jet = gf.compute_jet(img, gf.build_filter_bank(), (48.0, 48.0))
        assert np.all(jet < 1e-6 * 200.0)

    def test_amplitude_homogeneity(self):
        img = smooth_image(3, size=96)
        scaled = gf.ImageRaster(96, 96, 7.0 * img.pixels)
        bank = gf.build_filter_bank()
        jet = gf.compute_jet(img, bank, (48.0, 47.5))
        jet7 = gf.compute_jet(scaled, bank, (48.0, 47.5))
        np.testing.assert_allclose(jet7, 7.0 * jet, rtol=1e-9)

    def test_oriented_grating_peaks_at_matching_entry(self):
        # brute force across all 18 entries
        bank = gf.build_filter_bank()
        img = grating(math.pi / 4, 0.0)
        jet = gf.compute_jet(img, bank, (128.0, 128.0))
        winner = bank.specs[int(np.argmax(jet))]
        assert winner.wavenumber == math.pi / 4
        assert winner.orientation == 0.0



class TestComputeJets:
    @staticmethod
    def oracle(img, bank, points):
        return np.array([[gf.amplitude(*gf.filter_response(img, spec, p))
                          for spec in bank.specs] for p in points])

    @pytest.mark.parametrize("width,height", [(128, 128), (140, 97), (40, 64)])
    def test_matches_per_filter_oracle(self, width, height):
        from scipy.ndimage import gaussian_filter
        rng = np.random.default_rng(width * height)
        img = gf.ImageRaster(width, height, 128 + 60 * gaussian_filter(
            rng.standard_normal((height, width)), 2))
        bank = gf.build_filter_bank()
        w, h = width - 1e-9, height - 1e-9
        random_points = [tuple(p) for p in rng.uniform(0, 1, (12, 2)) * (w, h)]
        # exact .5 centres round half-to-even; window centres land on both parities
        half_points = [(0.5, 1.5), (2.5, 3.5), (width / 2 + 0.5, height / 2 - 0.5)]
        # corners and edges reflect most of the window
        edge_points = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h),
                       (width / 2, 0.0), (0.0, height / 3), (w, height / 2)]
        points = random_points + half_points + edge_points
        jets = gf.compute_jets(img, bank, points)
        assert jets.shape == (len(points), len(bank))
        np.testing.assert_allclose(jets, self.oracle(img, bank, points),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 3), (5, 7)])
    def test_tiny_images_fold_the_window_many_times(self, width, height):
        rng = np.random.default_rng(width + 10 * height)
        img = gf.ImageRaster(width, height, rng.uniform(0, 255, (height, width)))
        bank = gf.build_filter_bank()
        w, h = width - 1e-9, height - 1e-9  # these round onto the far edge
        points = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h), (width / 2, height / 2)]
        points += [tuple(p) for p in rng.uniform(0, 1, (4, 2)) * (w, h)]
        # On a window folded from a few pixels many amplitudes are tiny (a
        # 1x1 image is constant, so all of its are the truncated kernel's DC
        # leakage): 1e-11 to 1e-7 of the sum's scale, the envelope's mass
        # 2*pi times the largest pixel.  Neither this kernel nor the
        # per-filter oracle gets those to 1e-12 relative, so they are held
        # to 1e-14 of that scale; the others to rtol.
        atol = 1e-14 * 2 * math.pi * img.pixels.max()
        np.testing.assert_allclose(gf.compute_jets(img, bank, points),
                                   self.oracle(img, bank, points),
                                   rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 3), (5, 7)])
    def test_symmetric_pad_is_the_reflect_gather(self, width, height):
        from gaborface.gabor import _reflect_indices
        pixels = np.arange(width * height, dtype=float).reshape(height, width)
        for pad in (2 * max(width, height) + 1, 48):
            ys = np.arange(-pad, height + pad + 1)
            xs = np.arange(-pad, width + pad + 1)
            np.testing.assert_array_equal(
                np.pad(pixels, (pad, pad + 1), mode="symmetric"),
                pixels[np.ix_(_reflect_indices(ys, height),
                              _reflect_indices(xs, width))])

    def test_compute_jet_is_a_row_of_compute_jets(self):
        img = smooth_image(4, size=64)
        bank = gf.build_filter_bank()
        points = [(10.25, 50.0), (33.5, 12.5)]
        jets = gf.compute_jets(img, bank, points)
        for point, row in zip(points, jets):
            np.testing.assert_array_equal(
                gf.compute_jet(img, bank, point), row)

    def test_one_out_of_bounds_point_fails_the_batch(self):
        img = smooth_image(0, size=32)
        bank = gf.build_filter_bank()
        for bad in [(-0.5, 5.0), (5.0, 32.0), (40.0, 5.0), (float("nan"), 3.0)]:
            with pytest.raises(OutOfBoundsError):
                gf.compute_jets(img, bank, [(4.0, 4.0), bad, (8.0, 8.0)])

    def test_empty_point_list(self):
        img = smooth_image(0, size=32)
        assert gf.compute_jets(img, gf.build_filter_bank(), []).shape == (0, 18)

class TestImageRaster:
    def test_flat_and_2d_agree(self):
        flat = np.arange(12.0)
        a = gf.ImageRaster(4, 3, flat)
        b = gf.ImageRaster(4, 3, flat.reshape(3, 4))
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.pixels.ravel(), flat)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            gf.ImageRaster(0, 4, [])
        with pytest.raises(ParameterError):
            gf.ImageRaster(2, 2, [1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            gf.ImageRaster(2, 2, [1.0, 2.0, 3.0, float("inf")])


class TestPgmIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = gf.ImageRaster(7, 5, rng.integers(0, 256, size=35).astype(float))
        path = tmp_path / "x.pgm"
        gf.write_pgm(path, img)
        back = gf.read_pgm(path.read_bytes())
        assert back.width == 7 and back.height == 5
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_header_comments(self):
        data = b"P5\n# a comment\n2 2\n# another\n255\n\x00\x40\x80\xff"
        img = gf.read_pgm(data)
        np.testing.assert_array_equal(img.pixels, [[0, 64], [128, 255]])

    def test_rejects_non_p5(self):
        with pytest.raises(FormatError):
            gf.read_pgm(b"P2\n2 2\n255\n0 0 0 0")

    def test_rejects_truncated_raster(self):
        with pytest.raises(FormatError):
            gf.read_pgm(b"P5\n4 4\n255\n\x00\x00")

    def test_rejects_16_bit(self):
        with pytest.raises(FormatError):
            gf.read_pgm(b"P5\n1 1\n65535\n\x00\x00")


def coded_document(bank, size=64):
    """A jet document for a random 34-node placement on a smooth image."""
    rng = np.random.default_rng(9)
    placement = default_template_placement(
        "img1", rng.uniform(0, size - 1, (34, 2)), (size, size))
    jets = gf.compute_jets(smooth_image(9, size=size), bank, placement.points)
    return gf.gabor.jet_document("img1", bank, placement, jets), placement, jets


class TestJetDocument:
    def test_round_trip(self):
        bank = gf.build_filter_bank()
        doc, placement, jets = coded_document(bank)
        placement2, bank2, jets2 = gf.gabor.parse_jet_document(
            json.loads(json.dumps(doc)))
        assert grid_document(placement2) == grid_document(placement)
        assert bank2.fingerprint() == bank.fingerprint()
        np.testing.assert_array_equal(jets2, jets)

    def test_malformed_document(self):
        with pytest.raises(FormatError):
            gf.gabor.parse_jet_document({"image_id": "x"})

    def test_document_without_placement_asks_for_encode(self):
        doc, _, _ = coded_document(gf.build_filter_bank([1.0], [0.0], 1.0))
        del doc["source_size"], doc["nose_tip"]
        with pytest.raises(FormatError, match="re-run the encode stage"):
            gf.gabor.parse_jet_document(doc)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        doc, _, _ = coded_document(gf.build_filter_bank([1.0], [0.0], 1.0))
        text = json.dumps(doc)
        path = tmp_path / "img1.json"
        for end in range(len(text)):
            path.write_text(text[:end])
            with pytest.raises(FormatError):
                _read(path, gf.gabor.parse_jet_document)

    @pytest.mark.parametrize("point", [
        {"name": "a", "x": "left", "y": 1.0, "amplitudes": [1.0]},
        {"name": "a", "x": 1.0, "y": 1.0, "amplitudes": ["big"]},
        {"name": "a", "x": 1.0, "y": 1.0, "amplitudes": [-1.0]},
        {"name": "a", "x": 1.0, "y": 1.0, "amplitudes": [float("nan")]},
        {"name": "a", "x": 1.0, "y": 1.0, "amplitudes": [1.0, 2.0]},
        {"name": "a", "x": 1.0, "y": 1.0, "amplitudes": [[1.0]]},
    ])
    def test_bad_values_are_format_errors(self, point):
        doc, _, _ = coded_document(gf.build_filter_bank([1.0], [0.0], 1.0))
        doc["points"][0] = point
        with pytest.raises(FormatError):
            gf.gabor.parse_jet_document(doc)
