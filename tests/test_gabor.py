import json
import math
import sys
import threading

import numpy as np
import pytest

import gaborface as gf
from gaborface.cli import _read
from gaborface.errors import FormatError, ParameterError
from oracles import (
    amplitude,
    default_template_placement,
    evaluate_kernel,
    filter_response,
    grid_document,
    traced_peak,
    write_pgm,
)


def smooth_image(seed, size=128, scale=60.0):
    from scipy.ndimage import gaussian_filter
    rng = np.random.default_rng(seed)
    return 128 + scale * gaussian_filter(rng.standard_normal((size, size)), 2)


def grating(k, theta, size=256, mean=128.0, contrast=100.0, phase=0.0):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    arg = k * (math.cos(theta) * xx + math.sin(theta) * yy) + phase
    return mean + contrast * np.cos(arg)


def on_fresh_thread(function, *args):
    """function(*args) on a new thread, whose compute_jets store starts empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(function(*args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def padded_kernel(image, bank, points):
    """Reference jet kernel: compute_jets' operations, with every window a
    view into one mirror-padded copy of the image; compute_jets is held to
    it bit for bit."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rounded = np.round(pts).astype(int)
    fraction = (pts - rounded).T
    pad = max(spec.window_half_width() for spec in bank.specs)
    padded = np.pad(image, (pad, pad + 1), mode="symmetric")
    jets = np.empty((len(pts), len(bank)))
    groups = {}
    for i, spec in enumerate(bank.specs):
        groups.setdefault((spec.wavenumber, spec.sigma), []).append(i)
    for (k, sigma), members in groups.items():
        h = bank.specs[members[0]].window_half_width()
        offsets = np.arange(-h, h + 1)
        kx, ky = np.array([bank.specs[i].wave_vector for i in members]).T
        waves = np.array([[0.0, *kx], [0.0, *ky]])
        carriers = np.exp(1j * offsets[:, None] * waves[:, None, :])
        d = offsets - fraction[:, :, None]
        gauss = np.exp(-(k * k) * d * d / (2.0 * sigma * sigma))
        vx, vy = gauss[..., None] * carriers.view(float)[:, None]
        pvx = np.empty(vx.shape)
        for n, (x, y) in enumerate(rounded + pad - h):
            np.matmul(padded[y:y + 2 * h + 1, x:x + 2 * h + 1], vx[n], out=pvx[n])
        sums = np.einsum("nac,nac->nc", vy.view(complex), pvx.view(complex))
        rotation = np.exp(-1j * (fraction.T @ waves[:, 1:]))
        responses = (k * k / (sigma * sigma)) * (
            sums[:, 1:] * rotation - math.exp(-sigma * sigma / 2.0) * sums[:, :1].real)
        jets[:, members] = np.abs(responses)
    return jets


class TestBuildFilterBank:
    def test_default_bank_is_18_filters(self):
        bank = gf.FilterBank()
        assert len(bank) == 18
        assert len(bank.wavenumbers) == 3
        assert len(bank.orientations) == 6
        assert bank.wavenumbers == (math.pi / 2, math.pi / 4, math.pi / 8)
        assert bank.sigma == math.pi

    def test_minimal_bank(self):
        bank = gf.FilterBank([1.0], [0.0], 1.0)
        assert len(bank) == 1

    def test_frequency_major_ordering(self):
        bank = gf.FilterBank([math.pi / 2, math.pi / 4], [0.0, math.pi / 2], math.pi)
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
        # kernel half-widths 6 sigma/k of 6e300, 6e300, 6,000 and 1,025 pixels
        dict(wavenumbers=[1e-300]),
        dict(sigma=1e300),
        dict(wavenumbers=[1e-3]),
        dict(wavenumbers=[3.0], sigma=512.5),
    ])
    def test_invalid_parameters(self, kwargs):
        defaults = dict(wavenumbers=[1.0], orientations=[0.0], sigma=1.0)
        defaults.update(kwargs)
        with pytest.raises(ParameterError):
            gf.FilterBank(**defaults)

    @pytest.mark.parametrize("name,value", [
        ("wavenumbers", [math.inf]), ("orientations", [math.pi]), ("sigma", -1.0)])
    def test_out_of_range_parameter_is_named(self, name, value):
        with pytest.raises(ParameterError, match=f"bank '{name}'"):
            gf.FilterBank(**{name: value})

    def test_kernel_window_at_the_limit_is_built(self):
        bank = gf.FilterBank([3.0], [0.0], 512.0)
        assert bank.specs[0].window_half_width() == gf.gabor.MAX_KERNEL_HALF_WIDTH

    def test_document_takes_defaults_only_when_asked(self):
        doc = {"wavenumbers": [2, 0.5], "sigma": 3}
        with pytest.raises(FormatError, match="bank has no 'orientations'"):
            gf.FilterBank.from_document(doc)
        bank = gf.FilterBank.from_document(doc, defaults=True)
        assert bank == gf.FilterBank((2.0, 0.5), gf.DEFAULT_ORIENTATIONS, 3.0)

    def test_equality_depends_on_parameters(self):
        a = gf.FilterBank()
        b = gf.FilterBank(sigma=3.0)
        assert a == gf.FilterBank()
        assert a != b


class TestEvaluateKernel:
    def test_at_center(self):
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        even, odd = evaluate_kernel(spec, (10.0, 20.0), (10.0, 20.0))
        k, s = spec.wavenumber, spec.sigma
        assert even == pytest.approx((k * k / (s * s)) * (1 - math.exp(-s * s / 2)))
        assert odd == 0.0

    def test_far_away_vanishes(self):
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        even, odd = evaluate_kernel(spec, (0.0, 0.0), (500.0, 500.0))
        assert abs(even) < 1e-300
        assert abs(odd) < 1e-300

    def test_against_high_precision_oracle(self):
        # independent arbitrary-precision evaluation of the closed forms
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        even, odd = evaluate_kernel(spec, (0.0, 0.0), (1.0, 0.0))
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
        even, odd = evaluate_kernel(spec, (5.0, -2.0), (7.5, 1.25))
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
        img = np.full((96, 96), 128.0)
        for spec in gf.FilterBank().specs:
            even, odd = filter_response(img, spec, (48.0, 48.0))
            bound = 1e-6 * 128 * spec.wavenumber ** 2 / spec.sigma ** 2
            assert abs(even) < bound
            assert abs(odd) < bound

    def test_center_out_of_bounds(self):
        img = smooth_image(0, size=32)
        spec = gf.FilterSpec(math.pi / 2, 0.0, math.pi)
        for bad in [(-1.0, 5.0), (5.0, 32.0), (40.0, 5.0)]:
            with pytest.raises(ParameterError, match="outside 32x32 image"):
                filter_response(img, spec, bad)

    def test_tuning_peak_at_filter_frequency(self):
        # brute-force sweep of grating frequencies: the even response is
        # maximal when the grating matches the filter's wavenumber
        spec = gf.FilterSpec(math.pi / 4, 0.0, math.pi)
        sweep = np.pi / np.array([2, 3, 4, 6, 8, 12, 16])
        responses = []
        for k in sweep:
            img = grating(k, 0.0, size=160)
            even, _ = filter_response(img, spec, (80.0, 80.0))
            responses.append(even)
        assert int(np.argmax(responses)) == int(np.argmin(np.abs(sweep - math.pi / 4)))

    def test_truncated_matches_full_support(self):
        # full-support oracle summation over the whole image
        for seed in range(3):
            img = smooth_image(seed)
            for spec in gf.FilterBank().specs[::4]:
                et, ot = filter_response(img, spec, (64.3, 63.7))
                ef, of = filter_response(img, spec, (64.3, 63.7), truncate=False)
                assert math.hypot(et - ef, ot - of) < 1e-4 * math.hypot(ef, of)

    def test_linearity(self):
        a = smooth_image(1, size=64)
        b = smooth_image(2, size=64)
        combo = 2.5 * a + 0.75 * b
        spec = gf.FilterSpec(math.pi / 4, math.pi / 6, math.pi)
        center = (31.0, 30.0)
        ea, oa = filter_response(a, spec, center)
        eb, ob = filter_response(b, spec, center)
        ec, oc = filter_response(combo, spec, center)
        assert ec == pytest.approx(2.5 * ea + 0.75 * eb, rel=1e-12)
        assert oc == pytest.approx(2.5 * oa + 0.75 * ob, rel=1e-12)

    def test_shift_robustness_of_amplitude(self):
        # frozen regression bound from the pre-build sweep: a 2-pixel shift
        # on a k=pi/8 grating moves the amplitude by ~5.2e-5 relative while
        # the even-phase linear response moves by >= 0.29 relative
        k = math.pi / 8
        spec = gf.FilterSpec(k, 0.0, math.pi)
        img = grating(k, 0.0)
        e0, o0 = filter_response(img, spec, (128.0, 128.0))
        e2, o2 = filter_response(img, spec, (130.0, 128.0))
        a0 = amplitude(e0, o0)
        a2 = amplitude(e2, o2)
        rel_amp = abs(a2 - a0) / a0
        rel_even = abs(e2 - e0) / abs(e0)
        assert rel_amp < rel_even
        assert rel_amp < 1e-4
        assert rel_even > 0.25


class TestAmplitude:
    def test_pythagorean(self):
        assert amplitude(3.0, 4.0) == 5.0

    def test_zero(self):
        assert amplitude(0.0, 0.0) == 0.0

    def test_sign_discarded(self):
        assert amplitude(-2.0, 0.0) == 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            amplitude(float("nan"), 0.0)


class TestComputeJet:
    def test_constant_image_gives_zero_jet(self):
        img = np.full((96, 96), 200.0)
        jet = gf.compute_jet(img, gf.FilterBank(), (48.0, 48.0))
        assert np.all(jet < 1e-6 * 200.0)

    def test_amplitude_homogeneity(self):
        img = smooth_image(3, size=96)
        scaled = 7.0 * img
        bank = gf.FilterBank()
        jet = gf.compute_jet(img, bank, (48.0, 47.5))
        jet7 = gf.compute_jet(scaled, bank, (48.0, 47.5))
        np.testing.assert_allclose(jet7, 7.0 * jet, rtol=1e-9)

    def test_oriented_grating_peaks_at_matching_entry(self):
        # brute force across all 18 entries
        bank = gf.FilterBank()
        img = grating(math.pi / 4, 0.0)
        jet = gf.compute_jet(img, bank, (128.0, 128.0))
        winner = bank.specs[int(np.argmax(jet))]
        assert winner.wavenumber == math.pi / 4
        assert winner.orientation == 0.0



class TestComputeJets:
    @staticmethod
    def oracle(img, bank, points):
        return np.array([[amplitude(*filter_response(img, spec, p))
                          for spec in bank.specs] for p in points])

    @pytest.mark.parametrize("width,height", [(128, 128), (140, 97), (40, 64)])
    def test_matches_per_filter_oracle(self, width, height):
        from scipy.ndimage import gaussian_filter
        rng = np.random.default_rng(width * height)
        img = 128 + 60 * gaussian_filter(rng.standard_normal((height, width)), 2)
        bank = gf.FilterBank()
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
        img = rng.uniform(0, 255, (height, width))
        bank = gf.FilterBank()
        w, h = width - 1e-9, height - 1e-9  # these round onto the far edge
        points = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h), (width / 2, height / 2)]
        points += [tuple(p) for p in rng.uniform(0, 1, (4, 2)) * (w, h)]
        # On a window folded from a few pixels many amplitudes are tiny (a
        # 1x1 image is constant, so all of its are the truncated kernel's DC
        # leakage): 1e-11 to 1e-7 of the sum's scale, the envelope's mass
        # 2*pi times the largest pixel.  Neither this kernel nor the
        # per-filter oracle gets those to 1e-12 relative, so they are held
        # to 1e-14 of that scale; the others to rtol.
        atol = 1e-14 * 2 * math.pi * img.max()
        np.testing.assert_allclose(gf.compute_jets(img, bank, points),
                                   self.oracle(img, bank, points),
                                   rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 3), (5, 7), (140, 113)])
    def test_bit_for_bit_the_padded_kernel(self, width, height):
        # every window, inside the image or gathered at an edge, gives the
        # same floating-point operations as one view into a mirror-padded copy
        rng = np.random.default_rng(width * height)
        img = rng.uniform(0, 255, (height, width))
        bank = gf.FilterBank()
        w, h = width - 1e-9, height - 1e-9  # these round onto the far edge
        points = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h), (width - 0.5, height - 0.5),
                  (width / 2, height / 2), (width / 2 - 0.5, height / 2 - 0.5)]
        points += [tuple(p) for p in rng.uniform(0, 1, (8, 2)) * (w, h)]
        for half_width in sorted({spec.window_half_width() for spec in bank.specs}):
            # 0 .. half_width + 1 pixels in from each edge and corner
            for e in range(half_width + 2):
                near = (min(e + 0.25, w), min(e + 0.25, h))
                far = (max(width - 1.25 - e, 0.0), max(height - 1.25 - e, 0.0))
                points += [(near[0], height / 2), (far[0], height / 2),
                           (width / 2, near[1]), (width / 2, far[1]),
                           near, (far[0], near[1]), (near[0], far[1]), far]
        jets = gf.compute_jets(img, bank, points)
        assert np.array_equal(jets, padded_kernel(img, bank, points))

    def test_work_arrays_kept_between_calls_change_no_bit(self):
        # one thread's store through images of many sizes (the tiny ones fold
        # their windows many times), 0, 1 and 34 points, and two banks with the
        # same half-widths but different orientation counts; each point count
        # first replaces the arrays of the last, then reuses them
        rng = np.random.default_rng(16)
        banks = [gf.FilterBank(),
                 gf.FilterBank(orientations=gf.gabor.DEFAULT_ORIENTATIONS[::2])]
        returned = []
        for count in (0, 1, 34):
            for width, height in [(1, 1), (2, 3), (5, 7), (140, 113), (64, 64)] * 2:
                img = rng.uniform(0, 255, (height, width))
                points = rng.uniform(0, 1, (count, 2)) * (width - 1e-9, height - 1e-9)
                for bank in banks:
                    jets = gf.compute_jets(img, bank, points)
                    assert np.array_equal(
                        jets, on_fresh_thread(gf.compute_jets, img, bank, points))
                    assert np.array_equal(jets, padded_kernel(img, bank, points))
                    kept = [a for arrays in vars(gf.gabor._work).values() for a in arrays]
                    assert not any(np.shares_memory(jets, a) for a in kept)
                    returned.append((jets, jets.copy()))
        # later calls wrote over no earlier result
        assert all(np.array_equal(jets, copy) for jets, copy in returned)

    def test_a_repeated_call_allocates_no_work_arrays(self):
        # the default bank's buffer takes 0.46 MB; a call of the shapes of
        # the last allocates under 1 MiB on top of what is held
        img = smooth_image(5, size=256)
        points = np.random.default_rng(5).uniform(0, 255, (34, 2))
        gf.compute_jets(img, gf.FilterBank(), points)
        assert traced_peak(lambda: gf.compute_jets(img, gf.FilterBank(), points)) < 2**20

    @staticmethod
    def kept_buffer(bank, count):
        """The store after a call of `count` points: u_x (then u_y) and the
        window products of the largest batch of any wavenumber, the DC term
        and each filter as (re, im)."""
        columns = 2 * (1 + len(bank.orientations))
        windows = {2 * spec.window_half_width() + 1 for spec in bank.specs}
        largest = max(min(count, max(1, gf.gabor.WINDOW_SAMPLES // w)) * w for w in windows)
        return {"kernel": [(2 * largest * columns,)]}

    @staticmethod
    def bound(bank):
        """2 x max(WINDOW_SAMPLES, 2h+1) x 2(1 + orientations) floats."""
        widest = max(2 * spec.window_half_width() + 1 for spec in bank.specs)
        return 2 * max(gf.gabor.WINDOW_SAMPLES, widest) * 2 * (1 + len(bank.orientations))

    @staticmethod
    def call_and_store(img, bank, points):
        """compute_jets(img, bank, points) and the shapes of the arrays its
        thread keeps after it."""
        jets = gf.compute_jets(img, bank, points)
        return jets, {key: [a.shape for a in arrays]
                      for key, arrays in vars(gf.gabor._work).items()}

    def test_store_holds_one_buffer_for_the_widest_window(self):
        # every batch's arrays are views of one buffer, which a call of
        # another bank or point count replaces, so the store holds what the
        # last call's largest batch needs, not the sum over the windows seen
        img = smooth_image(6)
        wide = gf.FilterBank()
        narrow = gf.FilterBank(wavenumbers=gf.gabor.DEFAULT_WAVENUMBERS[:2])
        rng = np.random.default_rng(6)

        def shapes_after_calls(calls):
            for bank, count in calls:
                _, store = self.call_and_store(img, bank, rng.uniform(0, 127, (count, 2)))
            return store

        for counts in [(0, 1, 34, 100), (100, 1)]:
            calls = [(wide, count) for count in counts]
            assert (on_fresh_thread(shapes_after_calls, calls)
                    == self.kept_buffer(wide, counts[-1]))
        calls = [(wide, 34), (narrow, 34)]
        assert on_fresh_thread(shapes_after_calls, calls) == self.kept_buffer(narrow, 34)
        # k = pi/8 (2h+1 = 97) takes 21 points a batch: 0.46 MB at 34 points
        assert self.kept_buffer(wide, 34) == {"kernel": [(2 * 21 * 97 * 14,)]}
        assert self.kept_buffer(narrow, 34) == {"kernel": [(2 * 34 * 49 * 14,)]}

    def test_many_points_keep_a_bounded_buffer_and_the_same_bits(self):
        # 1,000 points are coded in batches: the store is no larger than
        # the bound, not a table per point, and each jet is the one that
        # calls of 34 points and the padded kernel give
        img = smooth_image(7, size=256)
        bank = gf.FilterBank()
        points = np.random.default_rng(7).uniform(0, 256 - 1e-9, (1000, 2))
        points[:4] = [(0.0, 0.0), (255.9, 0.0), (0.0, 255.9), (255.9, 255.9)]
        jets, store = on_fresh_thread(self.call_and_store, img, bank, points)
        assert store == self.kept_buffer(bank, 1000) == self.kept_buffer(bank, 34)
        assert store["kernel"][0][0] <= self.bound(bank)
        in_34s = [gf.compute_jets(img, bank, points[i:i + 34]) for i in range(0, 1000, 34)]
        assert np.array_equal(jets, np.concatenate(in_34s))
        assert np.array_equal(jets, padded_kernel(img, bank, points))

    def test_a_window_wider_than_a_batch_takes_one_point_at_a_time(self):
        # at the widest kernel, 2h+1 = 2,049 > WINDOW_SAMPLES window samples
        # of a point: its batches are single points, and the store is the bound
        bank = gf.FilterBank([3.0], [0.0], 512.0)
        img = smooth_image(8, size=7)
        points = [(0.0, 0.0), (3.4, 2.6), (6.9, 6.9)]
        jets, store = on_fresh_thread(self.call_and_store, img, bank, points)
        assert store == {"kernel": [(self.bound(bank),)]} == self.kept_buffer(bank, 3)
        assert np.array_equal(jets, padded_kernel(img, bank, points))

    def test_threads_coding_at_once_match_serial_calls(self):
        # each thread codes every image and point count in its own order, so
        # the threads' shapes differ from call to call
        rng = np.random.default_rng(17)
        bank = gf.FilterBank()
        tasks = [(smooth_image(seed, size=64 + 16 * seed),
                  rng.uniform(0, 63, (count, 2)))
                 for seed, count in enumerate((1, 34, 5, 100))]
        serial = [gf.compute_jets(img, bank, points) for img, points in tasks]
        start = threading.Barrier(len(tasks), timeout=60)
        coded = [[] for _ in tasks]

        def code(first):
            start.wait()
            for step in range(2 * len(tasks)):
                task = (first + step) % len(tasks)
                img, points = tasks[task]
                coded[first].append((task, gf.compute_jets(img, bank, points)))

        threads = [threading.Thread(target=code, args=(i,)) for i in range(len(tasks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(results) for results in coded] == [2 * len(tasks)] * len(tasks)
        for results in coded:
            for task, jets in results:
                assert np.array_equal(jets, serial[task])

    def test_compute_jet_is_a_row_of_compute_jets(self):
        img = smooth_image(4, size=64)
        bank = gf.FilterBank()
        points = [(10.25, 50.0), (33.5, 12.5)]
        jets = gf.compute_jets(img, bank, points)
        for point, row in zip(points, jets):
            np.testing.assert_array_equal(
                gf.compute_jet(img, bank, point), row)

    def test_one_out_of_bounds_point_fails_the_batch(self):
        img = smooth_image(0, size=32)
        bank = gf.FilterBank()
        for bad in [(-0.5, 5.0), (5.0, 32.0), (40.0, 5.0), (float("nan"), 3.0)]:
            with pytest.raises(ParameterError, match="outside 32x32 image"):
                gf.compute_jets(img, bank, [(4.0, 4.0), bad, (8.0, 8.0)])

    def test_empty_point_list(self):
        img = smooth_image(0, size=32)
        assert gf.compute_jets(img, gf.FilterBank(), []).shape == (0, 18)

    @pytest.mark.parametrize("points", [
        [(10, 20, 30), (40, 50, 60)],
        [[10, 20, 30, 40]],
        [10, 20],
        [[[10, 20]]],
    ])
    def test_points_must_be_xy_pairs(self, points):
        img = smooth_image(0, size=64)
        with pytest.raises(ParameterError, match="points must be"):
            gf.compute_jets(img, gf.FilterBank(), points)

    def test_any_2d_array_like_is_an_image(self):
        img = smooth_image(5, size=16)
        bank, points = gf.FilterBank(), [(3.5, 8.0), (12.0, 2.25)]
        assert np.array_equal(gf.compute_jets(img.tolist(), bank, points),
                              gf.compute_jets(img, bank, points))

    def test_bad_images(self):
        # 1-D, 3-D, empty, holding inf, holding NaN; the point lies inside
        # every image that has pixels, so only the image is at fault
        for image in (np.ones(16), np.ones((4, 4, 1)), np.empty((0, 4)),
                      [[1.0, 2.0], [3.0, math.inf]], [[math.nan]]):
            with pytest.raises(ParameterError, match="image must be"):
                gf.compute_jets(image, gf.FilterBank(), [(0.0, 0.0)])


class TestPgmIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = np.reshape(rng.integers(0, 256, size=35).astype(float), (5, 7))
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = gf.read_pgm(path.read_bytes())
        assert back.shape == (5, 7) and back.dtype == np.float64
        np.testing.assert_array_equal(back, img)

    def test_header_comments(self):
        data = b"P5\n# a comment\n2 2\n# another\n255\n\x00\x40\x80\xff"
        img = gf.read_pgm(data)
        np.testing.assert_array_equal(img, [[0, 64], [128, 255]])

    def test_comment_after_maxval(self):
        # netpbm allows a comment between maxval and the one whitespace byte
        # that delimits the raster; the raster's own bytes are never one
        data = b"P5 2 2 255#hi\n\n" + bytes([10, 20, 30, 40])
        np.testing.assert_array_equal(gf.read_pgm(data), [[10, 20], [30, 40]])
        data = b"P5 2 2 255\n" + bytes([35, 20, 30, 40])
        np.testing.assert_array_equal(gf.read_pgm(data), [[35, 20], [30, 40]])

    def test_comment_ends_at_a_carriage_return(self):
        # netpbm ends a comment at the next CR or LF; after maxval the comment
        # runs through its CR, and the LF is the raster's whitespace byte
        np.testing.assert_array_equal(gf.read_pgm(b"P5\n#c\r2 2\n255\n" + bytes(4)),
                                      np.zeros((2, 2)))
        data = b"P5 2 2 255#c\r\n" + bytes([10, 20, 30, 40])
        np.testing.assert_array_equal(gf.read_pgm(data), [[10, 20], [30, 40]])

    @pytest.mark.parametrize("data", [b"P5 2 2 255#hi\nABCD", b"P5 2 2 255",
                                      b"P5 2 2 255#hi"],
                             ids=["raster-after-comment", "end", "end-in-comment"])
    def test_rejects_a_raster_without_its_whitespace_byte(self, data):
        with pytest.raises(FormatError, match="one whitespace byte"):
            gf.read_pgm(data)

    @pytest.mark.parametrize("header,field", [
        (b"P5 +2 1 255\n", "width"), (b"P5 2_0 1 255\n", "width"),
        (b"P5 2 -1 255\n", "height"), (b"P5 2 1 +255\n", "maxval"),
        (b"P5 2 1 2_55\n", "maxval")],
        ids=["width-sign", "width-underscore", "height-sign", "maxval-sign",
             "maxval-underscore"])
    def test_rejects_a_header_number_that_is_not_decimal_digits(self, header, field):
        # netpbm header numbers are ASCII decimal digits; int() takes more
        with pytest.raises(FormatError, match=f"PGM {field} must be decimal digits"):
            gf.read_pgm(header + bytes(20))

    def test_rejects_a_header_field_too_long_for_int(self):
        # int() refuses a decimal string of over 4,300 digits
        with pytest.raises(FormatError, match="header field too long"):
            gf.read_pgm(b"P5 " + b"1" * 5000 + b" 1 255\n" + bytes(4))

    def test_rejects_non_p5(self):
        with pytest.raises(FormatError):
            gf.read_pgm(b"P2\n2 2\n255\n0 0 0 0")

    def test_rejects_truncated_raster(self):
        with pytest.raises(FormatError):
            gf.read_pgm(b"P5\n4 4\n255\n\x00\x00")

    def test_rejects_16_bit(self):
        with pytest.raises(FormatError):
            gf.read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n", b"P5\n3 0\n255\n"],
                             ids=["0-wide", "0-high"])
    def test_rejects_an_empty_size(self, header):
        with pytest.raises(FormatError, match="PGM size must be >= 1x1"):
            gf.read_pgm(header + b"\x00" * 12)

    def test_rejects_a_sample_above_maxval(self):
        # netpbm bounds every sample by maxval; a sample at maxval is valid
        with pytest.raises(FormatError, match="above maxval 15"):
            gf.read_pgm(b"P5\n2 1\n15\n\x00\xff")
        np.testing.assert_array_equal(gf.read_pgm(b"P5\n2 1\n15\n\x00\x0f"), [[0, 15]])


def coded_document(bank, size=64):
    """A jet document for a random 34-node placement on a smooth image."""
    rng = np.random.default_rng(9)
    placement = default_template_placement(
        "img1", rng.uniform(0, size - 1, (34, 2)), (size, size))
    jets = gf.compute_jets(smooth_image(9, size=size), bank, placement.points)
    return gf.gabor.jet_document("img1", bank, placement, jets), placement, jets


class TestJetDocument:
    def test_round_trip(self):
        bank = gf.FilterBank()
        doc, placement, jets = coded_document(bank)
        placement2, bank2, jets2 = gf.gabor.parse_jet_document(
            json.loads(json.dumps(doc)))
        assert grid_document(placement2) == grid_document(placement)
        assert bank2 == bank
        np.testing.assert_array_equal(jets2, jets)

    def test_malformed_document(self):
        with pytest.raises(FormatError):
            gf.gabor.parse_jet_document({"image_id": "x"})

    def test_document_without_placement_asks_for_encode(self, tmp_path):
        doc, _, _ = coded_document(gf.FilterBank([1.0], [0.0], 1.0))
        del doc["source_size"], doc["nose_tip"]
        with pytest.raises(FormatError, match="missing 'source_size'"):
            gf.gabor.parse_jet_document(doc)
        path = tmp_path / "img1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="re-run the encode stage$"):
            _read(path, gf.gabor.parse_jet_document, stage="encode")

    def test_document_without_its_bank_names_it(self):
        doc, _, _ = coded_document(gf.FilterBank([1.0], [0.0], 1.0))
        del doc["bank"]
        with pytest.raises(FormatError, match="missing 'bank'"):
            gf.gabor.parse_jet_document(doc)

    def test_amplitudes_of_another_bank_size_are_refused(self):
        doc, _, _ = coded_document(gf.FilterBank())
        for point in doc["points"]:
            point["amplitudes"] = point["amplitudes"][:17]
        with pytest.raises(FormatError, match=r"amplitudes of shape \(34, 17\)"):
            gf.gabor.parse_jet_document(doc)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        doc, _, _ = coded_document(gf.FilterBank([1.0], [0.0], 1.0))
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
        doc, _, _ = coded_document(gf.FilterBank([1.0], [0.0], 1.0))
        doc["points"][0] = point
        with pytest.raises(FormatError):
            gf.gabor.parse_jet_document(doc)
