import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import freqwin
from freqwin import (WindowSpec, f_err, overlap_variance, window_area,
                     window_spectrum, window_table, window_value)
from freqwin.windows import SIN_MAX_ORDER, _spectrum_samples


def make(family, order=1.0, length=1.0):
    return WindowSpec(family=family, order=order, length=length)


class TestWindowValue:
    def test_cinf_center_is_one(self):
        assert window_value(make("cinf", 1), 0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert window_value(make("cinf", 4, 2.0), 0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_sin2_quarter(self):
        # sin^2(pi/4) = 1/2
        assert window_value(make("sin", 2), 0, 0.25) == pytest.approx(0.5, abs=1e-14)

    def test_sin_center_is_one(self):
        for n in (1, 2, 3, 4, 7):
            assert window_value(make("sin", n), 0, 0.5) == pytest.approx(1.0, abs=1e-13)

    def test_zero_outside_support(self):
        for fam in ("sin", "cinf", "poly_ref", "rectangular"):
            spec = make(fam, 2)
            assert window_value(spec, 0, -0.1) == 0.0
            assert window_value(spec, 0, 1.1) == 0.0

    def test_cinf_first_derivative_matches_finite_difference(self):
        spec = make("cinf", 1)
        h = 1e-6
        t = 0.25
        fd = (window_value(spec, 0, t + h) - window_value(spec, 0, t - h)) / (2 * h)
        exact = window_value(spec, 1, t)
        assert abs(fd - exact) / abs(exact) < 1e-6

    def test_cinf_fractional_order(self):
        spec = make("cinf", 0.25)
        assert window_value(spec, 0, 0.5) == pytest.approx(1.0, abs=1e-15)
        # derivative stays finite and matches finite differences
        h = 1e-6
        fd = (window_value(spec, 0, 0.3 + h) - window_value(spec, 0, 0.3 - h)) / (2 * h)
        assert abs(fd - window_value(spec, 1, 0.3)) / abs(fd) < 1e-6

    def test_rectangular_derivative_rejected(self):
        with pytest.raises(ValueError, match="rectangular"):
            window_value(make("rectangular"), 1, 0.5)

    def test_endpoints_are_one_sided_limits(self):
        # sin_1 derivative limit at 0+ is pi/T
        spec = make("sin", 1, 2.0)
        assert window_value(spec, 1, 0.0) == pytest.approx(np.pi / 2.0, rel=1e-13)

    def test_vectorized(self):
        t = np.linspace(-0.5, 1.5, 101)
        vals = window_value(make("sin", 3), 0, t)
        assert vals.shape == t.shape
        assert (vals[t < 0] == 0).all() and (vals[t > 1] == 0).all()


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            WindowSpec(family="hann")

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            WindowSpec(family="sin", order=1.5)
        with pytest.raises(ValueError):
            WindowSpec(family="sin", order=0)
        with pytest.raises(ValueError):
            WindowSpec(family="cinf", order=0.0)
        with pytest.raises(ValueError):
            WindowSpec(family="sin", order=2, length=-1.0)
        with pytest.raises(ValueError, match="sin order"):
            WindowSpec(family="sin", order=1100)
        with pytest.raises(ValueError, match="sin order"):
            WindowSpec(family="sin", order=SIN_MAX_ORDER + 1)

    def test_largest_sin_order_is_accurate(self):
        # the exponential expansion still cancels to full precision here
        spec = WindowSpec(family="sin", order=SIN_MAX_ORDER)
        t = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(window_value(spec, 0, t), np.sin(np.pi * t) ** SIN_MAX_ORDER,
                                   rtol=0, atol=1e-14)
        assert window_area(spec) == pytest.approx(
            integrate.quad(lambda x: np.sin(np.pi * x) ** SIN_MAX_ORDER, 0, 1)[0], rel=1e-12)

    @pytest.mark.parametrize("family", ["sin", "cinf", "poly_ref", "rectangular"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_order_and_length(self, family, bad):
        with pytest.raises(ValueError, match="finite"):
            WindowSpec(family=family, order=bad)
        with pytest.raises(ValueError, match="finite"):
            WindowSpec(family=family, order=2, length=bad)


class TestCinfDerivativeOracle:
    """The float prefactor path against 50-digit numerical differentiation
    of exp(4n - n/(s(1-s))), which shares nothing with it."""

    @pytest.mark.parametrize("order", [0.25, 0.3125, 1.0, 4.0, 7.9375])
    def test_matches_mpmath(self, order):
        spec = make("cinf", order)
        t = np.array([6, 12, 384, 756, 762]) * (1.0 / 768)
        with mpmath.workdps(50):
            n = mpmath.mpf(order)

            def bump(s):
                return mpmath.exp(4 * n - n / (s * (1 - s)))

            for k in range(1, 5):
                got = window_value(spec, k, t)
                # the exact value of each float t; ref underflows to 0
                # exactly where the float path returns 0
                ref = np.array([float(mpmath.diff(bump, mpmath.mpf(float(tj)), k))
                                for tj in t])
                assert (np.abs(got - ref) <= 1e-12 * np.abs(ref)).all(), (k, got, ref)


class TestWindowTable:
    def test_sin1_four_samples(self):
        table = window_table(make("sin", 1), 4, 0)
        expect = [0.0, np.sin(np.pi / 4), 1.0, np.sin(3 * np.pi / 4)]
        np.testing.assert_allclose(table.samples[0], expect, atol=1e-15)

    def test_cinf4_endpoint_rows_vanish(self):
        table = window_table(make("cinf", 4), 1024, 3)
        assert np.abs(table.samples[:, 0]).max() == 0.0
        assert np.abs(table.samples[:, -1]).max() < 1e-13

    def test_sin_endpoint_smoothness(self):
        # rows 0..n-1 vanish exactly at both edges
        for n in (2, 3, 4):
            table = window_table(make("sin", n), 256, n)
            t_edges = np.array([0.0, 1.0])
            for k in range(n):
                edge = window_value(make("sin", n), k, t_edges)
                np.testing.assert_allclose(edge, 0.0, atol=1e-12)

    @pytest.mark.parametrize("family,order", [("sin", 1), ("sin", 4),
                                              ("cinf", 1), ("cinf", 4),
                                              ("poly_ref", 6)])
    def test_derivative_rows_match_oversampled_differences(self, family, order):
        # row 1 vs central differences of row 0 at 64x oversampling
        spec = make(family, order)
        n = 256
        over = 64
        fine = window_table(spec, n * over, 1)
        coarse = window_table(spec, n, 1)
        h = 1.0 / (n * over)
        w0 = fine.samples[0]
        interior = slice(int(0.05 * n), int(0.95 * n))
        idx = np.arange(n)[interior] * over
        fd = (w0[idx + 1] - w0[idx - 1]) / (2 * h)
        fd = fd + (w0[idx - 2] - 2 * w0[idx - 1] + 2 * w0[idx + 1] - w0[idx + 2]) * 0
        exact = coarse.samples[1][interior]
        scale = np.abs(exact).max()
        assert np.abs(fd - exact).max() / scale < 1e-6

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            window_table(make("sin", 1), 1, 0)


def hann_transform(freq, length):
    """Closed-form transform of sin^2(pi t/T) over [0, T]."""
    nu = np.asarray(freq, dtype=float) * length
    out = np.empty(nu.shape, dtype=complex)
    special = np.isclose(np.abs(nu), 1.0) | np.isclose(nu, 0.0)
    safe = np.where(special, 2.0, nu)
    out = np.exp(-1j * np.pi * safe) * np.sin(np.pi * safe) / (
        2 * np.pi * safe * (safe**2 - 1.0)) * (-length)
    out[np.isclose(nu, 0.0)] = 0.5 * length
    out[np.isclose(nu, 1.0)] = -0.25 * length
    out[np.isclose(nu, -1.0)] = -0.25 * length
    return out


class TestWindowSpectrum:
    def test_sin1_area(self):
        spec = make("sin", 1, 2.0)
        sp = window_spectrum(spec, 0, f_max=4.0)
        assert abs(sp.coeffs[0, 0]) == pytest.approx(2 * 2.0 / np.pi, rel=1e-6)

    def test_cinf1_deep_rejection(self):
        # Table value: f_err at 1e-12 is 64/T, so the bin there is below 1e-12
        sp = window_spectrum(make("cinf", 1), 0, f_max=64.0)
        ratio = abs(sp.coeffs[0, 64]) / abs(sp.coeffs[0, 0])
        assert ratio < 1e-12

    def test_sin2_matches_closed_form(self):
        length = 1.0
        sp = window_spectrum(make("sin", 2, length), 0, f_max=32.0)
        expect = hann_transform(sp.freqs, length)
        scale = abs(expect[0])
        assert np.abs(sp.coeffs[0] - expect).max() / scale < 1e-10

    def test_f_max_must_be_bin_multiple(self):
        with pytest.raises(ValueError):
            window_spectrum(make("sin", 1), 0, f_max=1.5)


def test_spectrum_samples_own_their_memory():
    # views into the convolution buffer would keep it alive in the cache
    freqs, coeffs = _spectrum_samples(make("cinf", 0.4375), 1, 104.0, refine=16)
    assert freqs.base is None and coeffs.base is None
    assert freqs.size == coeffs.size == 104 * 16 + 1


@pytest.mark.parametrize("spec", [make("sin", 2), make("cinf", 0.3125)],
                         ids=lambda s: s.label)
@pytest.mark.parametrize("k", [0, 1])
def test_refined_transform_matches_direct_dft(spec, k):
    """The chirp z-transform bins of f_err's default range against the direct
    DFT sum_j v_j exp(-2 pi i (j q mod M) / M) of the same samples.  With
    j = 1024 a + b the phase splits into two integer-reduced factors, so
    the sum over b runs as one matrix product for all bins at once."""
    freqs, coeffs = _spectrum_samples(spec, k, 10000.0 * 1.02 + 4.0, refine=16)
    n, size, block = 1 << 19, 16 << 19, 1024
    keep = coeffs.size - 1
    assert keep == 163264
    v = window_value(spec, k, np.arange(n) / n)
    v[0] = 0.5 * (window_value(spec, k, 0.0) + window_value(spec, k, 1.0))
    rng = np.random.default_rng(11)
    q = np.unique(np.concatenate([[0, 1, 15, 16, 17, 161], rng.integers(2, keep - 16, 18),
                                  np.arange(keep - 15, keep + 1)]))[:, None]
    inner = np.exp(-2j * np.pi * ((q * np.arange(block)) % size) / size)
    outer = np.exp(-2j * np.pi * ((q * np.arange(0, n, block)) % size) / size)
    # each row is summed pairwise: a running sum over a would add 1.5e-15
    direct = ((inner @ v.reshape(-1, block).T) * outer).sum(axis=1) / n
    np.testing.assert_array_equal(freqs[q[:, 0]], q[:, 0] / 16)
    # Scale: the transform's peak (|coeffs[0]| for k = 0; ~0 for k = 1).
    # Observed 3e-16.  A chirp phase formed in floats, pi j^2 / M, gives
    # 6e-15 to 1e-14; scipy.signal.czt's complex power 1e-9.
    err = np.abs(coeffs[q[:, 0]] - direct).max() / np.abs(coeffs).max()
    assert err <= 2e-15


def test_no_sympy_at_runtime():
    code = ("import sys, freqwin\n"
            "spec = freqwin.WindowSpec(family='cinf', order=0.25)\n"
            "freqwin.window_table(spec, 64, 4)\n"
            "freqwin.f_err(spec, 1, 1e-6)\n"
            "assert 'sympy' not in sys.modules, 'sympy imported'\n")
    src = str(Path(freqwin.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src,
                   env={**os.environ, "PYTHONPATH": src})


class TestFErr:
    # Table-1 reproduction is exercised in the acceptance suite; these pin
    # the machine-checkable cases and the qualitative structure.
    def test_sin1_base(self):
        assert f_err(make("sin", 1), 0, 1e-3) == pytest.approx(16.0)

    def test_cinf1_micro(self):
        assert f_err(make("cinf", 1), 0, 1e-6) == pytest.approx(19.0)

    def test_sin2_derivative(self):
        assert f_err(make("sin", 2), 1, 1e-3) == pytest.approx(45.0)

    def test_scaling_with_length(self):
        # values are in units of 1/T
        v1 = f_err(make("sin", 1, 1.0), 0, 1e-3)
        v2 = f_err(make("sin", 1, 2.0), 0, 1e-3)
        assert v1 == pytest.approx(2 * v2)

    def test_sentinel(self):
        assert np.isinf(f_err(make("sin", 1), 0, 1e-12))

    def test_monotone_in_p(self):
        spec = make("cinf", 2)
        vals = [f_err(spec, 0, p) for p in (1e-3, 1e-6, 1e-12)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_monotone_in_derivative_order(self):
        spec = make("cinf", 1)
        vals = [f_err(spec, k, 1e-6) for k in (0, 1, 2, 3)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("order,expect", [
        (0.3125, ((10, 38, 159), (29, 82, 260))),
        (4.5, ((7, 13, 29), (10, 18, 36))),
        (7.25, ((9, 13, 26), (11, 17, 32))),
    ])
    def test_pinned_cinf_values(self, order, expect):
        spec = make("cinf", order)
        got = tuple(tuple(f_err(spec, k, p) for p in (1e-3, 1e-6, 1e-12)) for k in (0, 1))
        assert got == expect

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            f_err(make("sin", 1), 0, 2.0)
        with pytest.raises(ValueError):
            f_err(make("sin", 1), 0, 0.0)


class TestSpectralDecay:
    def test_sin_envelope_slopes(self):
        # envelope of |w_hat| falls at least like 1/f^(n+1)
        from freqwin.windows import _spectrum_samples

        for n in (1, 2, 3, 4):
            freqs, coeffs = _spectrum_samples(make("sin", n), 0, 110.0, refine=16)
            mag = np.abs(coeffs)
            env = np.maximum.accumulate(mag[::-1])[::-1]
            pick = np.arange(10, 101) * 16
            slope = np.polyfit(np.log(np.arange(10, 101)), np.log(env[pick]), 1)[0]
            assert slope <= -(n + 1) + 0.3

    def test_cinf_beats_every_sin_at_100(self):
        from freqwin.windows import _spectrum_samples

        def env_at_100(spec):
            freqs, coeffs = _spectrum_samples(spec, 0, 110.0, refine=16)
            mag = np.abs(coeffs) / abs(coeffs[0])
            env = np.maximum.accumulate(mag[::-1])[::-1]
            return env[100 * 16]

        for cn in (1, 2, 4):
            c = env_at_100(make("cinf", cn))
            for sn in (1, 2, 3, 4):
                s = env_at_100(make("sin", sn))
                assert c < 1e-4 * s


class TestOverlapVariance:
    def test_rect_zero_overlap(self):
        for k in (1, 4, 10):
            assert overlap_variance(make("rectangular"), 0.0, k) == pytest.approx(1.0 / k)

    def test_rect_half_overlap_large_k(self):
        k = 400
        val = overlap_variance(make("rectangular"), 0.5, k)
        # rho_1 = 0.25, others zero
        assert val * k == pytest.approx(1.0 + 2 * (k - 1) / k * 0.25, rel=1e-12)

    def test_rect_analytic_rho(self):
        # rho_j = max(0, 1 - j(1 - tau))^2 for the rectangular window
        k = 50
        for tau in (0.25, 0.6, 0.8):
            expect = 1.0
            for j in range(1, k):
                rho = max(0.0, 1.0 - j * (1.0 - tau)) ** 2
                expect += 2 * (k - j) / k * rho
            expect /= k
            assert overlap_variance(make("rectangular"), tau, k) == pytest.approx(
                expect, rel=1e-12)

    def test_sin2_half_overlap_golden(self):
        # quadrature oracle for the Hann autocorrelation at half shift
        num, _ = integrate.quad(
            lambda t: np.sin(np.pi * t) ** 2 * np.sin(np.pi * (t - 0.5)) ** 2, 0.5, 1.0)
        den, _ = integrate.quad(lambda t: np.sin(np.pi * t) ** 4, 0.0, 1.0)
        rho1 = (num / den) ** 2
        assert rho1 == pytest.approx(1.0 / 36.0, rel=1e-9)  # frozen golden value
        k = 300
        val = overlap_variance(make("sin", 2), 0.5, k)
        assert val * k == pytest.approx(1.0 + 2 * (k - 1) / k * rho1, rel=1e-9)

    def test_variance_non_increasing_at_fixed_data_length(self):
        # K grows with tau at fixed record length L = 20 T; the trend is
        # non-increasing up to sub-percent wiggles from the integer window
        # count
        base = 20
        # rectangular plateaus at its analytic 2/3 limit, smooth windows gain more
        for spec, floor in ((make("rectangular"), 0.75), (make("sin", 2), 0.6),
                            (make("sin", 4), 0.6)):
            taus = np.linspace(0.0, 0.9, 19)
            vals = []
            for tau in taus:
                k = int(np.floor((base - 1) / (1.0 - tau))) + 1
                vals.append(overlap_variance(spec, float(tau), k))
            vals = np.array(vals)
            diffs = np.diff(vals)
            assert (diffs <= 0.01 * vals[:-1]).all()
            assert vals[-1] < floor * vals[0]

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            overlap_variance(make("sin", 1), 1.0, 5)
        with pytest.raises(ValueError):
            overlap_variance(make("sin", 1), 0.5, 0)


def test_window_area_matches_quadrature():
    for spec in (make("sin", 3), make("cinf", 2), make("poly_ref", 4)):
        val, _ = integrate.quad(lambda t: window_value(spec, 0, t), 0.0, 1.0,
                                limit=200)
        assert window_area(spec) == pytest.approx(val, rel=1e-9)
