import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import freqwin
from freqwin import (Signal, WindowSpec, f_err, overlap_variance, window_area,
                     window_spectrum, window_table, window_value)
from freqwin import windows
from freqwin.windows import F_ERR_SEARCH_BINS, SIN_MAX_ORDER, _spectrum_samples


def make(family, order=1.0):
    return WindowSpec(family=family, order=order)


class TestWindowValue:
    def test_cinf_center_is_one(self):
        assert window_value(make("cinf", 1), 0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert window_value(make("cinf", 4), 0, 0.5) == pytest.approx(1.0, abs=1e-15)

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
        # sin_1 derivative limit at 0+ is pi
        spec = make("sin", 1)
        assert window_value(spec, 1, 0.0) == pytest.approx(np.pi, rel=1e-13)

    def test_vectorized(self):
        t = np.linspace(-0.5, 1.5, 101)
        vals = window_value(make("sin", 3), 0, t)
        assert vals.shape == t.shape
        assert (vals[t < 0] == 0).all() and (vals[t > 1] == 0).all()


class TestSpecValidation:
    def test_window_is_only_a_shape(self):
        # the record it multiplies supplies the length T
        assert [f.name for f in fields(WindowSpec)] == ["family", "order"]

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
        with pytest.raises(ValueError, match="sin order"):
            WindowSpec(family="sin", order=1100)
        with pytest.raises(ValueError, match="sin order"):
            WindowSpec(family="sin", order=SIN_MAX_ORDER + 1)

    @pytest.mark.parametrize("order", [1, 3])
    def test_odd_poly_ref_order_rejected(self, order):
        # 1 - (s - 1/2)^n is asymmetric for odd n: poly_3 is 1.125 at t = 0
        with pytest.raises(ValueError, match="poly_ref order must be even"):
            WindowSpec(family="poly_ref", order=order)

    def test_largest_sin_order_is_accurate(self):
        spec = WindowSpec(family="sin", order=SIN_MAX_ORDER)
        t = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(window_value(spec, 0, t), np.sin(np.pi * t) ** SIN_MAX_ORDER,
                                   rtol=0, atol=1e-14)
        assert window_area(spec) == pytest.approx(
            integrate.quad(lambda x: np.sin(np.pi * x) ** SIN_MAX_ORDER, 0, 1)[0], rel=1e-12)

    @pytest.mark.parametrize("family", ["sin", "cinf", "poly_ref", "rectangular"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_order_and_length(self, family, bad):
        # the record, not the window, carries the length T
        with pytest.raises(ValueError, match="finite"):
            WindowSpec(family=family, order=bad)
        with pytest.raises(ValueError, match="finite"):
            Signal(length=bad, values=np.ones(4))


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


class TestSinDerivativeOracle:
    """The sin^a cos^b sums against 50-digit numerical differentiation of
    sin^n(pi t), which shares nothing with them."""

    @pytest.mark.parametrize("order", [1, 2, 4, 9, 64])
    def test_matches_mpmath(self, order):
        spec = make("sin", order)
        t = np.array([0, 6, 12, 180, 300, 360, 375, 384, 390, 400, 756, 762, 768]) / 768
        with mpmath.workdps(50):
            def sine_power(x):
                return mpmath.sin(mpmath.pi * x) ** order

            for k in range(5):
                got = window_value(spec, k, t)
                ref = np.array([float(mpmath.diff(sine_power, mpmath.mpf(float(tj)), k))
                                for tj in t])
                peak = np.abs(ref).max()
                assert np.abs(got - ref).max() <= 1e-13 * peak, (k, got, ref)


@st.composite
def any_window(draw):
    family = draw(st.sampled_from(["sin", "cinf", "poly_ref", "rectangular"]))
    if family == "rectangular":
        return WindowSpec(family, 1.0), 0
    order = {"sin": st.integers(1, SIN_MAX_ORDER), "cinf": st.floats(0.25, 8.0),
             "poly_ref": st.integers(1, 6).map(lambda h: 2 * h)}[family]
    return WindowSpec(family, draw(order)), draw(st.integers(0, 4))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=any_window(), frac=st.floats(0.0, 1.0))
def test_every_window_is_even_about_its_centre(case, frac):
    """w^(k)(1 - s) = (-1)^k w^(k)(s), the symmetry the half-record spectrum
    relies on, checked pointwise on the analytic derivatives."""
    spec, k = case
    s = frac
    scale = np.abs(window_value(spec, k, np.linspace(0.0, 1.0, 4097))).max()
    mirrored = window_value(spec, k, 1.0 - s)
    assert abs(mirrored - (-1) ** k * window_value(spec, k, s)) <= 1e-12 * scale


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

    @pytest.mark.parametrize("family, order, first_bad", [
        ("cinf", 0.25, 44), ("cinf", 1, 50), ("cinf", 4, 59), ("sin", 2, 387)])
    def test_first_overflowing_row_raises(self, family, order, first_bad):
        # the row used to be returned holding -inf (cinf) or inf (sin)
        spec = make(family, order)
        assert np.isfinite(window_table(spec, 4096, first_bad - 1).samples).all()
        with pytest.raises(OverflowError,
                           match=rf"^derivative {first_bad} of window {spec.label} "
                                 "overflows float64$"):
            window_table(spec, 4096, first_bad + 10)

    @pytest.mark.parametrize("order", [0.25, 0.4375, 1, 3.3125, 8])
    def test_cinf_rows_together_equal_one_order_at_a_time(self, order):
        # a table and a transform pair share one support mask, exponent and
        # exp across their rows; not a bit of any row may move for it.  The
        # points include the edges, a subnormal s, both sides of the exp
        # floor (s = 0.01105 for order 8) and points outside the support.
        spec = make("cinf", order)
        s = np.concatenate([[-0.5, 0.0, 5e-324, 1e-300, 1e-3, 0.011, 0.0111],
                            np.arange(1, 1000) * (1.0 / 1000), [1.0 - 1e-16, 1.0, 1.5]])
        together = windows._window_rows(spec, range(5), s)
        table = window_table(spec, 1000, 4)
        grid = np.arange(1000) * (1.0 / 1000)
        for k in range(5):
            np.testing.assert_array_equal(together[k], window_value(spec, k, s))
            np.testing.assert_array_equal(table.samples[k], window_value(spec, k, grid))


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
        spec = make("sin", 1)
        sp = window_spectrum(spec, 0, f_max=4)
        assert abs(sp.coeffs[0, 0]) == pytest.approx(2 / np.pi, rel=1e-6)

    def test_cinf1_deep_rejection(self):
        # Table value: f_err at 1e-12 is 64/T, so the bin there is below 1e-12
        sp = window_spectrum(make("cinf", 1), 0, f_max=64.0)
        ratio = abs(sp.coeffs[0, 64]) / abs(sp.coeffs[0, 0])
        assert ratio < 1e-12

    def test_sin2_matches_closed_form(self):
        length = 1.0
        sp = window_spectrum(make("sin", 2), 0, f_max=32.0)
        expect = hann_transform(sp.freqs, length)
        scale = abs(expect[0])
        assert np.abs(sp.coeffs[0] - expect).max() / scale < 1e-10

    def test_f_max_must_be_bin_multiple(self):
        with pytest.raises(ValueError):
            window_spectrum(make("sin", 1), 0, f_max=1.5)

    @pytest.mark.parametrize("f_max", [0, F_ERR_SEARCH_BINS])
    def test_f_max_range_ends(self, f_max):
        sp = window_spectrum(make("sin", 1), 0, f_max=f_max)
        np.testing.assert_array_equal(sp.freqs, np.arange(f_max + 1))
        assert abs(sp.coeffs[0, 0]) == pytest.approx(2 / np.pi, rel=1e-6)

    @pytest.mark.parametrize("f_max", [-4, F_ERR_SEARCH_BINS + 1, 1e9, np.inf, np.nan])
    def test_f_max_out_of_range(self, f_max):
        # 1e9 used to ask for 128 GiB, inf to overflow int(), -4 to fail
        # inside numpy's broadcasting
        with pytest.raises(ValueError, match=rf"\[0, {F_ERR_SEARCH_BINS}\]"):
            window_spectrum(make("sin", 1), 0, f_max=f_max)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rectangular_derivative_rejected(self, k):
        # the pair transform packs a zero partner row for the rectangular
        # window, so this check alone keeps its rounding from passing as a
        # derivative spectrum
        with pytest.raises(ValueError, match="no derivative spectra"):
            window_spectrum(make("rectangular"), k)


def test_spectrum_samples_own_their_memory():
    # views into the convolution buffer would keep it alive with the spectra
    for k in (0, 2):
        freqs, coeffs = _spectrum_samples(make("cinf", 0.4375), k, 104.0, refine=16)
        assert freqs.base is None and coeffs.base is None
        assert freqs.shape == (104 * 16 + 1,) and coeffs.shape == (2, 104 * 16 + 1)


# sin_2 at k = 2 has a nonzero wrap sample (2 pi^2); rect (k = 0) and
# poly_ref_6 (k = 1) are nonzero at the record's edges.  The samples of
# sin_64's pair (2, 3) peak at 632 and 2.2e4, those of poly_ref_6's pair
# (0, 1) at 1 and 0.19: each row must keep its rounding relative to its
# own peak.
DFT_CASES = [(k, make("sin", 2)) for k in (0, 1, 2, 3)] + [
    (k, make("cinf", 0.3125)) for k in (0, 1)] + [
    (k, make("poly_ref", 6)) for k in (0, 1)] + [
    (k, make("sin", 64)) for k in (2, 3)] + [(0, make("rectangular"))]


def direct_dft(spec, k, n, size, q):
    """sum_j v_j exp(-2 pi i (j q mod size) / size) / n over all n samples
    of d^k w/ds^k alone, which uses no symmetry and no partner row.  With
    j = 1024 a + b the phase splits into two integer-reduced factors, so
    the sum over b runs as one matrix product for all bins at once."""
    block = 1024
    v = window_value(spec, k, np.arange(n) / n)
    v[0] = 0.5 * (window_value(spec, k, 0.0) + window_value(spec, k, 1.0))
    q = q[:, None]
    inner = np.exp(-2j * np.pi * ((q * np.arange(block)) % size) / size)
    outer = np.exp(-2j * np.pi * ((q * np.arange(0, n, block)) % size) / size)
    # each row is summed pairwise: a running sum over a would add 1.5e-15
    return ((inner @ v.reshape(-1, block).T) * outer).sum(axis=1) / n


@pytest.mark.parametrize("k,spec", DFT_CASES, ids=[f"{k}-{s.label}" for k, s in DFT_CASES])
def test_refined_transform_matches_direct_dft(spec, k):
    """Row k of the pair transform on f_err's default range, whose
    convolution runs on a 768 x 768 view, against the direct DFT."""
    freqs, pair = _spectrum_samples(spec, k - k % 2, 10000.0 * 1.02 + 4.0, refine=16)
    coeffs = pair[k % 2]
    keep = coeffs.size - 1
    assert keep == 163264
    rng = np.random.default_rng(11)
    q = np.unique(np.concatenate([np.arange(200), rng.integers(200, keep - 16, 18),
                                  np.arange(keep - 15, keep + 1)]))
    direct = direct_dft(spec, k, 1 << 19, 16 << 19, q)
    np.testing.assert_array_equal(freqs[q], q / 16)
    # Scale: the row's own peak.  Observed at most 7.6e-16, and 1.4e-15 for
    # sin_64, whose samples peak 12-14x above its transform (as for a
    # transform of the row alone).  Packing the rows unscaled puts
    # poly_ref_6's k = 1 row 5.0e-15 and sin_64's k = 2 row 7.3e-15 off, in
    # the bins below 200 where the partner row's transform is large; a chirp
    # phase formed in floats, pi j^2 / M, gives 6e-15 to 1e-14;
    # scipy.signal.czt's complex power 1e-9.
    err = np.abs(coeffs[q] - direct).max() / np.abs(coeffs).max()
    assert err <= 2e-15


# window_spectrum's plans: f_max <= 128 transforms 2^13-sample halves,
# 10 000 the 2^18-sample halves of f_err, without refinement; the
# convolution lengths 8192, 8748 and 294 912 split unevenly
SPECTRUM_SPLITS = {0: (64, 128), 1: (81, 108), 16: (81, 108), 128: (81, 108),
                   10000: (512, 576)}
SPECTRUM_CASES = [(f_max, k, spec) for f_max in SPECTRUM_SPLITS for k, spec in (
    (0, make("sin", 2)), (3, make("sin", 2)), (1, make("cinf", 0.3125)),
    (1, make("poly_ref", 6)), (3, make("sin", 64)), (0, make("rectangular")))]


@pytest.mark.parametrize("f_max,k,spec", SPECTRUM_CASES,
                         ids=[f"{f}-{k}-{s.label}" for f, k, s in SPECTRUM_CASES])
def test_window_spectrum_matches_direct_dft(f_max, k, spec):
    n = 1 << 14 if f_max <= 128 else 1 << 19
    n1, n2 = SPECTRUM_SPLITS[f_max]
    assert windows._chirp_plan(n // 2, f_max, n)[2].shape == (n1, n2)
    coeffs = window_spectrum(spec, k, f_max).coeffs[0]
    q = np.arange(f_max + 1)
    if f_max > 128:  # a sample of the bins
        rng = np.random.default_rng(f_max)
        q = np.unique(np.concatenate([np.arange(129), rng.integers(129, f_max - 15, 18),
                                      np.arange(f_max - 15, f_max + 1)]))
    # Scale: the row's peak, which lies below bin 128 in every case; the few
    # bins up to a small f_max may all be rounding-sized (bin 0 of an odd k).
    # Observed at most 1.2e-15, and 1.9e-15 for poly_ref_6's k = 1 row on
    # the 81 x 108 split, whose samples peak 11x above its transform: its
    # error is 1.7e-16 of that sample peak, one rounding.
    bins = np.union1d(q, np.arange(129))
    direct = direct_dft(spec, k, n, n, bins)
    err = np.abs(coeffs[q] - direct[np.searchsorted(bins, q)]).max() / np.abs(direct[:129]).max()
    assert err <= 2e-15


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 7), (3, 4), (4, 3), (8, 8), (81, 108)])
def test_dft_passes_match_numpy_fft(n1, n2):
    # forward: X_(k1 + n1 k2) at [k1, k2]; reversed: L x at -j mod L in
    # natural order.  n1 = 1 leaves the column FFTs and twiddles trivial.
    length = n1 * n2
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    twiddle = windows._roots(np.multiply.outer(np.arange(n1), np.arange(n2)), length)
    grid = x.reshape(n1, n2).copy()
    windows._dft_passes(grid, twiddle)
    want = np.fft.fft(x)
    assert np.abs(grid.T.ravel() - want).max() <= 1e-14 * np.abs(want).max()
    windows._dft_passes(grid, twiddle, reverse=True)
    back = length * x[-np.arange(length) % length]
    assert np.abs(grid.ravel() - back).max() <= 1e-14 * np.abs(back).max()


@pytest.mark.parametrize("length", [1, 2, 3, 8748, 589824, 16 << 20])
def test_roots_within_two_roundings(length):
    # every phase is rounded below pi / 4; phases up to 2 pi in floats put
    # the roots up to 8e-16 off
    rng = np.random.default_rng(length)
    m = np.concatenate([np.arange(min(length, 40)), rng.integers(0, 8 * length, 40)])
    got = windows._roots(m.copy(), length)
    with mpmath.workdps(30):
        err = max(abs(mpmath.mpc(g) - mpmath.expjpi(-2 * mpmath.mpf(int(v)) / length))
                  for g, v in zip(got, m))
    assert err <= 2.5e-16


def test_chirp_plan_is_read_only():
    # every transform of these sizes shares the plan: a caller's *= would
    # corrupt each later window_spectrum and f_err
    for a in windows._chirp_plan(8192, 16, 16384):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def test_no_sympy_at_runtime():
    # nor scipy: the window layer needs numpy only
    code = ("import sys, freqwin\n"
            "spec = freqwin.WindowSpec(family='cinf', order=0.25)\n"
            "freqwin.window_table(spec, 64, 4)\n"
            "freqwin.window_spectrum(spec, 1, 64)\n"
            "freqwin.f_err(spec, 1, 1e-6)\n"
            "assert 'sympy' not in sys.modules, 'sympy imported'\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = str(Path(freqwin.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src,
                   env={**os.environ, "PYTHONPATH": src})


# f_err at p = 1e-3, 1e-6, 1e-12 (columns) for k = 0..3 (rows).  None marks
# p S below 1e-14 of the k-th transform's peak (2.0e-16 to 9.4e-15 here),
# where f_err is rounding noise and last-bit changes in the samples move it.
PINNED_F_ERR = {
    ("cinf", 0.25): ((11, 45, 191), (34, 99, 320), (92, 198, 507), (202, 354, None)),
    ("cinf", 1): ((7, 19, 64), (14, 33, 94), (28, 55, 136), (50, 88, None)),
    ("cinf", 2): ((7, 14, 41), (11, 22, 57), (19, 34, 77), (30, 50, None)),
    ("cinf", 4): ((7, 13, 30), (10, 17, 39), (14, 24, None), (21, 33, None)),
    ("cinf", 8): ((9, 14, 25), (12, 17, 31), (15, 21, None), (19, 27, None)),
    ("sin", 1): ((16, 501, np.inf), (1571, np.inf, np.inf), (50, 1571, np.inf),
                 (np.inf, np.inf, np.inf)),
    ("sin", 2): ((7, 68, 6828), (45, 1414, np.inf), (np.inf, np.inf, np.inf),
                 (281, 8890, None)),
    ("sin", 3): ((5, 28, 867), (16, 153, np.inf), (150, 4714, np.inf),
                 (np.inf, np.inf, None)),
    ("sin", 4): ((4, 17, 264), (10, 53, 1682), (37, 369, np.inf), (562, np.inf, None)),
}


class TestFErr:
    # Table-1 reproduction is exercised in the acceptance suite; these pin
    # the machine-checkable cases and the qualitative structure.
    def test_sin1_base(self):
        assert f_err(make("sin", 1), 0, 1e-3) == pytest.approx(16.0)

    def test_cinf1_micro(self):
        assert f_err(make("cinf", 1), 0, 1e-6) == pytest.approx(19.0)

    def test_sin2_derivative(self):
        assert f_err(make("sin", 2), 1, 1e-3) == pytest.approx(45.0)

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

    def test_one_transform_per_spec_and_order(self, monkeypatch):
        # the envelopes are cached, so further thresholds cost a search
        # only, and k = 1 shares the transform of k = 0, k = 3 that of k = 2
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return _spectrum_samples(*args, **kwargs)

        monkeypatch.setattr(windows, "_spectrum_samples", counting)
        spec = make("cinf", 2.71875)  # an order no other test transforms
        for k in (0, 1):
            for p in (1e-3, 1e-6, 1e-12):
                f_err(spec, k, p)
        assert calls == [(spec, 0)]
        for k in (2, 3):
            for p in (1e-3, 1e-6, 1e-12):
                f_err(spec, k, p)
        assert calls == [(spec, 0), (spec, 2)]

    def test_only_the_envelope_is_cached(self):
        # the 2 x 163 265-bin refined spectra are dropped once their
        # envelopes, 2 x 10 000 values, are taken
        assert not hasattr(_spectrum_samples, "cache_info")
        env = windows._envelope(make("cinf", 2.71875), 0)
        assert env.shape == (2, F_ERR_SEARCH_BINS)
        with pytest.raises(ValueError):
            env[0, 0] = 0.0

    @pytest.mark.parametrize("family,order", list(PINNED_F_ERR))
    def test_pinned_table(self, family, order):
        spec = make(family, order)
        for k, row in enumerate(PINNED_F_ERR[family, order]):
            for p, want in zip((1e-3, 1e-6, 1e-12), row):
                if want is not None:
                    assert f_err(spec, k, p) == want, (k, p)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rectangular_derivative_rejected(self, k):
        # as for window_spectrum: row 1 of the rectangular pair is rounding
        with pytest.raises(ValueError, match="no derivative spectra"):
            f_err(make("rectangular"), k, 1e-6)

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
            mag = np.abs(coeffs[0])
            env = np.maximum.accumulate(mag[::-1])[::-1]
            pick = np.arange(10, 101) * 16
            slope = np.polyfit(np.log(np.arange(10, 101)), np.log(env[pick]), 1)[0]
            assert slope <= -(n + 1) + 0.3

    def test_cinf_beats_every_sin_at_100(self):
        from freqwin.windows import _spectrum_samples

        def env_at_100(spec):
            freqs, coeffs = _spectrum_samples(spec, 0, 110.0, refine=16)
            mag = np.abs(coeffs[0]) / abs(coeffs[0, 0])
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
    # Wallis: (n-1)!!/n!! for even n, (2/pi) (n-1)!!/n!! for odd n
    assert window_area(make("sin", 2)) == 0.5
    assert window_area(make("sin", 1)) == pytest.approx(2.0 / np.pi, rel=1e-15)
    assert window_area(make("sin", 4)) == 0.375
