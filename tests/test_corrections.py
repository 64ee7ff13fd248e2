import numpy as np
import pytest
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

import freqwin.corrections as corrections
from freqwin import (ModelStructure, Signal, WindowSpec, apply_window,
                     build_regression, correction_spectra, fft_spectrum,
                     resample, rng_for, window_table)
from freqwin.corrections import modulated_row
from leibniz_oracle import correction_time_oracle

T = 1.0


def exp_integral(g, f, length):
    """int_0^T exp(2 pi i g t) exp(-2 pi i f t) dt, exact."""
    d = g - f
    if abs(d) < 1e-15:
        return length + 0.0j
    return (np.exp(2j * np.pi * d * length) - 1.0) / (2j * np.pi * d)


def smooth_multisine(n, length=T, seed=7, kill_derivs=4, tones=None):
    """On-grid real multisine with the first ``kill_derivs`` endpoint moments
    projected out, so windowed products stay continuous across the wrap."""
    if tones is None:
        tones = np.arange(1.0, 9.0)
    rng = rng_for(seed, 99)
    amps = rng.standard_normal(len(tones)) + 1j * rng.standard_normal(len(tones))
    if kill_derivs:
        v = np.vander(tones, kill_derivs, increasing=True).T
        amps = amps - np.linalg.pinv(v) @ (v @ amps)
    t = np.arange(n) * length / n

    def values(tt, m=0):
        om = 2j * np.pi * tones
        return ((amps * om**m)[None, :] @ np.exp(np.outer(om, tt))).real

    return Signal(length=length, values=values(t)), values, tones, amps


def binomial_weights(i, k_min=0):
    """The weights modulated_row puts on X_k: a unit stack with D = 1."""
    unit = np.eye(i + 1, dtype=complex)[:, None, :]
    return modulated_row(unit, np.ones(i + 1), i, k_min=k_min)[0]


class TestRecurrenceCoeffs:
    """The closed form satisfies the correction recurrence

        x^{n} = a_0 F(w^(n) x) + sum_{j=1..n-1} a_j D^j x^{n-j},

    with a = (1), (-1, 2), (1, 3, -3), (-1, 4, -6, 4), ..., that is
    a_0 = (-1)^(n+1) and a_j = (-1)^(j+1) C(n, j)."""

    @staticmethod
    def recurrence_gap(n, j_max=6):
        sig, *_ = smooth_multisine(256, kill_derivs=0)
        table = window_table(WindowSpec("cinf", 2), 256, j_max)
        cs = correction_spectra(sig, table, j_max)
        stack = fft_spectrum(apply_window(sig, table, j_max)).coeffs
        D = 2j * np.pi * cs[0].freqs
        assembled = (-1) ** (n + 1) * stack[n] + sum(
            (-1) ** (j + 1) * comb(n, j) * D**j * cs[n - j - 1].coeffs[0]
            for j in range(1, n))
        got = cs[n - 1].coeffs[0]
        return np.abs(assembled - got).max() / np.abs(got).max()

    def test_low_orders_match_explicit_forms(self):
        # x^{1} = w' x,  x^{2} = -w'' x + 2 d(x^{1})/dt,
        # x^{3} = w''' x + 3 d(x^{2})/dt - 3 d^2(x^{1})/dt^2
        for n in (1, 2, 3):
            assert self.recurrence_gap(n) < 1e-13

    def test_order_four(self):
        assert self.recurrence_gap(4) < 1e-13

    def test_exact_rationals(self):
        # the binomial weights are exact integers: no rational solve, no rounding
        for i in range(1, 9):
            assert list(binomial_weights(i)) == [(-1) ** k * comb(i, k)
                                                 for k in range(i + 1)]
        assert list(binomial_weights(3, k_min=1)) == [0, -3, 3, -1]

    def test_high_orders_gated_but_valid(self):
        # orders above 4 need only a deep enough table; they obey the same law
        sig, *_ = smooth_multisine(64)
        with pytest.raises(ValueError, match="derivative"):
            correction_spectra(sig, window_table(WindowSpec("cinf", 2), 64, 4), 5)
        for n in (5, 6):
            assert self.recurrence_gap(n) < 1e-12

    def test_symbolic_leibniz_gate(self):
        # term dictionaries map (window order p, signal order q) to the
        # coefficient of w^(p) x^(q); D^m F(w^(k) x) = F(d^m(w^(k) x)) expands
        # by Leibniz, and the weighted sum must equal sum C(n,k) w^(k) x^(n-k)
        def expand(n, weights):
            out = {}
            for k, c in enumerate(weights):
                for m in range(n - k + 1):
                    key = (k + m, n - k - m)
                    out[key] = out.get(key, Fraction(0)) + c * comb(n - k, m)
            return {key: c for key, c in out.items() if c}

        for n in range(1, 9):
            weights = [-Fraction(int(c.real)) for c in binomial_weights(n, k_min=1)]
            leibniz = {(k, n - k): Fraction(comb(n, k)) for k in range(1, n + 1)}
            assert expand(n, weights) == leibniz
        assert expand(2, [0, Fraction(1), Fraction(2)]) != {(1, 1): 2, (2, 0): 1}

    def test_invalid_order(self):
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec("sin", 2), 64, 1)
        with pytest.raises(ValueError):
            correction_spectra(sig, table, -1)
        with pytest.raises(ValueError):
            apply_window(sig, table, -1)
        rect = window_table(WindowSpec("rectangular"), 64, 0)
        with pytest.raises(ValueError, match="derivatives 0 to 0"):
            apply_window(sig, rect, 1)


class TestModulate:
    def test_stack_layout_and_terminal(self):
        n = 64
        t = np.arange(n + 1) * T / n
        vals = np.vstack([np.exp(2j * np.pi * 2.7 * t), t**2])
        sig = Signal(length=T, values=vals[:, :n], terminal=vals[:, n])
        spec = WindowSpec("sin", 3)
        table = window_table(spec, n, 2)
        stacked = apply_window(sig, table, 2)
        assert stacked.num_channels == 6
        for k in range(3):
            np.testing.assert_array_equal(stacked.values[2 * k:2 * k + 2],
                                          table.samples[k] * sig.values)
        # the terminal sample s(T) is record data; no windowed product carries it
        assert stacked.terminal is None
        rect = apply_window(sig, window_table(WindowSpec("rectangular"), n, 0), 0)
        np.testing.assert_array_equal(rect.values, sig.values)
        assert rect.terminal is None

    def test_modulate_is_gone(self):
        # spectral.apply_window is the only way a record meets a window
        assert not hasattr(corrections, "modulate")


class TestCorrectionSpectra:
    def test_zero_signal_gives_zero(self):
        sig = Signal(length=T, values=np.zeros(256))
        table = window_table(WindowSpec(family="sin", order=4), 256, 4)
        cs = correction_spectra(sig, table, 4)
        for j in (1, 2, 3, 4):
            assert np.abs(cs[j - 1].coeffs).max() == 0.0

    def test_zero_order_convention(self):
        # order 0 is identically zero and never returned; row 0 is X_0 itself
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec(family="sin", order=1), 64, 1)
        assert correction_spectra(sig, table, 0) == ()
        stack = fft_spectrum(apply_window(sig, table, 1)).coeffs[:, None, :]
        np.testing.assert_array_equal(modulated_row(stack, np.ones(64), 0), stack[0])

    def test_first_order_constant_signal_sin1(self):
        # x = 1: correction is F(dw/dt) = F((pi/T) cos(pi t/T)), closed form
        n = 4096
        sig = Signal(length=T, values=np.ones(n))
        table = window_table(WindowSpec(family="sin", order=1), n, 1)
        (c1,) = correction_spectra(sig, table, 1)
        got = c1.coeffs[0, :17]
        expect = np.array([
            (np.pi / T) * 0.5 * (exp_integral(0.5 / T, f, T) + exp_integral(-0.5 / T, f, T))
            for f in c1.freqs[:17]
        ])
        # the windowed product has a boundary jump, so the DFT estimate of
        # its transform converges at O(1/N)
        assert np.abs(got - expect).max() / np.abs(expect).max() < 1e-3

    def test_requires_enough_derivative_rows(self):
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec(family="sin", order=3), 64, 1)
        with pytest.raises(ValueError, match="derivative"):
            correction_spectra(sig, table, 2)

    def test_linearity(self):
        n = 512
        sig1, *_ = smooth_multisine(n, seed=1)
        sig2, *_ = smooth_multisine(n, seed=2)
        table = window_table(WindowSpec(family="cinf", order=1), n, 3)
        combo = Signal(length=T, values=3.0 * sig1.values - 2.0 * sig2.values)
        a = correction_spectra(sig1, table, 3)
        b = correction_spectra(sig2, table, 3)
        c = correction_spectra(combo, table, 3)
        for j in (1, 2, 3):
            lhs = c[j - 1].coeffs
            rhs = 3.0 * a[j - 1].coeffs - 2.0 * b[j - 1].coeffs
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())

    def test_second_order_tone_cinf_vs_oracle_spectrum(self):
        # x = exp(2 pi i 3 t / T), w = cinf_1: frequency-domain match to the
        # time-domain oracle at N = 4096
        n = 4096
        over = 16
        t = np.arange(n) * T / n
        t_hi = np.arange(n * over) * T / (n * over)
        sig = Signal(length=T, values=np.exp(2j * np.pi * 3 * t))
        sig_hi = Signal(length=T, values=np.exp(2j * np.pi * 3 * t_hi))
        spec = WindowSpec(family="cinf", order=1)
        table = window_table(spec, n, 2)
        table_hi = window_table(spec, n * over, 2)
        cs = correction_spectra(sig, table, 2)
        oracle = resample(correction_time_oracle(sig_hi, table_hi, 2,
                                                 oversample=over), n)
        ofc = fft_spectrum(oracle).coeffs
        assert np.abs(cs[1].coeffs - ofc).max() / np.abs(ofc).max() < 1e-8

    def test_two_sided_grid(self):
        n = 256
        sig, *_ = smooth_multisine(n)
        table = window_table(WindowSpec(family="cinf", order=1), n, 2)
        cs = correction_spectra(sig, table, 2)
        assert cs[0].coeffs.shape[1] == n
        np.testing.assert_array_equal(cs[0].freqs, np.fft.fftfreq(n, T / n))

    def test_orders_are_windowed_derivative_gaps(self):
        # order n equals D^n X_0 - F(w x^(n)) for n = 1..6, with the signal
        # derivative taken analytically (on-grid tones, smooth bump window)
        n = 512
        sig, values, *_ = smooth_multisine(n, kill_derivs=0)
        table = window_table(WindowSpec("cinf", 2), n, 6)
        cs = correction_spectra(sig, table, 6)
        x0 = fft_spectrum(apply_window(sig, table, 0))
        D = 2j * np.pi * x0.freqs
        t = np.arange(n) * T / n
        keep = np.abs(x0.freqs) <= 32
        for order in range(1, 7):
            wd = fft_spectrum(apply_window(Signal(length=T, values=values(t, order)),
                                           table, 0))
            expect = (D**order * x0.coeffs - wd.coeffs)[0, keep]
            got = cs[order - 1].coeffs[0, keep]
            assert np.abs(got - expect).max() < 1e-10 * np.abs(wd.coeffs).max(), order


class TestDerivativeCorrectionIdentity:
    @pytest.mark.parametrize("family,order,floor", [("sin", 3, 1e-4),
                                                    ("cinf", 2, 1e-11)])
    def test_convergence_to_windowed_derivative(self, family, order, floor):
        # D^j F(w x) - x^{j} -> F(w x^(j)) as N grows, at the rate set by
        # the window smoothness class (instant to roundoff for the bump)
        spec = WindowSpec(family=family, order=order)
        errs = []
        for n in (128, 512, 2048):
            sig, values, tones, amps = smooth_multisine(n, kill_derivs=0)
            table = window_table(spec, n, 2)
            cs = correction_spectra(sig, table, 2)
            keep = slice(0, n // 4 + 1)
            D = 2j * np.pi * cs[1].freqs[keep]
            wx = fft_spectrum(apply_window(sig, table, 0))
            lhs = D**2 * wx.coeffs[:, keep] - cs[1].coeffs[:, keep]
            t = np.arange(n) * T / n
            wd = Signal(length=T, values=values(t, 2))
            rhs = fft_spectrum(apply_window(wd, table, 0)).coeffs[:, keep]
            errs.append(np.abs(lhs - rhs).max() / np.abs(rhs).max())
        assert errs[-1] < floor
        if errs[0] > 100 * floor:
            assert errs[-1] < errs[0] * 1e-1


def on_grid_multisine(seed, n):
    """Random complex multisine of 8 tones on integer |f| in 1..32 and its
    analytic derivatives x(m) = d^m x/dt^m, sampled at t_j = j/n."""
    rng = np.random.default_rng(seed)
    tones = rng.choice(np.arange(1, 33), size=8, replace=False).astype(float)
    tones *= rng.choice([-1.0, 1.0], size=8)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    om = 2j * np.pi * tones
    phase = np.exp(np.outer(om, np.arange(n) / n))
    return lambda m: ((amps * om**m) @ phase)[None, :]


@st.composite
def window_and_order(draw):
    i = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return WindowSpec("cinf", draw(st.floats(0.25, 6.0))), i, 1e-12
    return WindowSpec("sin", draw(st.integers(i + 2, 6))), i, 1e-9


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=window_and_order(), seed=st.integers(0, 2**32 - 1))
def test_rows_are_modulating_function_integrals(case, seed):
    """Every state row build_regression forms, L_j for j = i..0, equals
    F(w d^j x/dt^j) with the derivative taken analytically, on |f| <= 64."""
    spec, i, bound = case
    n = 1024
    x = on_grid_multisine(seed, n)
    table = window_table(spec, n, i)
    reg = build_regression(Signal(length=T, values=x(0)), Signal(length=T, values=np.ones(n)),
                           ModelStructure(n_x=1, n_u=1, n_a=i, n_b=0), spec)
    keep = np.abs(reg.freqs) <= 64
    for j, row in zip(range(i, -1, -1), reg.model_rows):
        expect = fft_spectrum(Signal(length=T, values=table.samples[0] * x(j)))
        expect = expect.coeffs[0, keep]
        assert np.abs(row[keep] - expect).max() <= bound * np.abs(expect).max(), j


class TestTimeOracle:
    def test_first_order_is_exact_product(self):
        n = 1024
        sig, *_ = smooth_multisine(n)
        spec = WindowSpec(family="sin", order=3)
        table = window_table(spec, n, 1)
        out = correction_time_oracle(sig, table, 1, oversample=4)
        np.testing.assert_allclose(out.values, table.samples[1] * sig.values,
                                   atol=1e-14)

    def test_polynomial_closed_form(self):
        # x = t^2: x^{3} = 6 w' + 6 t w'' + t^2 w''' exactly
        n = 8192
        t = np.arange(n) * T / n
        sig = Signal(length=T, values=t**2)
        spec = WindowSpec(family="cinf", order=1)
        table = window_table(spec, n, 3)
        out = correction_time_oracle(sig, table, 3, oversample=16)
        expect = (6 * table.samples[1] + 6 * t * table.samples[2]
                  + t**2 * table.samples[3])
        scale = np.abs(expect).max()
        assert np.abs(out.values[0] - expect).max() / scale < 1e-7

    def test_oversample_guard(self):
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec(family="sin", order=1), 64, 1)
        with pytest.raises(ValueError, match="oversampling"):
            correction_time_oracle(sig, table, 1, oversample=2)


class TestLeibnizEquivalence:
    @pytest.mark.parametrize("family,order", [("sin", 3), ("sin", 4),
                                              ("cinf", 1), ("cinf", 4)])
    def test_recurrence_matches_oracle_time_domain(self, family, order):
        # module invariant: time-domain rel err < 1e-8 for j = 1..4 at
        # N >= 4096 (endpoint-regular multisine isolates the algebra from
        # boundary-jump aliasing, which a window of order <= j cannot kill;
        # the residual is Nyquist-bin roundoff amplified by D^(j-1))
        n = 4096
        over = 8
        sig, values, *_ = smooth_multisine(n, tones=np.arange(4.0, 33.0, 4.0))
        t_hi = np.arange(n * over) * T / (n * over)
        sig_hi = Signal(length=T, values=values(t_hi))
        spec = WindowSpec(family=family, order=order)
        table = window_table(spec, n, 4)
        table_hi = window_table(spec, n * over, 4)
        cs = correction_spectra(sig, table, 4)
        for j in (1, 2, 3, 4):
            oracle = resample(correction_time_oracle(sig_hi, table_hi, j,
                                                     oversample=over), n)
            rec = np.fft.ifft(cs[j - 1].coeffs[0] * (n / T)).real
            ref = oracle.values[0].real
            rel = np.linalg.norm(rec - ref) / np.linalg.norm(ref)
            assert rel < 1e-8, (family, order, j, rel)


@pytest.mark.parametrize("i", range(4))
def test_uncorrected_row_equals_zero_corrections(i):
    """A bare spectrum (stack depth K = 0, the rectangular route) gives the
    same row D^i X_0 as a full stack whose derivative blocks X_1..X_3 are
    all zero."""
    sig, *_ = smooth_multisine(128)
    spec = fft_spectrum(sig)
    bare = spec.coeffs[None]
    padded = np.concatenate([bare, np.zeros((3, *bare.shape[1:]), dtype=complex)])
    D = 2j * np.pi * spec.freqs
    np.testing.assert_array_equal(modulated_row(bare, D, i), modulated_row(padded, D, i))
