import numpy as np
import pytest
from fractions import Fraction
from math import comb

from freqwin import (CorrectionSet, ModelStructure, Signal, Spectrum,
                     WindowSpec, build_regression, correction_spectra,
                     correction_time_oracle, fft_spectrum, recurrence_coeffs,
                     resample, rng_for, window_table)

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


class TestRecurrenceCoeffs:
    def test_low_orders_match_explicit_forms(self):
        assert recurrence_coeffs(1).as_floats() == (1.0,)
        assert recurrence_coeffs(2).as_floats() == (-1.0, 2.0)
        assert recurrence_coeffs(3).as_floats() == (1.0, 3.0, -3.0)

    def test_order_four(self):
        assert recurrence_coeffs(4).as_floats() == (-1.0, 4.0, -6.0, 4.0)

    def test_exact_rationals(self):
        coeffs = recurrence_coeffs(4).coeffs
        assert all(isinstance(c, Fraction) for c in coeffs)

    def test_high_orders_gated_but_valid(self):
        with pytest.raises(ValueError, match="allow_high"):
            recurrence_coeffs(5)
        for n in (5, 6):
            coeffs = recurrence_coeffs(n, allow_high=True)
            assert len(coeffs.coeffs) == n

    def test_symbolic_leibniz_gate(self):
        from freqwin.corrections import _leibniz_validate

        for n in range(1, 7):
            coeffs = recurrence_coeffs(n, allow_high=True).coeffs
            assert _leibniz_validate(n, coeffs)
        assert not _leibniz_validate(2, (Fraction(1), Fraction(2)))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            recurrence_coeffs(0)


class TestCorrectionSpectra:
    def test_zero_signal_gives_zero(self):
        sig = Signal(length=T, values=np.zeros(256))
        table = window_table(WindowSpec(family="sin", order=4, length=T), 256, 4)
        cs = correction_spectra(sig, table, 4)
        for j in (1, 2, 3, 4):
            assert np.abs(cs.spectrum(j).coeffs).max() == 0.0

    def test_zero_order_convention(self):
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec(family="sin", order=1, length=T), 64, 1)
        cs = correction_spectra(sig, table, 0)
        assert cs.orders == ()
        with pytest.raises(ValueError):
            cs.spectrum(0)

    def test_first_order_constant_signal_sin1(self):
        # x = 1: correction is F(dw/dt) = F((pi/T) cos(pi t/T)), closed form
        n = 4096
        sig = Signal(length=T, values=np.ones(n))
        table = window_table(WindowSpec(family="sin", order=1, length=T), n, 1)
        cs = correction_spectra(sig, table, 1, k_max=16)
        got = cs.spectrum(1).coeffs[0]
        freqs = cs.spectrum(1).freqs
        expect = np.array([
            (np.pi / T) * 0.5 * (exp_integral(0.5 / T, f, T) + exp_integral(-0.5 / T, f, T))
            for f in freqs
        ])
        # the windowed product has a boundary jump, so the DFT estimate of
        # its transform converges at O(1/N)
        assert np.abs(got - expect).max() / np.abs(expect).max() < 1e-3

    def test_requires_enough_derivative_rows(self):
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec(family="sin", order=3, length=T), 64, 1)
        with pytest.raises(ValueError, match="derivative"):
            correction_spectra(sig, table, 2)

    def test_linearity(self):
        n = 512
        sig1, *_ = smooth_multisine(n, seed=1)
        sig2, *_ = smooth_multisine(n, seed=2)
        table = window_table(WindowSpec(family="cinf", order=1, length=T), n, 3)
        combo = Signal(length=T, values=3.0 * sig1.values - 2.0 * sig2.values)
        a = correction_spectra(sig1, table, 3)
        b = correction_spectra(sig2, table, 3)
        c = correction_spectra(combo, table, 3)
        for j in (1, 2, 3):
            lhs = c.spectrum(j).coeffs
            rhs = 3.0 * a.spectrum(j).coeffs - 2.0 * b.spectrum(j).coeffs
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())

    def test_second_order_tone_cinf_vs_oracle_spectrum(self):
        # x = exp(2 pi i 3 t / T), w = cinf_1:頻-domain match to the
        # time-domain oracle at N = 4096
        n = 4096
        over = 16
        t = np.arange(n) * T / n
        t_hi = np.arange(n * over) * T / (n * over)
        sig = Signal(length=T, values=np.exp(2j * np.pi * 3 * t))
        sig_hi = Signal(length=T, values=np.exp(2j * np.pi * 3 * t_hi))
        spec = WindowSpec(family="cinf", order=1, length=T)
        table = window_table(spec, n, 2)
        table_hi = window_table(spec, n * over, 2)
        cs = correction_spectra(sig, table, 2, k_max=n // 2)
        oracle = resample(correction_time_oracle(sig_hi, table_hi, 2,
                                                 oversample=over), n)
        from freqwin import fourier_coeffs

        ofc = fourier_coeffs(oracle, n // 2)
        got = cs.spectrum(2).coeffs
        scale = np.abs(ofc.coeffs).max()
        assert np.abs(got - ofc.coeffs).max() / scale < 1e-8

    def test_two_sided_grid(self):
        n = 256
        sig, *_ = smooth_multisine(n)
        table = window_table(WindowSpec(family="cinf", order=1, length=T), n, 2)
        cs = correction_spectra(sig, table, 2, two_sided=True)
        assert cs.spectrum(1).num_bins == n
        assert cs.spectrum(1).freqs.min() < 0


class TestDerivativeCorrectionIdentity:
    @pytest.mark.parametrize("family,order,floor", [("sin", 3, 1e-4),
                                                    ("cinf", 2, 1e-11)])
    def test_convergence_to_windowed_derivative(self, family, order, floor):
        # D^j F(w x) - x^{j} -> F(w x^(j)) as N grows, at the rate set by
        # the window smoothness class (instant to roundoff for the bump)
        spec = WindowSpec(family=family, order=order, length=T)
        errs = []
        for n in (128, 512, 2048):
            sig, values, tones, amps = smooth_multisine(n, kill_derivs=0)
            table = window_table(spec, n, 2)
            cs = correction_spectra(sig, table, 2, k_max=n // 4)
            from freqwin import apply_window, fourier_coeffs

            freqs = cs.spectrum(2).freqs
            D = 2j * np.pi * freqs
            wx = apply_window(sig, table, 0)
            lhs = D**2 * fourier_coeffs(wx, n // 4).coeffs - cs.spectrum(2).coeffs
            t = np.arange(n) * T / n
            wd = Signal(length=T, values=values(t, 2))
            rhs = fourier_coeffs(apply_window(wd, table, 0), n // 4).coeffs
            errs.append(np.abs(lhs - rhs).max() / np.abs(rhs).max())
        assert errs[-1] < floor
        if errs[0] > 100 * floor:
            assert errs[-1] < errs[0] * 1e-1


class TestTimeOracle:
    def test_first_order_is_exact_product(self):
        n = 1024
        sig, *_ = smooth_multisine(n)
        spec = WindowSpec(family="sin", order=3, length=T)
        table = window_table(spec, n, 1)
        out = correction_time_oracle(sig, table, 1, oversample=4)
        np.testing.assert_allclose(out.values, table.samples[1] * sig.values,
                                   atol=1e-14)

    def test_polynomial_closed_form(self):
        # x = t^2: x^{3} = 6 w' + 6 t w'' + t^2 w''' exactly
        n = 8192
        t = np.arange(n) * T / n
        sig = Signal(length=T, values=t**2)
        spec = WindowSpec(family="cinf", order=1, length=T)
        table = window_table(spec, n, 3)
        out = correction_time_oracle(sig, table, 3, oversample=16)
        expect = (6 * table.samples[1] + 6 * t * table.samples[2]
                  + t**2 * table.samples[3])
        scale = np.abs(expect).max()
        assert np.abs(out.values[0] - expect).max() / scale < 1e-7

    def test_oversample_guard(self):
        sig = Signal(length=T, values=np.ones(64))
        table = window_table(WindowSpec(family="sin", order=1, length=T), 64, 1)
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
        spec = WindowSpec(family=family, order=order, length=T)
        table = window_table(spec, n, 4)
        table_hi = window_table(spec, n * over, 4)
        cs = correction_spectra(sig, table, 4, k_max=n // 2)
        for j in (1, 2, 3, 4):
            oracle = resample(correction_time_oracle(sig_hi, table_hi, j,
                                                     oversample=over), n)
            rec = np.fft.irfft(cs.spectrum(j).coeffs[0] * (n / T), n=n)
            ref = oracle.values[0].real
            rel = np.linalg.norm(rec - ref) / np.linalg.norm(ref)
            assert rel < 1e-8, (family, order, j, rel)


def test_uncorrected_route_equals_zero_corrections():
    """No correction set (the rectangular route) stacks the same regression
    as subtracting all-zero correction spectra of every order."""
    sig, *_ = smooth_multisine(128)
    template = fft_spectrum(sig)
    zero = Spectrum(length=template.length,
                    coeffs=np.zeros_like(template.coeffs), freqs=template.freqs)
    zc = CorrectionSet(orders=(1, 2), spectra=(zero, zero))
    structure = ModelStructure(n_x=1, n_u=1, n_a=2, n_b=2)
    plain = build_regression(template, template, structure)
    zeroed = build_regression(template, template, structure, zc, zc)
    np.testing.assert_array_equal(plain.m1, zeroed.m1)
    np.testing.assert_array_equal(plain.m2, zeroed.m2)
