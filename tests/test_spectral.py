import numpy as np
import pytest

import freqwin.bench as bench
import freqwin.spectral as spectral
from freqwin import (ModelStructure, Signal, WindowSpec, apply_window, build_regression,
                     fft_spectrum, window_table, window_value)

T = 1.0


def tone(freq, n, length=T, amp=1.0):
    t = np.arange(n) * length / n
    return Signal(length=length, values=amp * np.exp(2j * np.pi * freq * t))


def nonneg(sig, k_max, **kw):
    """Bins k = 0..k_max (f = k/T) of the two-sided transform."""
    return fft_spectrum(sig, **kw).coeffs[:, : k_max + 1]


def derivative(spec, m):
    """Spectral derivative: multiply by D(f)^m, D(f) = 2 pi i f."""
    return (2j * np.pi * spec.freqs) ** m * spec.coeffs


class TestFourierCoeffs:
    def test_constant_signal(self):
        sig = Signal(length=2.0, values=np.full(64, 3.0 - 1.0j))
        coeffs = nonneg(sig, 10)
        assert coeffs[0, 0] == pytest.approx((3.0 - 1.0j) * 2.0)
        assert np.abs(coeffs[0, 1:]).max() < 1e-13

    def test_grid_tone_orthogonality(self):
        coeffs = nonneg(tone(5.0, 128), 30)
        assert coeffs[0, 5] == pytest.approx(T, abs=1e-12)
        others = np.delete(coeffs[0], 5)
        assert np.abs(others).max() < 1e-12

    def test_hann_window_signal_coefficients(self):
        # the sin^2 window is its own test signal: exact series T*[1/2,-1/4,0..]
        n = 1024
        t = np.arange(n) * T / n
        sig = Signal(length=T, values=np.sin(np.pi * t) ** 2)
        expect = np.zeros(9, dtype=complex)
        expect[0] = 0.5 * T
        expect[1] = -0.25 * T
        np.testing.assert_allclose(nonneg(sig, 8)[0], expect, atol=1e-12)

    def test_k_max_bound(self):
        # the grid holds N bins, f = k/T for k = 0..N/2 - 1, then the
        # negative frequencies from the Nyquist bin -N/(2T) upwards
        spec = fft_spectrum(tone(1.0, 64, length=2.0))
        assert spec.coeffs.shape[1] == 64
        np.testing.assert_array_equal(spec.freqs[:32], np.arange(32) / 2.0)
        np.testing.assert_array_equal(spec.freqs[32:], np.arange(-32, 0) / 2.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = Signal(length=T, values=rng.standard_normal(64) + 1j * rng.standard_normal(64))
        b = Signal(length=T, values=rng.standard_normal(64) + 1j * rng.standard_normal(64))
        combo = Signal(length=T, values=2.0 * a.values - 1.5j * b.values)
        lhs = fft_spectrum(combo).coeffs
        rhs = 2.0 * fft_spectrum(a).coeffs - 1.5j * fft_spectrum(b).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestGrid:
    def test_shared_by_the_records_of_one_grid_and_read_only(self):
        """Two records of one (N, T) get the same frequency array, and the
        regressions built on them the same band index, both from the
        read-only grid; another T gets another grid."""
        a, b = tone(3.0, 64), tone(5.0, 64, amp=2.0)
        freqs, D, every_bin = spectral._grid(64, T)
        assert fft_spectrum(a).freqs is freqs and fft_spectrum(b).freqs is freqs
        np.testing.assert_array_equal(freqs, np.fft.fftfreq(64, d=T / 64))
        np.testing.assert_array_equal(D, 2j * np.pi * freqs)
        np.testing.assert_array_equal(every_bin, np.arange(64))
        for array in (freqs, D, every_bin):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        structure = ModelStructure(n_x=1, n_u=1, n_a=1, n_b=0)
        r1, r2 = build_regression(a, b, structure), build_regression(b, a, structure)
        assert r1.band is every_bin and r2.band is every_bin
        assert np.shares_memory(r1.freqs, freqs) and np.shares_memory(r2.freqs, freqs)
        assert fft_spectrum(tone(3.0, 64, length=2.0)).freqs is not freqs


class TestParseval:
    def test_band_limited_energy(self):
        rng = np.random.default_rng(3)
        n = 256
        t = np.arange(n) * T / n
        freqs = np.array([2, 5, 11, 30])
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vals = (amps[None, :] @ np.exp(2j * np.pi * np.outer(freqs, t))).ravel()
        sig = Signal(length=T, values=vals)
        spec = fft_spectrum(sig)
        time_energy = (np.abs(vals) ** 2).sum() * (T / n)
        coeff_energy = (np.abs(spec.coeffs) ** 2).sum() / T
        assert coeff_energy == pytest.approx(time_energy, rel=1e-10)


class TestSpectralDerivative:
    def test_identity_at_zero_order(self):
        spec = fft_spectrum(tone(3.0, 64))
        np.testing.assert_array_equal(derivative(spec, 0), spec.coeffs)

    def test_tone_derivative(self):
        spec = fft_spectrum(tone(1.0, 64))
        assert derivative(spec, 1)[0, 1] == pytest.approx(2j * np.pi / T * T, abs=1e-12)

    def test_two_sided_sign(self):
        # negative-frequency bin of conj tone gets the negative multiplier
        n = 64
        t = np.arange(n) * T / n
        spec = fft_spectrum(Signal(length=T, values=np.exp(-2j * np.pi * 3 * t)))
        k = np.where(np.isclose(spec.freqs, -3.0))[0][0]
        assert derivative(spec, 1)[0, k] == pytest.approx(-6j * np.pi, abs=1e-10)

    def test_product_rule_oracle_convergence(self):
        # F((w x)') computed two ways: spectral derivative of F(wx) versus
        # the transform of the analytically differentiated product; the
        # mismatch is pure aliasing and collapses to roundoff with sampling
        spec = WindowSpec(family="cinf", order=1.0)
        f0 = 9.0
        errs = []
        for n in (32, 64, 128, 256):
            t = np.arange(n) * T / n
            keep = slice(0, n // 4 + 1)
            x = np.exp(2j * np.pi * f0 * t)
            w0 = window_value(spec, 0, t)
            w1 = window_value(spec, 1, t)
            wx = Signal(length=T, values=w0 * x)
            lhs = derivative(fft_spectrum(wx), 1)[:, keep]
            dprod = Signal(length=T, values=w1 * x + w0 * 2j * np.pi * f0 * x)
            rhs = fft_spectrum(dprod).coeffs[:, keep]
            errs.append(np.abs(lhs - rhs).max() / np.abs(rhs).max())
        assert errs[-1] < 1e-4 * errs[0]
        assert errs[-1] < 1e-12


class TestTruncationConvergence:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_coefficient_error_decay(self, order):
        # |a_k - a_{k,N}| at fixed k falls with slope <= -order + 0.5
        spec = WindowSpec(family="sin", order=order)
        f0 = 3.37  # off the bin grid
        k = 3
        n_ref = 2**16
        t_ref = np.arange(n_ref) * T / n_ref
        ref_sig = Signal(length=T,
                         values=window_value(spec, 0, t_ref) * np.exp(2j * np.pi * f0 * t_ref))
        ref = nonneg(ref_sig, k)[0, k]
        sizes = np.array([64, 128, 256, 512, 1024, 2048, 4096])
        errs = []
        for n in sizes:
            t = np.arange(n) * T / n
            sig = Signal(length=T,
                         values=window_value(spec, 0, t) * np.exp(2j * np.pi * f0 * t))
            errs.append(abs(nonneg(sig, k)[0, k] - ref))
        errs = np.array(errs)
        # smooth windows reach the roundoff floor early; fit above it
        live = errs > 1e-15 * abs(ref)
        assert live.sum() >= 3
        slope = np.polyfit(np.log(sizes[live]), np.log(errs[live]), 1)[0]
        assert slope <= -order + 0.5


class TestApplyWindow:
    def test_rectangular_identity(self):
        sig = tone(2.0, 64)
        table = window_table(WindowSpec(family="rectangular"), 64, 0)
        out = apply_window(sig, table, 0)
        np.testing.assert_array_equal(out.values, sig.values)

    def test_cinf_endpoints_vanish(self):
        sig = Signal(length=T, values=np.ones(128))
        table = window_table(WindowSpec(family="cinf", order=1.0), 128, 0)
        out = apply_window(sig, table, 0)
        assert out.values[0, 0] == 0.0

    def test_energy_matches_quadrature(self):
        from scipy import integrate

        spec = WindowSpec(family="sin", order=2)
        f0 = 4.0
        n = 4096
        sig = tone(f0, n)
        table = window_table(spec, n, 0)
        out = apply_window(sig, table, 0)
        energy = (np.abs(out.values) ** 2).sum() * (T / n)
        expect, _ = integrate.quad(lambda t: np.sin(np.pi * t) ** 4, 0.0, 1.0)
        assert energy == pytest.approx(expect, rel=1e-8)

    def test_grid_mismatch_rejected(self):
        sig = tone(1.0, 64)
        table = window_table(WindowSpec(family="sin", order=1), 65, 0)
        with pytest.raises(ValueError):
            apply_window(sig, table, 0)

    def test_stack_holds_rows_zero_to_k_max(self):
        # row k is scaled by T^-k; the terminal sample is not carried
        length, n = 2.0, 64
        sig = Signal(length=length, values=np.arange(1.0, 2 * n + 1).reshape(2, n),
                     terminal=[5.0, -1.0j])
        table = window_table(WindowSpec(family="poly_ref", order=4), n, 3)
        out = apply_window(sig, table, 2)
        assert out.num_channels == 6 and out.length == length
        assert out.terminal is None
        for k in range(3):
            np.testing.assert_array_equal(out.values[2 * k:2 * k + 2],
                                          table.samples[k] * length**-k * sig.values)

    def test_row_outside_table_rejected(self):
        # a negative row used to index the table from the end
        sig = tone(1.0, 64)
        table = window_table(WindowSpec(family="sin", order=2), 64, 2)
        for k in (-1, 3):
            with pytest.raises(ValueError, match="derivatives 0 to 2"):
                apply_window(sig, table, k)


class TestSignalValidation:
    def test_rejects_nan(self):
        vals = np.ones(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Signal(length=1.0, values=vals)

    @pytest.mark.parametrize("terminal", [[np.nan, 1.0], [1.0, np.inf]])
    def test_rejects_non_finite_terminal_sample(self, terminal):
        # a NaN s(T) used to be accepted and written back to a CSV
        with pytest.raises(ValueError, match="non-finite"):
            Signal(length=1.0, values=np.ones((2, 8)), terminal=terminal)

    def test_terminal_sample_needs_one_entry_per_channel(self):
        # used to fail in numpy's reshape, without naming the channel count
        with pytest.raises(ValueError, match="3 terminal entries, not n_channels = 2"):
            Signal(length=1.0, values=np.ones((2, 8)), terminal=[1.0, 2.0, 3.0])

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Signal(length=1.0, values=np.array([1.0]))

    def test_properties(self):
        sig = tone(1.0, 64, length=2.0)
        assert sig.sample_rate == pytest.approx(32.0)
        assert sig.times[1] == pytest.approx(2.0 / 64)

    def test_values_and_terminal_are_read_only(self):
        # a decimated record is a view of the dataset's; writing NaN into it
        # used to reach ds.x past the finiteness scan, and every later record
        ds = bench.reference_dataset(3, fine_rate=23040)
        before = ds.x.values.copy()
        for f_s in (80, 23040):  # a strided view, and the record itself
            x, _ = ds.decimated(f_s)
            with pytest.raises(ValueError, match="read-only"):
                x.values[0, 0] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                x.terminal[0] = np.nan
        assert np.array_equal(ds.x.values, before)
        vals, term = np.ones((2, 8), dtype=complex), np.ones(2, dtype=complex)
        sig = Signal(length=1.0, values=vals, terminal=term)
        assert np.shares_memory(sig.values, vals) and np.shares_memory(sig.terminal, term)
        assert vals.flags.writeable and term.flags.writeable
