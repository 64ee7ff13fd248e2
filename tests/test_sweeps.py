"""Sweep-level properties of the identification pipeline on the benchmark
system (slopes of the parameter error, the mixed-method envelope).  These
share one simulated dataset per seed and are slower than the unit tests."""

import numpy as np
import pytest

import freqwin.bench as bench
import freqwin.corrections as corrections
import freqwin.identify as identify
import freqwin.spectral as spectral
from analysis_helpers import loglog_slope, lowpass_filter
from freqwin import WindowSpec, error_norms, f_err, param_error, residual_spectrum

T = 1.0


@pytest.fixture(scope="module")
def dataset():
    return bench.reference_dataset(seed=bench.REF_SEED)


class TestParamErrorDecay:
    # fit ranges stop before each window's error reaches the numerical floor
    RANGES = {
        1: [64.0, 96.0, 128.0, 192.0, 256.0, 384.0],
        2: [64.0, 96.0, 128.0, 192.0, 256.0, 384.0],
        3: [80.0, 96.0, 128.0, 192.0, 256.0],
        4: [80.0, 96.0, 128.0],
    }

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_slope_at_least_window_class(self, dataset, order):
        window = WindowSpec("sin", order)
        errs = [
            param_error(dataset.theta_true,
                        bench.estimate(dataset, fs, "corrected", window).theta_hat)
            for fs in self.RANGES[order]
        ]
        slope, _ = loglog_slope(self.RANGES[order], errs)
        assert slope <= -(order - 1) + 0.5


def test_halving_simulation_step_does_not_worsen_estimates():
    coarse = bench.reference_dataset(seed=2, fine_rate=bench.REF_FINE_RATE // 2)
    fine = bench.reference_dataset(seed=2, fine_rate=bench.REF_FINE_RATE)
    w = WindowSpec("cinf", 4)
    e_coarse = param_error(coarse.theta_true,
                           bench.estimate(coarse, 80.0, window=w).theta_hat)
    e_fine = param_error(fine.theta_true,
                         bench.estimate(fine, 80.0, window=w).theta_hat)
    # integrator refinement may shuffle the sub-1e-10 floor but not degrade
    assert e_fine <= e_coarse + 1e-10


def test_lowpass_filtering_mitigates_out_of_band_content():
    """Signal content above the target Nyquist corrupts the estimates
    (fold-back of true content); zero-phase low-pass filtering before
    decimation commutes with the system dynamics and restores accuracy by
    orders of magnitude."""
    from freqwin import (ForcingSpec, ModelStructure, SimConfig,
                         identify_from_signals, integrate_rk4, random_system,
                         resample, rng_for, sample_forcing)

    structure = ModelStructure(n_x=2, n_u=2, n_a=1, n_b=0)
    theta = random_system(structure, seed=9)
    freqs = np.concatenate([np.linspace(1.0, 20.0, 8), [90.0]])
    rng = rng_for(9, 55)
    amps = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    forcing = ForcingSpec(amplitudes=amps, freqs=freqs)
    n_fine = 16384
    cfg = SimConfig(structure=structure, dt=T / n_fine, length=T, seed=9)
    x = integrate_rk4(theta, forcing, cfg)
    u = sample_forcing(forcing, T, n_fine)

    def estimate_err(xs, us):
        xd, ud = resample(xs, 128), resample(us, 128)
        rep = identify_from_signals(xd, ud, structure, window_spec=WindowSpec("cinf", 2))
        return param_error(theta, rep.theta_hat)

    raw = estimate_err(x, u)
    filtered = estimate_err(lowpass_filter(x, 40.0), lowpass_filter(u, 40.0))
    assert filtered < 1e-2 * raw


@pytest.mark.slow
def test_mixed_method_does_not_beat_the_best_pure_route():
    """Adding polynomial terms to the corrected regression can rescue a poor
    window (it absorbs that window's own aliasing leak), but across the
    window set it does not push below the envelope set by the best pure
    method; stable over 5 seeds."""
    windows = [WindowSpec("sin", 2), WindowSpec("sin", 4),
               WindowSpec("cinf", 4)]
    n_p = 10
    for seed in (42, 1, 2, 3, 4):
        ds = bench.reference_dataset(seed=seed)
        pure = [param_error(ds.theta_true,
                            bench.estimate(ds, 128.0, window=w).theta_hat)
                for w in windows]
        pure.append(param_error(ds.theta_true,
                                bench.estimate(ds, 128.0, n_p=n_p).theta_hat))
        mixed = [param_error(ds.theta_true,
                             bench.estimate(ds, 128.0, window=w,
                                            n_p=n_p).theta_hat)
                 for w in windows]
        assert min(mixed) >= 0.1 * min(pure), (seed, min(mixed), min(pure))


def test_sweep_transforms_each_record_once(dataset, monkeypatch):
    """A corrected cinf:4 rate (n_a = 1, n_b = 0) costs one FFT: the state
    stack (w x and w' x) and the windowed input in one transform.  The
    true-parameter residual reuses the regression the estimate solved."""
    calls = []
    fft = spectral.fft_spectrum

    def counted(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    for module in (identify, corrections, spectral):
        monkeypatch.setattr(module, "fft_spectrum", counted)
    rows = bench.sweep_rates(dataset, [80.0, 128.0], window=WindowSpec("cinf", 4))
    assert len(rows) == 2
    assert len(calls) == 2


class TestRouteLabels:
    """Rows and reports name the method the window and n_p selected."""

    def test_rect_with_polynomial_rows_is_ps(self, dataset):
        rows = bench.sweep_rates(dataset, [80.0], window=WindowSpec("rectangular"),
                                 n_p=10)
        assert [(r.method, r.window) for r in rows] == [("ps", "rect")]

    def test_named_method_must_match(self, dataset):
        cinf4 = bench.parse_window("cinf:4")
        assert bench.estimate(dataset, 80.0, "corrected", cinf4, 0).method == "corrected"
        with pytest.raises(ValueError, match="'mixed' disagrees"):
            bench.estimate(dataset, 80.0, "mixed", cinf4, 0)
        with pytest.raises(ValueError, match="select 'naive'"):
            bench.sweep_rates(dataset, [80.0], "ps", None)


class TestProbeBin:
    """The probe norm is ||e(f)|| at the bin nearest the probe frequency.
    At f_s = 64 the two-sided grid is 0..31, -32..-1 Hz, enough bins for
    the reference model's 50 parameters."""

    @pytest.fixture(scope="class")
    def norm_at(self, dataset):
        resid = residual_spectrum(dataset.theta_true,
                                  bench.estimate(dataset, 64.0).regression)
        norms, _ = error_norms(resid)
        return lambda freq: norms[np.flatnonzero(resid.freqs == freq)[0]]

    def probe(self, dataset, freq):
        return bench.sweep_rates(dataset, [64.0], probe_freq=freq)[0].residual_probe

    def test_picks_nearest_bin(self, dataset, norm_at):
        assert self.probe(dataset, 3.4) == norm_at(3.0)

    def test_negative_probes_inside_the_grid(self, dataset, norm_at):
        assert self.probe(dataset, -2.2) == norm_at(-2.0)
        assert self.probe(dataset, 31.5) == norm_at(31.0)

    @pytest.mark.parametrize("freq", [31.51, -32.6, 1000.0, np.nan])
    def test_probe_past_half_a_bin_rejected(self, dataset, freq):
        with pytest.raises(ValueError, match="outside"):
            self.probe(dataset, freq)


class TestFerrBound:
    """f_err bounds the identifier's aliasing residual: at the first rate of
    at least 2 (f_max + max_{k <= n_a} f_err(w, k, p)), the true parameters
    leave a residual of at most p of the fixed block M1, both maxima taken
    over channels and bins.  The rule is a bound, not a prediction: the
    observed ratios lie 5 to 4e4 times below p.  sin:2 at p = 1e-6 needs
    2885 Hz, above every rate here, so it is not a case."""

    RATES = [80, 96, 128, 160, 192, 256, 384, 512, 768]

    # the rate the rule picks and the observed ratio in each comment
    @pytest.mark.parametrize("window, p", [
        ("cinf:1", 1e-6),  # 128 Hz, 2.7e-9
        ("cinf:1", 1e-9),  # 192 Hz, 1.9e-12
        ("cinf:1", 1e-12),  # 256 Hz, 2.0e-14
        ("cinf:4", 1e-6),  # 96 Hz, 4.4e-10
        ("cinf:4", 1e-9),  # 128 Hz, 2.5e-14
        ("sin:4", 1e-3),  # 80 Hz, 4.3e-6
        ("sin:4", 1e-6),  # 192 Hz, 3.9e-8
        ("sin:4", 1e-9),  # 768 Hz, 1.5e-10
        ("sin:2", 1e-3),  # 160 Hz, 1.8e-4
    ])
    def test_residual_below_p_at_the_rule_rate(self, dataset, window, p):
        spec = bench.parse_window(window)
        need = 2 * (bench.REF_F_MAX + max(f_err(spec, k, p) for k in (0, 1)))
        x, u = dataset.decimated(next(r for r in self.RATES if r >= need))
        reg = identify.build_regression(x, u, dataset.theta_true.structure, spec)
        resid = residual_spectrum(dataset.theta_true, reg).coeffs
        assert np.abs(resid).max() / np.abs(reg.m1).max() <= p
