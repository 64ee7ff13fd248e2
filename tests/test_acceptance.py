"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The benchmark dataset (5-state system, 85 complex
tones on [1, 20*sqrt(2)] Hz, T = 1 s) is simulated once per root seed and
shared across criteria.
"""

import numpy as np
import pytest

import freqwin.bench as bench
from analysis_helpers import loglog_slope
from freqwin import (ModelParams, ModelStructure, Signal, SimConfig,
                     WindowSpec, apply_window, correction_spectra, error_norms, fft_spectrum,
                     identify_from_signals, integrate_rk4, overlap_variance,
                     param_error, random_system, resample, residual_spectrum,
                     rng_for, window_table, f_err)
from leibniz_oracle import correction_time_oracle

T = 1.0
CINF4 = WindowSpec("cinf", 4.0)
SIN1 = WindowSpec("sin", 1)


def report(criterion, ok, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def paper_data():
    return bench.reference_dataset(seed=bench.REF_SEED)


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_leibniz_oracle_equivalence():
    """Corrections from the binomial sum over modulated spectra match the
    Leibniz time oracle to 1e-7 for j = 1..4 across the window set at
    N = 4096.

    The multisine is periodic with its first moments projected out so the
    windowed products are continuous across the record wrap: boundary jumps
    are a sampling artifact that decays only like 1/N^(window order minus
    correction order) and so cannot be suppressed by windows of order at or
    below the correction order; they are not part of the algebra under test
    here.
    """
    n, over = 4096, 16
    tones = np.arange(4.0, 33.0, 4.0)
    rng = rng_for(7, 99)
    amps = rng.standard_normal(len(tones)) + 1j * rng.standard_normal(len(tones))
    v = np.vander(tones, 4, increasing=True).T
    amps = amps - np.linalg.pinv(v) @ (v @ amps)

    def values(tt, m=0):
        om = 2j * np.pi * tones
        return ((amps * om**m)[None, :] @ np.exp(np.outer(om, tt))).real

    sig = Signal(length=T, values=values(np.arange(n) * T / n))
    sig_hi = Signal(length=T, values=values(np.arange(n * over) * T / (n * over)))
    worst = 0.0
    for spec in (WindowSpec("sin", 3), WindowSpec("sin", 4),
                 WindowSpec("cinf", 1), CINF4):
        table = window_table(spec, n, 4)
        table_hi = window_table(spec, n * over, 4)
        cs = correction_spectra(sig, table, 4)
        for j in (1, 2, 3, 4):
            oracle = resample(
                correction_time_oracle(sig_hi, table_hi, j, oversample=over), n)
            rec = np.fft.ifft(cs[j - 1].coeffs[0] * (n / T)).real
            ref = oracle.values[0].real
            rel = np.linalg.norm(rec - ref) / np.linalg.norm(ref)
            worst = max(worst, rel)
    ok = worst < 1e-7
    assert report(1, ok, f"Leibniz-oracle worst rel err {worst:.2e} < 1e-7")


# ---------------------------------------------------------------- criterion 2
REFERENCE_FERR_CASES = [
    ("sin", 1, 0, 1e-3, 16.0),
    ("sin", 1, 0, 1e-6, 502.0),
    ("sin", 2, 0, 1e-3, 7.0),
    ("sin", 2, 0, 1e-6, 68.0),
    ("cinf", 1, 0, 1e-3, 7.0),
    ("cinf", 1, 0, 1e-6, 19.0),
    ("cinf", 1, 0, 1e-12, 64.0),
    ("sin", 2, 1, 1e-3, 45.0),
    ("sin", 2, 1, 1e-6, 1453.0),
]


def test_criterion_2_ferr_spot_checks():
    """f_err reproduces the tabulated rejection frequencies within the
    stated +-1 grid unit or +-10 percent tolerance."""
    failures = []
    for fam, order, k, p, expect in REFERENCE_FERR_CASES:
        got = f_err(WindowSpec(fam, order), k, p)
        tol = max(1.0, 0.1 * expect)
        if abs(got - expect) > tol:
            failures.append((fam, order, k, p, expect, got))
    ok = not failures
    assert report(2, ok, f"{len(REFERENCE_FERR_CASES) - len(failures)}/"
                         f"{len(REFERENCE_FERR_CASES)} tabulated f_err values "
                         f"reproduced; mismatches: {failures or 'none'}")


def test_criterion_2_sin2_deep_tail_tabulated_value():
    """The remaining tabulated spot value: sin_2 window at p = 1e-12,
    listed as 4911.

    Expected to FAIL: the closed-form transform of sin^2(pi t/T) has peak
    envelope |w(f)|/S = 1/(pi f (f^2 - 1)), which crosses 1e-12 near
    f = 6828/T, not 4911/T (the level at 4911 is 2.7e-12).  The companion
    test below pins the implementation against that closed form; see the
    decisions ledger for the full analysis.
    """
    got = f_err(WindowSpec("sin", 2), 0, 1e-12)
    expect = 4911.0
    ok = abs(got - expect) <= max(1.0, 0.1 * expect)
    report(2, ok, f"sin_2 f_err(1e-12): got {got:g}, table says {expect:g}")
    assert ok


def test_criterion_2_sin2_deep_tail_closed_form_cross_check():
    """Independent closed form: the half-integer peak envelope of the
    sin^2 window transform crosses 1e-12 where pi f (f^2 - 1) = 1e12."""
    roots = np.roots([np.pi, 0.0, -np.pi, -1e12])
    crossing = float(roots[np.isreal(roots)].real.max())
    got = f_err(WindowSpec("sin", 2), 0, 1e-12)
    assert abs(got - crossing) <= max(1.0, 0.01 * crossing)


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_decay_slopes(paper_data):
    """Residual-norm decay versus sampling rate follows the window classes:
    1/f_s for sin_1, 1/f_s^2 for sin_2, 1/f_s^4 for sin_3 and sin_4.

    The trends are those of the residual at a fixed frequency (f = 2 Hz
    here); the whole-band L2 norm integrates a bin range that grows with
    f_s and theoretically loses half an order, so it is reported alongside
    without a gate."""
    rates = [128.0, 192.0, 256.0, 384.0, 512.0, 768.0]
    limits = {1: -0.7, 2: -1.7, 3: -3.5, 4: -3.5}
    ok = True
    details = []
    for n, limit in limits.items():
        rows = bench.sweep_rates(paper_data, rates, window=WindowSpec("sin", n),
                                 probe_freq=2.0)
        probe = [r.residual_probe for r in rows]
        full = [r.residual_l2 for r in rows]
        slope, _ = loglog_slope(rates, probe)
        slope_full, _ = loglog_slope(rates, full)
        details.append(f"sin_{n}: e(2) slope {slope:.2f} (<= {limit}), "
                       f"||E|| slope {slope_full:.2f}")
        ok = ok and slope <= limit
    assert report(3, ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_near_machine_precision(paper_data):
    r80 = bench.estimate(paper_data, 80.0, window=CINF4)
    r160 = bench.estimate(paper_data, 160.0, window=CINF4)
    e80 = param_error(paper_data.theta_true, r80.theta_hat)
    e160 = param_error(paper_data.theta_true, r160.theta_hat)
    ok = e80 < 1e-6 and e160 <= 1e-2 * e80
    assert report(4, ok, f"cinf_4 param err: f_s=80 -> {e80:.2e} (< 1e-6), "
                         f"f_s=160 -> {e160:.2e} "
                         f"(improvement {e80 / e160:.0f}x >= 100x)")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_baseline_ordering(paper_data):
    e_corr = param_error(paper_data.theta_true,
                         bench.estimate(paper_data, 80.0, window=CINF4).theta_hat)
    e_naive = param_error(paper_data.theta_true,
                          bench.estimate(paper_data, 80.0).theta_hat)
    ps_report = bench.estimate(paper_data, 80.0, n_p=50)
    assert ps_report.poly_coeffs.shape == (5, 50)  # 250 extra parameters
    e_ps = param_error(paper_data.theta_true, ps_report.theta_hat)
    t_corr = min(bench.estimate(paper_data, 80.0, window=CINF4).wall_time
                 for _ in range(5))
    t_ps = min(bench.estimate(paper_data, 80.0, n_p=50).wall_time
               for _ in range(5))
    ok = (e_naive >= 1e3 * e_corr) and (e_ps <= 10 * e_corr) and (t_ps > t_corr)
    assert report(
        5, ok,
        f"naive/corrected = {e_naive / e_corr:.1e} (>= 1e3); "
        f"ps50/corrected = {e_ps / e_corr:.2g} (<= 10); "
        f"time ps50 {t_ps * 1e3:.2f} ms > corrected {t_corr * 1e3:.2f} ms")


# ---------------------------------------------------------------- criterion 6
@pytest.mark.slow
def test_criterion_6_noise_regime_inversion():
    """With heavy noise the broad sin_1 window wins; with nearly clean data
    the bump window's lower aliasing wins.  Statistical assertion over the
    seed-mean of 3 root seeds, 100 trials each at f_s = 80."""
    roots = (11, 12, 13)
    trials = 100
    means = {}
    for sigma in (1e-2, 1e-8):
        for spec in (SIN1, CINF4):
            errs = []
            for root in roots:
                ds = bench.reference_dataset(seed=root)
                reports = bench.monte_carlo(ds, 80.0, sigma, trials, spec)
                from freqwin import ensemble_stats

                err_curve, _ = ensemble_stats(reports, ds.theta_true)
                errs.append(err_curve[-1])
            means[(sigma, spec.label)] = float(np.mean(errs))
    hi_ok = means[(1e-2, "sin_1")] < means[(1e-2, "cinf_4")]
    lo_ok = means[(1e-8, "cinf_4")] < means[(1e-8, "sin_1")]
    ok = hi_ok and lo_ok
    assert report(
        6, ok,
        f"sigma=1e-2: sin_1 {means[(1e-2, 'sin_1')]:.2e} < "
        f"cinf_4 {means[(1e-2, 'cinf_4')]:.2e}; "
        f"sigma=1e-8: cinf_4 {means[(1e-8, 'cinf_4')]:.2e} < "
        f"sin_1 {means[(1e-8, 'sin_1')]:.2e}")


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_aliasing_foldback():
    """DFT coefficients of the decimated record equals the true coefficient
    plus the fold-back sum of the 16x oversampled reference coefficients."""
    n, over = 64, 16
    t_hi = np.arange(n * over) * T / (n * over)
    tones = np.array([2.3, 7.7, 19.4, 41.8])
    rng = rng_for(21, 99)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    base = (amps[None, :] @ np.exp(2j * np.pi * np.outer(tones, t_hi)))
    w = np.sin(np.pi * t_hi / T) ** 2
    sig_hi = Signal(length=T, values=w * base)
    sig = resample(sig_hi, n)
    ref = fft_spectrum(sig_hi).coeffs[0]
    dec = fft_spectrum(sig).coeffs[0]
    worst = 0.0
    scale = np.abs(dec).max()
    for k in range(n):
        a_k = ref[k]
        alias = sum(ref[(k + m * n) % (n * over)] for m in range(1, over))
        worst = max(worst, abs(dec[k] - (a_k + alias)) / scale)
    ok = worst < 1e-10
    assert report(7, ok, f"fold-back identity worst rel err {worst:.2e} < 1e-10")


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_overlap_variance():
    rect = WindowSpec("rectangular")
    k = 50
    worst_rect = 0.0
    for tau in (0.0, 0.25, 0.5, 0.8):
        expect = 1.0
        for j in range(1, k):
            rho = max(0.0, 1.0 - j * (1.0 - tau)) ** 2
            expect += 2 * (k - j) / k * rho
        expect /= k
        got = overlap_variance(rect, tau, k)
        worst_rect = max(worst_rect, abs(got - expect) / expect)
    base = 20
    worst_sin = 0.0
    for n in (1, 2, 3, 4):
        spec = WindowSpec("sin", n)
        vals = {}
        for tau in (0.0, 0.8, 0.95):
            kk = int(np.floor((base - 1) / (1.0 - tau))) + 1
            vals[tau] = overlap_variance(spec, tau, kk)
        rel = abs(vals[0.8] / vals[0.0] - vals[0.95] / vals[0.0]) / (
            vals[0.95] / vals[0.0])
        worst_sin = max(worst_sin, rel)
    ok = worst_rect < 1e-12 and worst_sin < 0.05
    assert report(8, ok, f"rectangular vs analytic rho: {worst_rect:.1e}; "
                         f"sin_n 80% vs 95% overlap gap {worst_sin:.2%} < 5%")


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_rk4_order():
    structure = ModelStructure(1, 1, 1, 0)
    theta = ModelParams(structure, A=(np.eye(1), np.eye(1)),
                        B=(np.zeros((1, 1)),))
    from freqwin import ForcingSpec

    silent = ForcingSpec(amplitudes=np.zeros((1, 1)), freqs=np.array([1.0]))
    dts = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    errs = []
    for dt in dts:
        cfg = SimConfig(structure=structure, dt=dt, length=1.0,
                        x0=np.array([1.0]))
        out = integrate_rk4(theta, silent, cfg)
        errs.append(abs(out.terminal[0] - np.exp(-1.0)))
    slope, _ = loglog_slope(dts, errs)
    ok = abs(slope - 4.0) <= 0.2
    assert report(9, ok, f"RK4 fitted convergence order {slope:.3f} = 4.0 +- 0.2")


# --------------------------------------------------------------- criterion 10
def damped_exponential_records(theta, seed, f_s, num_terms=40):
    """Closed-form records of x' + A_0 x = B_0 u (A_1 = I), no RK4, driven by
    u(t) = sum_j c_j exp(s_j t): 40 damped complex exponentials with
    Re s_j in [-20, -0.5] 1/s and Im s_j / 2 pi in [-20, 20] Hz, from a
    random complex x(0).  Neither record is periodic or band-limited (the
    input's spectrum falls like 1/f).  x(t) is the particular part
    sum_j q_j exp(s_j t), q_j = (s_j I + A_0)^-1 B_0 c_j, plus the
    homogeneous part exp(-A_0 t) (x(0) - sum_j q_j) on the eigenvectors
    of -A_0."""
    A0, B0 = theta.A[0], theta.B[0]
    n_x, n_u = B0.shape
    rng = rng_for(seed, 77)
    rates = (-rng.uniform(0.5, 20.0, num_terms)
             + 2j * np.pi * rng.uniform(-20.0, 20.0, num_terms))
    c = (rng.standard_normal((n_u, num_terms))
         + 1j * rng.standard_normal((n_u, num_terms)))
    x0 = rng.standard_normal(n_x) + 1j * rng.standard_normal(n_x)
    q = np.stack([np.linalg.solve(s_j * np.eye(n_x) + A0, B0 @ c_j)
                  for s_j, c_j in zip(rates, c.T)], axis=1)
    lam, vecs = np.linalg.eig(-A0)
    t = np.arange(int(f_s * T)) / f_s
    modes = np.exp(np.outer(rates, t))
    hom = vecs @ (np.linalg.solve(vecs, x0 - q.sum(axis=1))[:, None]
                  * np.exp(np.outer(lam, t)))
    return (Signal(length=T, values=q @ modes + hom),
            Signal(length=T, values=c @ modes))


def test_criterion_10_arbitrary_signals():
    """The title's "arbitrary signals": on non-periodic, non-band-limited
    records (damped complex exponentials, closed form) the e(2 Hz) decay
    follows criterion 3's window classes, cinf_4 identifies to the float
    floor at every rate, and the naive estimate is at least 1e3 worse
    (criterion 5's ratio), over three forcing seeds."""
    structure = bench.REF_STRUCTURE
    theta = random_system(structure, bench.REF_SEED)
    rates = [128.0, 192.0, 256.0, 384.0, 512.0, 768.0]
    limits = {1: -0.7, 2: -1.7, 3: -3.5, 4: -3.5}
    seeds = (1, 2, 3)
    ok = True
    details = []
    for seed in seeds:
        probes = {n: [] for n in limits}
        e_cinf, e_naive = [], []
        for f_s in rates:
            x, u = damped_exponential_records(theta, seed, f_s)
            for n in limits:
                reg = identify_from_signals(x, u, structure, WindowSpec("sin", n)).regression
                resid = residual_spectrum(theta, reg)
                norms, _ = error_norms(resid)
                probes[n].append(norms[np.flatnonzero(resid.freqs == 2.0)[0]])
            e_cinf.append(param_error(theta, identify_from_signals(
                x, u, structure, CINF4).theta_hat))
            e_naive.append(param_error(theta, identify_from_signals(
                x, u, structure).theta_hat))
        slopes = {n: loglog_slope(rates, probes[n])[0] for n in limits}
        e_cinf, e_naive = np.array(e_cinf), np.array(e_naive)
        ok = (ok and all(slopes[n] <= limit for n, limit in limits.items())
              and e_cinf.max() <= 1e-9 and np.all(e_naive >= 1e3 * e_cinf))
        details.append(
            f"seed {seed}: e(2) slopes "
            + ", ".join(f"sin_{n} {slopes[n]:.2f}" for n in limits)
            + f"; cinf_4 err <= {e_cinf.max():.1e} (<= 1e-9); "
            f"naive/cinf_4 >= {(e_naive / e_cinf).min():.1e} (>= 1e3)")
    assert report(10, ok, "; ".join(details))


# --------------------------------------------------------------- criterion 11
def test_criterion_11_windowed_input_output_identity(paper_data):
    """The abstract's premise at the true parameters: windowed spectra are
    not related by the transfer function G(f) = (D + A_0)^-1 B_0 alone.
    For x' + A_0 x = B_0 u and a window w that vanishes at both edges,
    integrating w x' by parts gives (D + A_0) X_0 - X_1 = B_0 U_0 (X_k, U_k:
    transforms of w^(k) x, w^(k) u), so on the tone bins (1-28 Hz)

        e(f) = X_0 - G U_0 - (D + A_0)^-1 X_1

    is quadrature error only: cinf:4's must be far below 1e-12 of
    max |X_0| at 80-768 Hz.  sin:1 and sin:2 alias (w' or w'' jumps at the
    edges) and are recorded, not gated.  The rectangular window has no X_1
    and w = 1 at the edges, so e(f) keeps the boundary term of the same
    integration by parts, p0 = -(D + A_0)^-1 (x(T) - x(0)); the DFT's
    left-endpoint sum adds its Euler-Maclaurin end terms, which with
    x' = -A_0 x + B_0 u and v = dx - G du (d: value at T minus value at 0)
    are p1 = -(h/2) v and p2 = -(h^2/12) ((D + A_0) v + G (du' - D du)).
    The test asserts ||e(f)|| >= ||p0|| - ||p1|| - ||p2|| on every tone bin,
    a bound derived from the records' ends, not tuned to the mismatch; it
    drops the O(h^4) remainder, at most 4.8 % of ||p0|| at 80 Hz and
    5e-6 at 768 Hz on this dataset."""
    theta = paper_data.theta_true
    a0, b0 = theta.A[0], theta.B[0]
    du_dt = np.diff(paper_data.forcing.evaluate([0.0, T], 1), axis=1)[:, 0]
    worst = {"cinf_4": 0.0, "sin_1": 0.0, "sin_2": 0.0}
    rect_ok, rect_worst, rect_bound, rect_rel = True, np.inf, 0.0, []
    for f_s in (80.0, 128.0, 256.0, 768.0):
        x, u = paper_data.decimated(f_s)
        h = T / x.num_samples
        dx, du = x.terminal - x.values[:, 0], u.terminal - u.values[:, 0]
        for spec in (CINF4, SIN1, WindowSpec("sin", 2), WindowSpec("rectangular")):
            k = 0 if spec.family == "rectangular" else 1
            spectra = fft_spectrum(apply_window((x, u), window_table(spec, x.num_samples, k),
                                                (k, 0)))
            tones = np.flatnonzero((spectra.freqs >= 1.0) & (spectra.freqs <= 28.0))
            x0 = spectra.coeffs[:5, tones]
            x1 = spectra.coeffs[5:10, tones] if k else np.zeros_like(x0)
            u0 = spectra.coeffs[5 * (k + 1):, tones]
            scale = np.abs(x0).max()
            for j, f in enumerate(spectra.freqs[tones]):
                d = 2j * np.pi * f
                op = d * np.eye(5) + a0
                g = np.linalg.solve(op, b0)
                e = x0[:, j] - g @ u0[:, j] - np.linalg.solve(op, x1[:, j])
                if k:
                    worst[spec.label] = max(worst[spec.label], np.abs(e).max() / scale)
                    continue
                rect_rel.append(np.abs(e).max() / scale)
                v = dx - g @ du
                bound = (np.linalg.norm(np.linalg.solve(op, dx)) - h / 2 * np.linalg.norm(v)
                         - h * h / 12 * np.linalg.norm(op @ v + g @ (du_dt - d * du)))
                rect_ok = rect_ok and np.linalg.norm(e) >= bound
                rect_worst = min(rect_worst, np.linalg.norm(e) - bound)
                rect_bound = max(rect_bound, bound / np.linalg.norm(x0, axis=0).max())
    ok = worst["cinf_4"] <= 1e-14 and rect_ok
    assert report(11, ok, f"cinf_4 |e| <= {worst['cinf_4']:.1e} max|X_0| (<= 1e-14); "
                  f"rect |e| up to {max(rect_rel):.2f} max|X_0|, "
                  f"||e|| >= derived bound on every tone bin (least margin "
                  f"{rect_worst:.1e}), bound up to {rect_bound:.2f} max||X_0||; "
                  f"recorded: sin_1 {worst['sin_1']:.1e}, sin_2 {worst['sin_2']:.1e}")
