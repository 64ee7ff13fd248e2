from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import freqwin.bench as bench
import freqwin.identify as identify

from freqwin import (ModelParams, ModelStructure, RankDeficiencyError,
                     RegressionSystem, Signal, WindowSpec, apply_window,
                     build_regression, fft_spectrum, identify_from_signals,
                     param_error, residual_spectrum, rng_for, solve_ls,
                     window_table)
from freqwin.corrections import modulated_row
from freqwin.identify import METHODS

T = 1.0


def exact_dataset(seed=0, n=128, n_x=2, n_u=2):
    """Steady-state response to an on-grid multisine: the frequency-domain
    equation holds exactly on every bin with a rectangular window."""
    rng = rng_for(seed, 50)
    structure = ModelStructure(n_x=n_x, n_u=n_u, n_a=1, n_b=0)
    A0 = rng.standard_normal((n_x, n_x))
    B0 = rng.standard_normal((n_x, n_u))
    theta = ModelParams(structure, A=(A0, np.eye(n_x)), B=(B0,))
    bins = np.array([3, 7, 11, 19])
    amps = rng.standard_normal((n_u, bins.size)) + 1j * rng.standard_normal((n_u, bins.size))
    t = np.arange(n) * T / n
    u = amps @ np.exp(2j * np.pi * np.outer(bins / T, t))
    x = np.zeros((n_x, n), dtype=complex)
    for j, k in enumerate(bins):
        gain = np.linalg.solve(2j * np.pi * (k / T) * np.eye(n_x) + A0,
                               B0 @ amps[:, j])
        x += gain[:, None] * np.exp(2j * np.pi * (k / T) * t)[None, :]
    return (Signal(length=T, values=x), Signal(length=T, values=u), theta)


class TestStructureValidation:
    def test_dimension_rules(self):
        with pytest.raises(ValueError):
            ModelStructure(n_x=2, n_u=2, n_a=0, n_b=0)
        with pytest.raises(ValueError):
            ModelStructure(n_x=2, n_u=2, n_a=1, n_b=-1)

    def test_paper_parameter_count(self):
        s = ModelStructure(n_x=5, n_u=5, n_a=1, n_b=0)
        assert s.free_parameter_count == 50

    def test_params_shape_validation(self):
        s = ModelStructure(n_x=2, n_u=1, n_a=1, n_b=0)
        with pytest.raises(ValueError):
            ModelParams(s, A=(np.eye(2),), B=(np.zeros((2, 1)),))
        with pytest.raises(ValueError):
            ModelParams(s, A=(np.eye(2), np.eye(2)), B=(np.zeros((1, 2)),))

    def test_complex_matrices_rejected(self):
        # a real-typed copy would silently drop the imaginary part
        s = ModelStructure(n_x=1, n_u=1, n_a=1, n_b=0)
        with pytest.raises(ValueError, match="real"):
            ModelParams(s, A=(np.array([[-2j * np.pi]]), np.eye(1)), B=(np.eye(1),))
        with pytest.raises(ValueError, match="real"):
            ModelParams(s, A=(np.eye(1), np.eye(1)), B=(np.eye(1, dtype=complex),))

    @pytest.mark.parametrize("field", ["A", "B"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_matrices_rejected(self, field, value):
        # a NaN A_0 used to reach the simulator's SVD before failing there
        s = ModelStructure(n_x=2, n_u=1, n_a=1, n_b=0)
        mats = {"A": [np.zeros((2, 2)), np.eye(2)], "B": [np.ones((2, 1))]}
        mats[field][0][1, 0] = value
        with pytest.raises(ValueError, match="A and B must be finite"):
            ModelParams(s, A=tuple(mats["A"]), B=tuple(mats["B"]))

    def test_blocks_are_read_only_views(self):
        # writing into a dataset's truth used to rewrite what every later
        # sweep row and param_error compared against
        ds = bench.reference_dataset(3, fine_rate=7680)
        before = [m.copy() for m in ds.theta_true.A + ds.theta_true.B]
        for m in ds.theta_true.A + ds.theta_true.B:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0
        for m, want in zip(ds.theta_true.A + ds.theta_true.B, before, strict=True):
            np.testing.assert_array_equal(m, want)
        A0, B0 = np.zeros((2, 2)), np.ones((2, 1))
        theta = ModelParams(ModelStructure(2, 1, 1, 0), A=(A0, np.eye(2)), B=(B0,))
        assert np.shares_memory(theta.A[0], A0) and np.shares_memory(theta.B[0], B0)
        assert A0.flags.writeable and B0.flags.writeable


@pytest.mark.parametrize("dims, bound", [
    ((1, 3, 1, 0), 1e-12),  # observed 6.0e-14
    ((2, 4, 1, 1), 1e-9),  # 1.2e-10
    ((1, 2, 2, 1), 1e-9),  # 1.4e-10
])
def test_more_inputs_than_states(dims, bound):
    ds = bench.reference_dataset(42, fine_rate=30720, structure=ModelStructure(*dims))
    x, u = ds.decimated(256)
    report = identify_from_signals(x, u, ds.theta_true.structure,
                                   window_spec=WindowSpec("cinf", 4))
    assert param_error(ds.theta_true, report.theta_hat) <= bound


class TestExactRecovery:
    def test_naive_on_consistent_data(self):
        x, u, theta = exact_dataset()
        report = identify_from_signals(x, u, theta.structure)
        assert param_error(theta, report.theta_hat) < 1e-10
        assert report.residual_l2 < 1e-10
        assert report.imag_norm < 1e-10

    def test_corrected_on_consistent_data(self):
        x, u, theta = exact_dataset()
        report = identify_from_signals(x, u, theta.structure,
                                       window_spec=WindowSpec("cinf", 2))
        assert param_error(theta, report.theta_hat) < 1e-9

    def test_duplicated_band_leaves_estimate_unchanged(self):
        x, u, theta = exact_dataset()
        band = np.arange(x.num_samples)
        reg1 = build_regression(x, u, theta.structure, band=band)
        reg2 = build_regression(x, u, theta.structure,
                                band=np.concatenate([band, band]))
        t1 = solve_ls(reg1).theta_hat
        t2 = solve_ls(reg2).theta_hat
        for m1, m2 in zip(t1.A + t1.B, t2.A + t2.B):
            np.testing.assert_allclose(m1, m2, atol=1e-11)

    def test_normalization_invariance(self):
        x, u, theta = exact_dataset()
        scale = 37.5
        xs = Signal(length=T, values=scale * x.values)
        us = Signal(length=T, values=scale * u.values)
        r1 = identify_from_signals(x, u, theta.structure)
        r2 = identify_from_signals(xs, us, theta.structure)
        for m1, m2 in zip(r1.theta_hat.A + r1.theta_hat.B,
                          r2.theta_hat.A + r2.theta_hat.B):
            np.testing.assert_allclose(m1, m2, atol=1e-11)

    def test_solver_determinism(self):
        x, u, theta = exact_dataset()
        r1 = identify_from_signals(x, u, theta.structure)
        r2 = identify_from_signals(x, u, theta.structure)
        for m1, m2 in zip(r1.theta_hat.A + r1.theta_hat.B,
                          r2.theta_hat.A + r2.theta_hat.B):
            np.testing.assert_array_equal(m1, m2)


REF = ModelStructure(n_x=5, n_u=5, n_a=1, n_b=0)


def random_regression(seed, cols, n_poly):
    """Random complex model rows of the reference structure (A_0 then B_0)
    on a centred frequency grid, with n_poly implied Chebyshev rows."""
    rng = np.random.default_rng(seed)
    freqs = np.fft.fftfreq(cols, d=1.0 / cols)
    model = rng.standard_normal((10, cols)) + 1j * rng.standard_normal((10, cols))
    m1 = rng.standard_normal((5, cols)) + 1j * rng.standard_normal((5, cols))
    return RegressionSystem(m1=m1, m2=model, freqs=freqs, band=np.arange(cols),
                            structure=REF, length=T, n_poly=n_poly)


def full_m2(reg):
    """M2 = [m2; P]: the model rows and the implied polynomial rows."""
    return np.vstack([reg.m2, identify._poly_rows(reg.freqs, reg.n_poly)])


def consistent_regression(rng, m2, n_p):
    """Model rows m2 on a centred grid with n_p implied polynomial rows and
    -M1 = theta M2 for a random real theta: the least-squares oracle then
    holds to a few eps cond(M2)."""
    cols = m2.shape[1]
    reg = RegressionSystem(m1=np.zeros((5, cols)), m2=m2,
                           freqs=np.fft.fftfreq(cols, d=1.0 / cols), band=np.arange(cols),
                           structure=REF, length=T, n_poly=n_p)
    return replace(reg, m1=-rng.standard_normal((5, 10 + n_p)) @ full_m2(reg))


def assert_rank_rule(reg):
    """Where the bound certifies full rank the SVD rule counts it too;
    solve_ls raises exactly when the SVD rule finds rank < rows, with its
    message; every full-rank solve, fallbacks included, matches the lstsq
    oracle."""
    rows = 10 + reg.n_poly
    tri, rhs, poly = identify._factor(reg)
    rank, message = svd_rule(tri)
    if identify._certified_solve(tri, rhs, 10, poly)[1]:
        assert rank == rows
    if rank < rows:
        with pytest.raises(RankDeficiencyError) as raised:
            solve_ls(reg)
        assert str(raised.value) == message
        return
    report = solve_ls(reg)
    oracle = np.linalg.lstsq(full_m2(reg).T, -reg.m1.T, rcond=None)[0].T
    s = np.linalg.svd(tri, compute_uv=False)
    slack = 16 * np.finfo(float).eps * s[0] / s[-1]
    got = np.hstack([report.theta_hat.A[0], report.theta_hat.B[0]])
    np.testing.assert_allclose(got, oracle[:, :10].real, rtol=0,
                               atol=(1e-12 + slack) * np.abs(oracle).max())


def svd_rule(tri):
    """The numerical rank of the small factor S by its SVD (singular values
    above RANK_RTOL * s_max) and the message solve_ls raises below full
    rank."""
    s = np.linalg.svd(tri, compute_uv=False)
    rank = int(np.count_nonzero(s > identify.RANK_RTOL * s[0]))
    ratio = s[-1] / s[0] if s[0] > 0 else 0.0
    return rank, (f"numerical rank {rank} below parameter row count {tri.shape[0]} "
                  f"(smallest singular value ratio {ratio:.2e})")


class TestSolver:
    @pytest.mark.parametrize("rows, cols", [(10, 80), (20, 768), (60, 768)])
    def test_matches_pseudo_inverse_oracle(self, rows, cols):
        reg = random_regression(rows + cols, cols, rows - 10)
        oracle = -reg.m1 @ np.linalg.pinv(full_m2(reg))
        report = solve_ls(reg)
        scale = np.abs(oracle).max()
        got = np.hstack([report.theta_hat.A[0], report.theta_hat.B[0]])
        np.testing.assert_allclose(got, oracle[:, :10].real, rtol=0,
                                   atol=1e-12 * scale)
        assert report.imag_norm == pytest.approx(
            np.linalg.norm(oracle[:, :10].imag), rel=1e-12)
        if rows > 10:
            np.testing.assert_allclose(report.poly_coeffs, oracle[:, 10:],
                                       rtol=0, atol=1e-12 * scale)
        assert report.m2_condition == pytest.approx(np.linalg.cond(full_m2(reg)),
                                                    rel=1e-10)

    def test_duplicated_row_is_rank_deficient(self):
        reg = random_regression(1, 80, 0)
        m2 = reg.m2.copy()
        m2[3] = m2[0]
        with pytest.raises(RankDeficiencyError,
                           match=r"rank 9 below .*\(smallest singular value ratio"):
            solve_ls(replace(reg, m2=m2))

    def test_zero_matrix_is_rank_deficient(self):
        reg = random_regression(2, 80, 0)
        with pytest.raises(RankDeficiencyError,
                           match=r"rank 0 below .*\(smallest singular value ratio 0\.00e\+00\)"):
            solve_ls(replace(reg, m2=np.zeros_like(reg.m2)))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_p=st.sampled_from([0, 10, 50]),
           log_rel=st.floats(-16.0, -6.0))
    def test_rank_certificate_agrees_with_the_svd_rule(self, seed, n_p, log_rel):
        """One model row replaced by a random combination of M2's other rows
        plus a perturbation of relative size 10^log_rel: cond(M2) sweeps
        about 1e6..1e16, across the band between the certificate's 1e10 and
        the SVD rule's 1 / RANK_RTOL."""
        rng = np.random.default_rng(seed)

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        rows = 10 + n_p
        cols = int(rng.integers(2 * rows, 4 * rows))
        reg = consistent_regression(rng, gauss(10, cols), n_p)
        j = int(rng.integers(10))
        comb = gauss(rows - 1) @ np.delete(full_m2(reg), j, axis=0)
        reg.m2[j] = comb + 10.0**log_rel * np.linalg.norm(comb) / np.sqrt(cols) * gauss(cols)
        assert_rank_rule(consistent_regression(rng, reg.m2, n_p))

    @pytest.mark.parametrize("weight", [1e3, 1e4, 1e5, 1e6, 1e7])
    @pytest.mark.parametrize("n_p", [10, 50])
    def test_rank_certificate_on_rows_near_the_polynomial_span(self, n_p, weight):
        """Model rows of O(1) plus weight times polynomial combinations:
        S's corner block Z grows with the weight while Rw and Rp stay O(1),
        so S^-1's corner -Rp^-1 Z Rw^-1 carries cond(M2), 2e7..6e15 here."""
        rng = np.random.default_rng(5)
        cols = 4 * (10 + n_p)
        freqs = np.fft.fftfreq(cols, d=1.0 / cols)
        m2 = rng.standard_normal((10, cols)) + 1j * rng.standard_normal((10, cols))
        m2 += weight * rng.standard_normal((10, n_p)) @ identify._poly_rows(freqs, n_p)
        assert_rank_rule(consistent_regression(rng, m2, n_p))

    @pytest.mark.parametrize("case", ["nan", "overflow", "singular_rw", "singular_rp"])
    @pytest.mark.parametrize("n_p", [0, 10])
    def test_uncertifiable_factors_fall_back_to_the_svd_rule(self, case, n_p):
        """A NaN, an inverse whose norm overflows (one row scaled by
        1e-200), an exactly singular Rw (inverting it raises LinAlgError)
        or an exactly singular Rp (all-zero band: the second Chebyshev row
        vanishes) fails the bound without a warning, and the SVD rule
        decides as it always has."""
        reg = random_regression(4, 80, n_p)
        if case == "nan":
            reg.m2[2, 5] = np.nan
        elif case == "overflow":
            reg.m2[4] *= 1e-200
        elif case == "singular_rw":
            reg.m2[4] = 0.0
        else:
            reg = replace(reg, freqs=np.zeros_like(reg.freqs), n_poly=n_p + 2)
        rows = 10 + reg.n_poly
        tri, rhs, poly = identify._factor(reg)
        assert not identify._certified_solve(tri, rhs, 10, poly)[1]
        if case == "singular_rp":  # cached as NaN: inverting Rp raised
            assert np.isnan(poly[2])
        if case == "nan":
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                solve_ls(reg)
            return
        rank, message = svd_rule(tri)
        assert rank < rows
        with pytest.raises(RankDeficiencyError) as raised:
            solve_ls(reg)
        assert str(raised.value) == message

    @pytest.mark.parametrize("f_s, sigma", [(80, 0.0), (80, 1e-2), (768, 0.0), (768, 1e-2)])
    def test_singular_values_computed_on_read(self, f_s, sigma, monkeypatch):
        """No SVD in the solve of the reference regressions of the four
        methods; the first read of m2_singular_values takes one, of the
        stacked M2, and the value is kept for later reads and m2_condition.
        It matches the SVD of the stacked M2 and that of the solve's small
        factor S, which the rank certificate bounds, to 1e-13 s_max."""
        x, u = reference_records_at(f_s, sigma)
        regs = [build_regression(x, u, bench.REF_STRUCTURE, window, n_p)
                for window in (None, WindowSpec("cinf", 4)) for n_p in (0, 50)]
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for reg in regs:
            report = solve_ls(reg)
            assert calls == []
            s = report.m2_singular_values
            assert calls == [(10 + reg.n_poly, reg.freqs.size)]
            assert report.m2_singular_values is s
            assert report.m2_condition == s[0] / s[-1]
            assert len(calls) == 1
            calls.clear()
            for oracle in (full_m2(reg), identify._factor(reg)[0]):
                want = svd(oracle, compute_uv=False)
                assert np.abs(s - want).max() <= 1e-13 * want[0]

    def test_polynomial_rows_count_towards_the_rank(self):
        """A band of 12 distinct bins, each repeated 3 times, holds the 10
        model rows but not 5 polynomial rows more: M2's rank stops at 12."""
        x, u = reference_records_at(80, 0.0)
        band = np.tile(np.arange(12), 3)
        solve_ls(build_regression(x, u, bench.REF_STRUCTURE, band=band))
        with pytest.raises(RankDeficiencyError, match=r"rank 12 below .* 15 "):
            solve_ls(build_regression(x, u, bench.REF_STRUCTURE, n_p=5, band=band))

    @pytest.mark.parametrize("window", [None, "cinf:4"])
    @pytest.mark.parametrize("n_p", [0, 10, 50])
    @pytest.mark.parametrize("f_s", [80, 768])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_reference_regressions_match_pseudo_inverse(self, sigma, f_s, n_p, window):
        """The projected solve on the benchmark's regressions.  Noise-free
        at 80 Hz with n_p = 50 is the hard case: the model rows lie close
        to the polynomial span, so -M1^T must be projected too."""
        x, u = reference_records_at(f_s, sigma)
        spec = bench.parse_window(window) if window else None
        reg = identify_from_signals(x, u, bench.REF_STRUCTURE, window_spec=spec,
                                    n_p=n_p).regression
        assert_matches_pseudo_inverse(reg)

    @pytest.mark.parametrize("window, n_p", [("cinf:4", 0), (None, 50), ("cinf:4", 10)])
    @pytest.mark.parametrize("f_s", [80, 768])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_solution_is_the_plain_solve_of_the_factor(self, sigma, f_s, window, n_p):
        """The one solve that also gives the certificate's columns of S^-1
        leaves theta2 == a solve of S against its right-hand side alone
        (reference experiment, seed 42)."""
        x, u = reference_dataset_42().decimated(float(f_s), sigma, 1)
        spec = bench.parse_window(window) if window else None
        reg = build_regression(x, u, bench.REF_STRUCTURE, spec, n_p)
        tri, rhs, _ = identify._factor(reg)
        np.testing.assert_array_equal(solve_ls(reg).solution, np.linalg.solve(tri, rhs).T)

    @pytest.mark.parametrize("window, n_p, sigma", [(None, 50, 1e-2), ("cinf:4", 0, 0.0)])
    def test_residual_matches_direct_evaluation(self, window, n_p, sigma, monkeypatch):
        """The report's solution is the solve's own complex theta2, and its
        residual is theta2 M2 + M1 over every row, polynomial rows
        included (768 Hz)."""
        solutions = capture_solutions(monkeypatch)
        x, u = reference_records_at(768, sigma)
        spec = bench.parse_window(window) if window else None
        report = identify_from_signals(x, u, bench.REF_STRUCTURE, window_spec=spec, n_p=n_p)
        reg = report.regression
        np.testing.assert_array_equal(report.solution, solutions[-1].T)
        direct = solutions[-1].T @ full_m2(reg) + reg.m1
        norms = np.sqrt((np.abs(direct) ** 2).sum(axis=0))
        tol = 1e-12 * np.linalg.norm(reg.m1)
        got = report.per_frequency_residual.coeffs
        assert np.abs(got - norms).max() <= tol
        assert abs(report.residual_l2 - np.sqrt((norms**2).sum() / reg.length)) <= tol

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_p=st.integers(0, 50))
    def test_random_regressions_match_pseudo_inverse(self, seed, n_p):
        """Random complex regressions: Gaussian model rows on a random band
        of a frequency grid, with the n_p Chebyshev rows of that band."""
        rng = np.random.default_rng(seed)

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        n_bins = int(rng.integers(2 * (10 + n_p), 6 * (10 + n_p)))
        band = np.sort(rng.choice(4 * n_bins, size=n_bins, replace=False))
        freqs = np.fft.fftfreq(4 * n_bins, d=1.0 / (4 * n_bins))[band]
        reg = RegressionSystem(m1=gauss(5, n_bins), m2=gauss(10, n_bins),
                               freqs=freqs, band=band, structure=REF,
                               length=T, n_poly=n_p)
        assert_matches_pseudo_inverse(reg)

    @pytest.mark.parametrize("window", [None, "cinf:4"])
    @pytest.mark.parametrize("n_p", [0, 10, 50])
    @pytest.mark.parametrize("f_s", [80, 768])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_residual_l2_is_the_explicit_residual(self, sigma, f_s, n_p, window):
        """residual_l2 against ||theta2 M2 + M1||_F / sqrt(T) at an lstsq
        theta2, on the reference regressions."""
        x, u = reference_records_at(f_s, sigma)
        spec = bench.parse_window(window) if window else None
        assert_residual_l2(solve_ls(build_regression(x, u, bench.REF_STRUCTURE, spec, n_p)))

    @pytest.mark.parametrize("cols, n_p", [(10, 0), (12, 0), (13, 3), (14, 3), (16, 3)])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_residual_l2_on_bands_shorter_than_the_factor(self, cols, n_p, sigma):
        """Bands of n_m = 10 to n_m + n_x + 1 = 16 bins (n_m model rows,
        n_x = 5), fewer than the n_m + n_x columns of [M2; M1]; at
        cols = n_m the fit is exact and residual_l2 is rounding."""
        x, u = reference_records_at(80, sigma)
        reg = build_regression(x, u, bench.REF_STRUCTURE, WindowSpec("cinf", 4), n_p,
                               band=np.arange(1, cols + 1))
        report = solve_ls(reg)
        if cols == 10:
            rounding = residual_rounding(report.solution, reg) / np.sqrt(reg.length)
            assert report.residual_l2 <= rounding
        assert_residual_l2(report)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_p=st.integers(0, 50))
    def test_residual_l2_on_random_regressions(self, seed, n_p):
        """Gaussian regressions of n_m + n_p to 3 (n_m + n_p + n_x) bins,
        exact fits included, on records of length 0.5-4."""
        rng = np.random.default_rng(seed)

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        cols = int(rng.integers(10 + n_p, 3 * (15 + n_p)))
        reg = RegressionSystem(m1=gauss(5, cols), m2=gauss(10, cols),
                               freqs=np.fft.fftfreq(cols, d=1.0 / cols),
                               band=np.arange(cols), structure=REF,
                               length=float(rng.uniform(0.5, 4.0)), n_poly=n_p)
        assert_residual_l2(solve_ls(reg))

    @pytest.mark.parametrize("window, n_p", [(None, 0), ("cinf:4", 0), (None, 50),
                                             ("cinf:4", 10)])
    @pytest.mark.parametrize("f_s, sigma", [(80, 0.0), (768, 1e-2)])
    def test_per_frequency_residual_computed_on_read(self, f_s, sigma, window, n_p,
                                                     monkeypatch):
        """Reading the diagnostics never runs the solve's factor or a QR,
        the per-bin residual is kept for later reads, and its norms are
        those of an lstsq theta2 on the stacked M2, within the rounding of
        either solve."""
        x, u = reference_records_at(f_s, sigma)
        spec = bench.parse_window(window) if window else None
        reg = build_regression(x, u, bench.REF_STRUCTURE, spec, n_p)
        report = solve_ls(reg)
        calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: calls.append("qr"))
        monkeypatch.setattr(identify, "_factor", lambda *args: calls.append("_factor"))
        res = report.per_frequency_residual
        diagnostics = (report.residual_l2, report.imag_norm, report.m2_condition)
        assert np.isfinite(diagnostics).all()
        assert report.per_frequency_residual is res
        assert calls == []
        oracle = lstsq_residual(reg)
        tol = residual_rounding(report.solution, reg)
        assert np.abs(res.coeffs[0] - np.linalg.norm(oracle, axis=0)).max() <= tol
        np.testing.assert_array_equal(res.freqs, reg.freqs)

    @pytest.mark.parametrize("case, n_p", [("inf", 0), ("inf", 10), ("nan", 0),
                                           ("nan", 10), ("overflow", 0)])
    def test_non_finite_solve_is_refused(self, case, n_p):
        """A finite M2 beside an inf, a NaN or an overflowing row (1e308,
        finite itself) in M1: S stays finite and certified, theta2 does not,
        and the solve refuses it with ModelParams' message.  The projection
        and the QR may warn first; only the refusal is under test."""
        reg = random_regression(6, 80, n_p)
        if case == "overflow":
            reg.m1[1] = 1e308
        else:
            reg.m1[1, 7] = np.inf if case == "inf" else np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="A and B must be finite matrices"):
                solve_ls(reg)


def capture_solutions(monkeypatch):
    """A list that collects every solve's theta2^T from here on, without
    the columns of S^-1 the same solve gives the rank certificate."""
    solutions = []
    solve = identify._certified_solve

    def keep(*args):
        theta2_t, certified = solve(*args)
        solutions.append(theta2_t)
        return theta2_t, certified

    monkeypatch.setattr(identify, "_certified_solve", keep)
    return solutions


def lstsq_residual(reg):
    """theta2 M2 + M1 at theta2 from np.linalg.lstsq on the stacked M2,
    polynomial rows included: an oracle that shares no code with the
    solve."""
    m2 = full_m2(reg)
    theta2 = np.linalg.lstsq(m2.T, -reg.m1.T, rcond=None)[0].T
    return theta2 @ m2 + reg.m1


def residual_rounding(theta2, reg):
    """1e-12 ||M1|| + 16 eps ||theta2|| ||M2||: how far two backward-stable
    solves' residuals may differ.  The second term is a solve's first-order
    effect on the residual at its computed theta2; it is the larger only
    where polynomial coefficients are large (80 Hz, noisy, n_p = 50:
    ||theta2|| ||M2|| is 2e6 ||M1||)."""
    return (1e-12 * np.linalg.norm(reg.m1) + 16 * np.finfo(float).eps
            * np.linalg.norm(theta2) * np.linalg.norm(full_m2(reg)))


def assert_residual_l2(report):
    """residual_l2 against ||theta2 M2 + M1||_F / sqrt(T) at an lstsq
    theta2, over every row, polynomial rows included, within
    ``residual_rounding`` / sqrt(T)."""
    reg = report.regression
    direct = np.linalg.norm(lstsq_residual(reg))
    tol = residual_rounding(report.solution, reg)
    assert abs(report.residual_l2 - direct / np.sqrt(reg.length)) <= tol / np.sqrt(reg.length)


@cache
def reference_records_at(f_s, sigma):
    """The reference experiment (seed 7) at f_s, with noise trial 1."""
    return bench.reference_dataset(seed=7).decimated(float(f_s), sigma, 1)


def assert_matches_pseudo_inverse(reg):
    """solve_ls on a reference-structure regression against the dense
    oracle -M1 pinv(M2), relative to the oracle's largest entry: model
    parameters to 1e-12; polynomial coefficients and M2's condition number
    to 1e-12 (1e-10) plus a few eps * cond(M2), which any backward-stable
    solve or SVD may be off by (at 80 Hz with n_p = 50, cond ~ 4e7-8e7,
    LAPACK's gelsd is 1.1e-8-2.0e-8 off pinv on the polynomial
    coefficients, and its condition number 2.0e-9 off a 40-digit SVD)."""
    report = solve_ls(reg)
    m2 = full_m2(reg)
    oracle = -reg.m1 @ np.linalg.pinv(m2)
    scale = np.abs(oracle).max()
    cond = np.linalg.cond(m2)
    slack = 16 * np.finfo(float).eps * cond
    got = np.hstack([report.theta_hat.A[0], report.theta_hat.B[0]])
    np.testing.assert_allclose(got, oracle[:, :10].real, rtol=0, atol=1e-12 * scale)
    if reg.n_poly:
        np.testing.assert_allclose(report.poly_coeffs, oracle[:, 10:], rtol=0,
                                   atol=(1e-12 + slack) * scale)
    assert report.m2_condition == pytest.approx(cond, rel=1e-10 + slack)


def exp_integral(g, f, length):
    d = g - f
    if abs(d) < 1e-15:
        return length + 0.0j
    return (np.exp(2j * np.pi * d * length) - 1.0) / (2j * np.pi * d)


def decay_integral(a, f, length):
    """int_0^T exp(-a t) exp(-2 pi i f t) dt."""
    z = a + 2j * np.pi * f
    return (1.0 - np.exp(-z * length)) / z


class TestPsBaseline:
    def test_scalar_closed_form_transient_absorbed(self):
        # first-order scalar system driven off-grid; records whose
        # rectangular-window spectra are the closed-form solution's exact
        # transforms on every bin, x(0) free; fitted on bins 0..32
        a, b, f0, x0 = 2.0, 1.3, 4.6, 0.7 + 0.2j
        gain = b / (a + 2j * np.pi * f0)
        c0 = x0 - gain
        n = 128
        freqs = np.fft.fftfreq(n, d=T / n)
        xw = np.array([gain * exp_integral(f0, f, T) + c0 * decay_integral(a, f, T)
                       for f in freqs])
        uw = np.array([exp_integral(f0, f, T) for f in freqs])
        x, u = (Signal(length=T, values=np.fft.ifft(w) * (n / T)) for w in (xw, uw))
        structure = ModelStructure(n_x=1, n_u=1, n_a=1, n_b=0)
        band = np.arange(33)
        report = solve_ls(build_regression(x, u, structure, n_p=1, band=band))
        assert abs(report.theta_hat.A[0][0, 0] - a) < 1e-6
        assert abs(report.theta_hat.B[0][0, 0] - b) < 1e-6
        # without the transient term the estimate is far off
        naive = solve_ls(build_regression(x, u, structure, band=band))
        assert abs(naive.theta_hat.A[0][0, 0] - a) > 1e-2

    def test_polynomial_row_count(self):
        x, u, theta = exact_dataset()
        report = identify_from_signals(x, u, theta.structure, n_p=10)
        assert report.method == "ps"
        assert report.poly_coeffs.shape == (theta.structure.n_x, 10)


class TestRouteSelection:
    """The window and n_p are the only route inputs; the method name is
    read off the regression that ran."""

    @pytest.mark.parametrize("window, n_p, method", [
        (None, 0, "naive"), ("rect", 0, "naive"), ("cinf:4", 0, "corrected"),
        (None, 3, "ps"), ("rect", 3, "ps"), ("cinf:4", 3, "mixed")])
    def test_method_named_by_window_and_np(self, window, n_p, method):
        x, u, theta = exact_dataset()
        spec = bench.parse_window(window) if window else None
        report = identify_from_signals(x, u, theta.structure, window_spec=spec,
                                       n_p=n_p)
        assert report.method == method
        assert report.regression.n_poly == n_p

    @pytest.mark.parametrize("n_p", [0, 3])
    def test_none_and_rect_select_one_route(self, n_p):
        x, u, theta = exact_dataset()
        r1 = identify_from_signals(x, u, theta.structure, n_p=n_p)
        r2 = identify_from_signals(x, u, theta.structure,
                                   window_spec=WindowSpec("rectangular"), n_p=n_p)
        for m1, m2 in zip(r1.theta_hat.A + r1.theta_hat.B,
                          r2.theta_hat.A + r2.theta_hat.B):
            np.testing.assert_array_equal(m1, m2)
        assert r1.residual_l2 == r2.residual_l2


    @pytest.mark.parametrize("n_p", [0, 3])
    def test_no_window_is_the_rect_table(self, n_p, monkeypatch):
        """No window is the rectangular window: both records go through
        one apply_window call with its K = 0 table, and every report field
        but the wall time is equal."""
        calls = []

        def counted(sig, table, k_max=0):
            calls.append((table.spec.label, table.max_deriv, k_max))
            return apply_window(sig, table, k_max)

        monkeypatch.setattr("freqwin.identify.apply_window", counted)
        x, u = reference_records()
        r1, r2 = (identify_from_signals(x, u, bench.REF_STRUCTURE, window_spec=w, n_p=n_p)
                  for w in (None, WindowSpec("rectangular")))
        assert calls == [("rect", 0, (0, 0))] * 2
        assert_same_report(r1, r2)


@cache
def reference_dataset_42():
    return bench.reference_dataset(seed=bench.REF_SEED)


class TestOneTransformPerEstimate:
    """build_regression windows both records into one buffer and transforms
    it once.  Its regression is the one built record by record, bit for
    bit, and its solve without polynomial rows (nothing projected, S = Rw)
    matches dense oracles that share no code with it."""

    RECORDS = [(f_s, sigma) for f_s in (80.0, 768.0) for sigma in (0.0, 1e-2)]

    @staticmethod
    def records(f_s, sigma):
        ds = reference_dataset_42()
        return (*ds.decimated(f_s, sigma, 1), ds.theta_true.structure)

    @pytest.mark.parametrize("f_s, sigma", RECORDS)
    @pytest.mark.parametrize("window, n_p", [("cinf:4", 0), ("cinf:4", 10),
                                             (None, 0), (None, 50)])
    def test_regression_is_the_per_record_one(self, window, n_p, f_s, sigma):
        x, u, structure = self.records(f_s, sigma)
        spec = bench.parse_window(window) if window else WindowSpec("rectangular")
        k = max(structure.n_a, structure.n_b) if window else 0
        table = window_table(spec, x.num_samples, k)

        def stack(sig, order):
            """X_0..X_K of one record, K = min(order, k), by its own transform."""
            coeffs = fft_spectrum(apply_window(sig, table, min(order, k))).coeffs
            return coeffs.reshape(-1, sig.num_channels, sig.num_samples)

        D = 2j * np.pi * np.fft.fftfreq(x.num_samples, d=x.length / x.num_samples)
        xs, us = stack(x, structure.n_a), stack(u, structure.n_b)
        per_record = np.vstack(
            [modulated_row(xs, D, i) for i in range(structure.n_a, -1, -1)]
            + [-modulated_row(us, D, i) for i in range(structure.n_b, -1, -1)])
        reg = identify_from_signals(x, u, structure, window_spec=spec,
                                    n_p=n_p).regression
        np.testing.assert_array_equal(reg.model_rows, per_record)

    @pytest.mark.parametrize("f_s, sigma", RECORDS)
    @pytest.mark.parametrize("window", ["cinf:4", None])
    def test_unprojected_solve_matches_dense_oracles(self, window, f_s, sigma):
        x, u, structure = self.records(f_s, sigma)
        spec = bench.parse_window(window) if window else None
        report = identify_from_signals(x, u, structure, window_spec=spec)
        m1, m2 = report.regression.m1, report.regression.m2
        theta2 = np.linalg.lstsq(m2.T, -m1.T, rcond=None)[0].T
        got = np.hstack(report.theta_hat.A[:1] + report.theta_hat.B)
        np.testing.assert_allclose(got, theta2.real, rtol=0,
                                   atol=1e-12 * np.abs(theta2).max())
        np.testing.assert_allclose(report.m2_singular_values,
                                   np.linalg.svd(m2, compute_uv=False), rtol=1e-13)
        # the residual cancels the terms theta2 M2 and M1 bin by bin
        fit = theta2 @ m2
        norms = np.sqrt((np.abs(fit + m1) ** 2).sum(axis=0))
        terms = np.linalg.norm(fit, axis=0) + np.linalg.norm(m1, axis=0)
        got = report.per_frequency_residual.coeffs
        assert not got.imag.any()
        assert (np.abs(got.real - norms) <= 1e-12 * terms).all()


class TestDesignCaches:
    """Window tables and polynomial factors depend on the design, never on
    the data: each is built once and shared read-only."""

    def test_window_table_built_once(self, monkeypatch):
        calls = []

        def counted(spec, num_samples, max_deriv):
            calls.append((spec, num_samples, max_deriv))
            return window_table(spec, num_samples, max_deriv)

        monkeypatch.setattr("freqwin.identify.window_table", counted)
        x, u, theta = exact_dataset()
        spec = WindowSpec("cinf", 2.125)  # an order no other test builds
        r1, r2 = (identify_from_signals(x, u, theta.structure, window_spec=spec)
                  for _ in range(2))
        assert calls == [(spec, x.num_samples, 1)]
        assert_same_report(r1, r2)

    def test_polynomial_basis_built_once(self, monkeypatch):
        calls = []
        chebvander = np.polynomial.chebyshev.chebvander

        def counted(x, deg):
            calls.append(deg)
            return chebvander(x, deg)

        monkeypatch.setattr(np.polynomial.chebyshev, "chebvander", counted)
        x, u, theta = exact_dataset()
        band = np.arange(1, 40)  # a band no other test fits polynomials on
        r1, r2 = (identify_from_signals(x, u, theta.structure, n_p=6, band=band)
                  for _ in range(2))
        assert calls == [5]
        assert_same_report(r1, r2)

    def test_cached_arrays_refuse_writes(self):
        x, u, theta = exact_dataset()
        reg = identify_from_signals(x, u, theta.structure, n_p=4).regression
        qp, rp, _ = identify._poly_block(reg.freqs.tobytes(), 4)
        table = identify._window_table(WindowSpec("sin", 2), x.num_samples, 1)
        for array in (qp, rp, table.samples, identify._strict_lower((10, 15))):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


class TestReportReads:
    """Every array read off a report is read-only: the model blocks and the
    polynomial coefficients are views of the stored solve, and a write into
    one used to rewrite it, and every diagnostic read after."""

    @staticmethod
    def mixed_report():
        x, u = reference_dataset_7680().decimated(80.0)
        return identify_from_signals(x, u, bench.REF_STRUCTURE,
                                     window_spec=WindowSpec("cinf", 4), n_p=4)

    def test_every_read_refuses_writes(self):
        report = self.mixed_report()
        assert report.method == "mixed"
        reads = [report.solution, *report.theta_hat.A, *report.theta_hat.B,
                 report.poly_coeffs, report._m2, report.per_frequency_residual.coeffs,
                 report.m2_singular_values]
        for array in reads:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_subtracting_the_truth_leaves_the_residual(self):
        # the write read residual_l2 4.82 where 9.96e-06 was due (corrected,
        # cinf:4, 80 Hz)
        report, fresh = self.mixed_report(), self.mixed_report()
        with pytest.raises(ValueError, match="read-only"):
            report.theta_hat.A[0] -= reference_dataset_7680().theta_true.A[0]
        assert report.residual_l2 == fresh.residual_l2


@cache
def reference_dataset_7680():
    return bench.reference_dataset(seed=bench.REF_SEED, fine_rate=7680)


def assert_same_report(r1, r2):
    """Every report field but the wall time is equal."""
    def fields(r):
        return (r.method, r.solution, r.residual_l2, r.imag_norm, *r.theta_hat.A,
                *r.theta_hat.B, r.per_frequency_residual.coeffs,
                r.m2_singular_values, r.poly_coeffs, r.regression.m1,
                r.regression.m2)

    for f1, f2 in zip(fields(r1), fields(r2), strict=True):
        np.testing.assert_array_equal(f1, f2)


class TestMixed:
    def test_order_zero_identical_to_corrected(self):
        x, u, theta = exact_dataset()
        w = WindowSpec("sin", 2)
        r1 = identify_from_signals(x, u, theta.structure, window_spec=w)
        r2 = identify_from_signals(x, u, theta.structure, window_spec=w, n_p=0)
        for m1, m2 in zip(r1.theta_hat.A + r1.theta_hat.B,
                          r2.theta_hat.A + r2.theta_hat.B):
            np.testing.assert_array_equal(m1, m2)
        assert r2.method == "corrected"


class TestResidualSpectrum:
    def test_true_parameters_give_small_residual_on_exact_data(self):
        x, u, theta = exact_dataset()
        reg = build_regression(x, u, theta.structure)
        resid = residual_spectrum(theta, reg)
        assert np.abs(resid.coeffs).max() < 1e-10
        # polynomial rows are nuisance terms, not part of the model residual
        with_poly = build_regression(x, u, theta.structure, n_p=3)
        np.testing.assert_array_equal(with_poly.m2, reg.m2)
        np.testing.assert_array_equal(
            residual_spectrum(theta, with_poly).coeffs, resid.coeffs)

    def test_wrong_parameters_give_large_residual(self):
        x, u, theta = exact_dataset()
        reg = build_regression(x, u, theta.structure)
        wrong = ModelParams(theta.structure,
                            A=(theta.A[0] + 0.5, theta.A[1]), B=theta.B)
        resid = residual_spectrum(wrong, reg)
        assert np.abs(resid.coeffs).max() > 1e-2


@cache
def reference_records():
    """The reference experiment (seed 7) sampled at 160 Hz."""
    return bench.reference_dataset(seed=7).decimated(160.0)


@cache
def reference_estimate(method, window):
    x, u = reference_records()
    return estimate_ab0(x, u, method, bench.parse_window(window))


def estimate_ab0(x, u, method, window, band=None):
    """(A_0, B_0) of the reference structure by ``method``: corrected and
    mixed apply the window, mixed and ps fit 3 polynomial rows."""
    n_p = 3 if method in ("mixed", "ps") else 0
    window = window if method in ("corrected", "mixed") else None
    report = identify_from_signals(x, u, bench.REF_STRUCTURE, window_spec=window,
                                   n_p=n_p, band=band)
    assert report.method == method
    return report.theta_hat.A[0], report.theta_hat.B[0]


def assert_relative(got, want, rtol=1e-9):
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())


invariance_case = dict(method=st.sampled_from(["corrected", "mixed", "ps", "naive"]),
                       window=st.sampled_from(["cinf:4", "sin:3"]))
# the windowed methods with each window, ps and naive once (they take none)
INVARIANCE_CASES = [(m, w) for m in ("corrected", "mixed") for w in ("cinf:4", "sin:3")] + [
    ("ps", "rect"), ("naive", "rect")]


def assert_conjugation_invariant(f_s, method, window, drop_nyquist):
    """conj x and conj u satisfy the same real ODE, and their spectra are
    the conjugates of the originals at -f: on a band closed under f -> -f
    the estimate is the same, within 1e-12 relative."""
    x, u = reference_dataset_42().decimated(f_s)
    n = x.num_samples
    band = np.delete(np.arange(n), n // 2) if drop_nyquist else None
    conj = [replace(s, values=s.values.conj(), terminal=s.terminal.conj()) for s in (x, u)]
    spec = bench.parse_window(window)
    for got, want in zip(estimate_ab0(*conj, method, spec, band),
                         estimate_ab0(x, u, method, spec, band)):
        assert_relative(got, want, rtol=1e-12)


class TestInvariances:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(perm=st.permutations(range(5)), **invariance_case)
    def test_channel_permutation(self, perm, method, window):
        """Relabelling the state and input channels by P permutes the
        estimate: A_0 -> A_0[P][:, P], B_0 -> B_0[P][:, P]."""
        p = np.array(perm)
        x, u = reference_records()
        a0, b0 = estimate_ab0(replace(x, values=x.values[p], terminal=x.terminal[p]),
                              replace(u, values=u.values[p], terminal=u.terminal[p]),
                              method, bench.parse_window(window))
        want_a0, want_b0 = reference_estimate(method, window)
        assert_relative(a0, want_a0[p][:, p])
        assert_relative(b0, want_b0[p][:, p])

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), **invariance_case)
    def test_input_mixing(self, seed, method, window):
        """Driving the system with the mixed input Q u, for a random real
        Q, is x' + A_0 x = (B_0 Q^-1)(Q u): A_0 stays, B_0 -> B_0 Q^-1.
        The estimates' relative change grows as about 3e-14 cond(Q) (worst
        3.0e-13 over 37 draws with cond(Q) <= 20), so Q is drawn that well
        conditioned."""
        q = np.random.default_rng(seed).standard_normal((5, 5))
        assume(np.linalg.cond(q) <= 20)
        x, u = reference_records()
        a0, b0 = estimate_ab0(x, replace(u, values=q @ u.values, terminal=q @ u.terminal),
                              method, bench.parse_window(window))
        want_a0, want_b0 = reference_estimate(method, window)
        assert_relative(a0, want_a0, rtol=1e-12)
        assert_relative(b0, want_b0 @ np.linalg.inv(q), rtol=1e-12)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(c=st.floats(0.1, 10.0), **invariance_case)
    def test_record_length_rescaling(self, c, method, window):
        """The same samples over length cT, windowed on [0, cT], are the
        system x' + A_0 x / c = B_0 u / c: A_0 and B_0 scale by 1/c."""
        x, u = reference_records()
        a0, b0 = estimate_ab0(replace(x, length=c * x.length),
                              replace(u, length=c * u.length), method,
                              bench.parse_window(window))
        want_a0, want_b0 = reference_estimate(method, window)
        assert_relative(a0, want_a0 / c)
        assert_relative(b0, want_b0 / c)

    @pytest.mark.parametrize("method, window", INVARIANCE_CASES)
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_record_length_rescaling_by_powers_of_two(self, c, method, window):
        """With c a power of two, apply_window's T^-k and D scale exactly,
        so A_0 and B_0 scale by 1/c bit for bit."""
        x, u = reference_records()
        a0, b0 = estimate_ab0(replace(x, length=c * x.length),
                              replace(u, length=c * u.length), method,
                              bench.parse_window(window))
        want_a0, want_b0 = reference_estimate(method, window)
        np.testing.assert_array_equal(a0, want_a0 / c)
        np.testing.assert_array_equal(b0, want_b0 / c)

    @pytest.mark.parametrize("method, window", [
        ("corrected", "cinf:4"), ("corrected", "sin:1"), ("corrected", "sin:2"),
        ("mixed", "cinf:4"), ("ps", "rect"), ("naive", "rect")])
    @pytest.mark.parametrize("f_s", [80.0, 160.0, 768.0])
    def test_conjugation(self, f_s, method, window):
        """Every bin but N/2: the band's frequencies are closed under
        f -> -f (observed at most 1.3e-13 relative)."""
        assert_conjugation_invariant(f_s, method, window, drop_nyquist=True)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 17: the default band keeps bin N/2, "
                       "labelled -f_s/2, whose conjugate is not in the band")
    @pytest.mark.parametrize("f_s, window", [(80.0, "cinf:4"), (80.0, "sin:1"),
                                             (160.0, "sin:1"), (768.0, "sin:1")])
    def test_conjugation_on_the_default_band(self, f_s, window):
        """The default band holds bin N/2; conjugation moves the estimate by
        1.0e-10 relative (80 Hz, cinf:4) and 2.7e-3 to 2.3e-6 (sin:1, 80 to
        768 Hz).  160 Hz cinf:4 passes (4.8e-14) and is left out."""
        assert_conjugation_invariant(f_s, "corrected", window, drop_nyquist=False)


class TestTerminalSample:
    @pytest.mark.parametrize("windowed, poly", list(METHODS),
                             ids=list(METHODS.values()))
    def test_terminal_sample_never_reaches_an_estimate(self, windowed, poly):
        # s(T) is record data (checks against x(T), the CSV's T); the
        # estimate of every method is the same without it
        x, u = bench.reference_dataset(seed=bench.REF_SEED).decimated(80.0)
        assert x.terminal is not None and u.terminal is not None
        window = WindowSpec("cinf", 4) if windowed else None
        with_term, without = (
            identify_from_signals(xs, us, bench.REF_STRUCTURE, window_spec=window,
                                  n_p=3 if poly else 0)
            for xs, us in ((x, u), (replace(x, terminal=None),
                                    replace(u, terminal=None))))
        assert_same_report(with_term, without)


class TestSecondOrderSystem:
    def test_full_pipeline_with_input_derivatives(self):
        # n_a = 2, n_b = 1: companion integration, corrections of both the
        # state (orders 1..2) and the input (order 1)
        from freqwin import (SimConfig, integrate_rk4, multisine,
                             random_system, resample, sample_forcing)

        structure = ModelStructure(n_x=2, n_u=2, n_a=2, n_b=1)
        theta = random_system(structure, seed=5)
        forcing = multisine(6, 1.0, 10.0, seed=5, n_channels=2)
        n_fine = 16384
        cfg = SimConfig(structure=structure, dt=T / n_fine, length=T, seed=5)
        x = integrate_rk4(theta, forcing, cfg)
        u = sample_forcing(forcing, T, n_fine)
        xd, ud = resample(x, 256), resample(u, 256)
        errs = {}
        for label, spec in (("cinf_3", WindowSpec("cinf", 3)),
                            ("sin_3", WindowSpec("sin", 3)),
                            ("sin_4", WindowSpec("sin", 4))):
            rep = identify_from_signals(xd, ud, structure, window_spec=spec)
            errs[label] = param_error(theta, rep.theta_hat)
        assert errs["cinf_3"] < 1e-6
        assert errs["sin_4"] < 1e-5
        # a window of order n_a + 1 leaves visible boundary-jump aliasing;
        # one more smoothness order buys several decades
        assert errs["sin_4"] < 1e-2 * errs["sin_3"]


class TestErrorPaths:
    def test_rank_deficiency_reported(self):
        n = 64
        x = Signal(length=T, values=np.zeros((2, n)))
        u = Signal(length=T, values=np.zeros((2, n)))
        structure = ModelStructure(n_x=2, n_u=2, n_a=1, n_b=0)
        with pytest.raises(RankDeficiencyError, match="rank"):
            identify_from_signals(x, u, structure)

    def test_underdetermined_rejected(self):
        x, u, theta = exact_dataset(n=128)
        band = np.arange(3)  # fewer columns than parameter rows
        with pytest.raises(ValueError, match="underdetermined"):
            solve_ls(build_regression(x, u, theta.structure, band=band))

    @pytest.mark.parametrize("n_x, n_u", [(4, 2), (2, 1), (1, 1)])
    def test_channel_counts_must_match_the_model(self, n_x, n_u):
        # a 4-channel state record used to read as a 2-channel stack of depth 1
        x, u, _ = exact_dataset(n_x=2, n_u=2)
        structure = ModelStructure(n_x=n_x, n_u=n_u, n_a=1, n_b=0)
        with pytest.raises(ValueError, match=f"n_x = {n_x}, n_u = {n_u}"):
            build_regression(x, u, structure, WindowSpec("cinf", 2))

    @pytest.mark.parametrize("windowed, poly", list(METHODS),
                             ids=list(METHODS.values()))
    def test_records_of_different_length_rejected(self, windowed, poly):
        # ps and naive used to fit such a pair without complaint
        x, u, theta = exact_dataset()
        window = WindowSpec("cinf", 2) if windowed else None
        with pytest.raises(ValueError, match=r"input record \(T = 2,"):
            identify_from_signals(x, replace(u, length=2 * T), theta.structure,
                                  window_spec=window, n_p=2 if poly else 0)
        # a different sample count is named as such, not as a window table's
        with pytest.raises(ValueError, match=r"input record \(T = 1, N = 64\)"):
            identify_from_signals(x, Signal(length=T, values=u.values[:, ::2]),
                                  theta.structure, window_spec=window,
                                  n_p=2 if poly else 0)

    def test_window_too_rough_for_the_order_rejected(self):
        # the modulating-function integral needs w^(k) = 0 at both edges for
        # every k < max(n_a, n_b); sin:n meets that for n >= max(n_a, n_b)
        x, u = reference_records()

        def order(n_a, n_b):
            return ModelStructure(n_x=x.num_channels, n_u=u.num_channels, n_a=n_a, n_b=n_b)

        for structure, window, k in ((order(2, 0), WindowSpec("sin", 1), 2),
                                     (order(1, 2), WindowSpec("sin", 1), 2),
                                     (order(1, 0), WindowSpec("poly_ref", 6), 1)):
            with pytest.raises(ValueError,
                               match=f"{window.label} is too rough for model order {k}"):
                identify_from_signals(x, u, structure, window_spec=window)
        for structure, window in ((order(2, 0), WindowSpec("sin", 2)),
                                  (order(1, 0), WindowSpec("sin", 1))):
            report = identify_from_signals(x, u, structure, window_spec=window)
            assert report.method == "corrected"

    def test_negative_polynomial_order_rejected(self):
        x, u, theta = exact_dataset()
        with pytest.raises(ValueError, match="polynomial order"):
            build_regression(x, u, theta.structure, n_p=-1)

    @pytest.mark.parametrize("band", [[1.5, 2.7], np.arange(4.0),
                                      np.arange(64) < 30])
    def test_non_integer_band_rejected(self, band):
        # a float band used to be truncated to bins, a boolean mask to bins 0/1
        x, u, theta = exact_dataset()
        with pytest.raises(ValueError, match=r"np\.flatnonzero"):
            identify_from_signals(x, u, theta.structure, band=band)

    def test_empty_band(self):
        x, u, theta = exact_dataset()
        with pytest.raises(ValueError, match="empty"):
            build_regression(x, u, theta.structure, band=np.array([], dtype=int))
