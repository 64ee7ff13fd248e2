import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freqwin
from freqwin import (ModelParams, ModelStructure, Spectrum, ensemble_stats,
                     error_norms, param_error)


def make_params(a_entries, structure=None):
    s = structure or ModelStructure(n_x=2, n_u=1, n_a=1, n_b=0)
    return ModelParams(s, A=(np.asarray(a_entries, dtype=float), np.eye(s.n_x)),
                       B=(np.zeros((s.n_x, s.n_u)),))


class TestErrorNorms:
    def test_zero_residual(self):
        spec = Spectrum(length=2.0, coeffs=np.zeros((3, 8)), freqs=np.arange(8) / 2.0)
        norms, l2 = error_norms(spec)
        assert norms.tolist() == [0.0] * 8
        assert l2 == 0.0

    def test_single_unit_bin(self):
        length = 2.0
        coeffs = np.zeros((1, 8), dtype=complex)
        coeffs[0, 3] = 1.0
        _, l2 = error_norms(Spectrum(length=length, coeffs=coeffs,
                                     freqs=np.arange(coeffs.shape[1]) / length))
        assert l2 == pytest.approx(np.sqrt(1.0 / length))

    def test_matches_direct_quadrature(self):
        rng = np.random.default_rng(4)
        length = 1.5
        coeffs = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        norms, l2 = error_norms(Spectrum(length=length, coeffs=coeffs,
                                     freqs=np.arange(coeffs.shape[1]) / length))
        direct = np.sqrt((np.abs(coeffs) ** 2).sum(axis=0))
        np.testing.assert_allclose(norms, direct, rtol=1e-13)
        assert l2 == pytest.approx(np.sqrt((direct**2).sum() / length))


class TestParamError:
    def test_identical_is_zero(self):
        theta = make_params([[1.0, 2.0], [3.0, 4.0]])
        assert param_error(theta, theta) == 0.0

    def test_single_entry_offset(self):
        a = make_params([[1.0, 2.0], [3.0, 4.0]])
        b = make_params([[1.0, 2.0], [3.0, 4.0 + 0.25]])
        assert param_error(a, b) == pytest.approx(0.25)

    def test_fixed_block_excluded(self):
        # A_{n_a} never enters the free-parameter distance
        s = ModelStructure(n_x=2, n_u=1, n_a=1, n_b=0)
        a = ModelParams(s, A=(np.zeros((2, 2)), np.eye(2)), B=(np.zeros((2, 1)),))
        b = ModelParams(s, A=(np.zeros((2, 2)), 5 * np.eye(2)), B=(np.zeros((2, 1)),))
        assert param_error(a, b) == 0.0

    def test_random_pair_matches_elementwise(self):
        rng = np.random.default_rng(9)
        s = ModelStructure(n_x=3, n_u=2, n_a=1, n_b=1)
        def draw():
            return ModelParams(
                s, A=(rng.standard_normal((3, 3)), np.eye(3)),
                B=(rng.standard_normal((3, 2)), rng.standard_normal((3, 2))))
        a, b = draw(), draw()
        direct = np.sqrt(
            ((a.A[0] - b.A[0]) ** 2).sum()
            + ((a.B[0] - b.B[0]) ** 2).sum()
            + ((a.B[1] - b.B[1]) ** 2).sum())
        assert param_error(a, b) == pytest.approx(direct, rel=1e-13)

    def test_structure_mismatch(self):
        a = make_params(np.zeros((2, 2)))
        b = ModelParams(ModelStructure(1, 1, 1, 0), A=(np.zeros((1, 1)), np.eye(1)),
                        B=(np.zeros((1, 1)),))
        with pytest.raises(ValueError):
            param_error(a, b)


def test_no_scipy_stats_at_runtime():
    # numpy is the one runtime dependency (the CLI subcommands are run with
    # scipy blocked in test_cli), so importing the package loads no scipy
    # module at all
    code = ("import sys, freqwin, freqwin.bench, freqwin.cli\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
            "assert not loaded, f'scipy modules imported: {loaded}'\n")
    src = str(Path(freqwin.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src,
                   env={**os.environ, "PYTHONPATH": src})


class _FakeReport:
    def __init__(self, theta):
        self.theta_hat = theta


class TestEnsembleStats:
    def test_identical_reports_zero_std(self):
        theta = make_params([[1.0, 0.0], [0.0, 1.0]])
        reports = [_FakeReport(theta)] * 5
        err, std = ensemble_stats(reports, theta)
        np.testing.assert_allclose(err, 0.0, atol=1e-15)
        np.testing.assert_allclose(std, 0.0, atol=1e-15)

    def test_first_entry_is_single_estimate(self):
        truth = make_params(np.zeros((2, 2)))
        est = make_params([[0.5, 0.0], [0.0, 0.0]])
        err, _ = ensemble_stats([_FakeReport(est)], truth)
        assert err[0] == pytest.approx(0.5)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(6)
        truth = make_params(np.zeros((2, 2)))
        reports = [_FakeReport(make_params(rng.standard_normal((2, 2))))
                   for _ in range(10)]
        err, std = ensemble_stats(reports, truth)
        stacks = np.array([r.theta_hat.free_stack() for r in reports])
        for k in (0, 4, 9):
            mean_k = stacks[: k + 1].mean(axis=0)
            assert err[k] == pytest.approx(
                np.linalg.norm(mean_k - truth.free_stack()), rel=1e-12)
            assert std[k] == pytest.approx(
                np.linalg.norm(stacks[: k + 1].std(axis=0)), rel=1e-12)

    def test_mean_error_trends_down_in_expectation(self):
        rng = np.random.default_rng(8)
        truth = make_params(np.zeros((2, 2)))
        reports = [_FakeReport(make_params(0.3 * rng.standard_normal((2, 2))))
                   for _ in range(200)]
        err, _ = ensemble_stats(reports, truth)
        assert err[-1] < err[0]
        # monotone trend over blocks, not per-run
        blocks = err.reshape(8, 25).mean(axis=1)
        assert blocks[-1] < blocks[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_stats([], make_params(np.zeros((2, 2))))
