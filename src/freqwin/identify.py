"""Frequency-domain least-squares identification of the ODE coefficients.

Every estimator runs one pipeline: records -> stacked modulated spectra ->
regression -> solve.  The records are multiplied by the window-derivative
rows w^(k), k = 0..K (``spectral.apply_window``), and transformed
together, giving X_k = F(w^(k) x) and U_k = F(w^(k) u).  Per frequency
bin f the regression stacks

    L_i(f) = sum_{k=0..min(i,K)} (-1)^k C(i,k) D(f)^(i-k) X_k(f)   (state rows)
    R_i(f) = sum_{k=0..min(i,K)} (-1)^k C(i,k) D(f)^(i-k) U_k(f)   (input rows, negated)

With K equal to the model order, L_i = F(w d^i x/dt^i) exactly: the
modulating-function integral, i.e. D^i X_0 minus the windowing correction
x^{i} (see ``corrections``).  The rectangular window is the table of ones
with K = 0, so L_i = D^i X_0 with nothing subtracted.  The rows form a
matrix M whose top n_x rows belong to the fixed A_{n_a} = I block; the
remaining parameters solve theta_2 M_2 = -M_1 in the least-squares sense,
by one LAPACK minimum-norm solve that also returns M_2's singular values.
The window and n_p are the only settings; the method name is read off the
regression that was solved:

    window                     stack depth K    n_p = 0      n_p > 0
    smooth (sin, cinf, ..)     K = n_a (n_b)    corrected    mixed
    none or rectangular        K = 0            naive        ps

The n_p polynomial rows are per-output transient terms in f, estimated as
nuisance parameters alongside the model.

Parameters are real; the regression is complex.  The solve stays complex
and the real part is taken at the end, with the imaginary norm reported as
an inconsistency diagnostic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .corrections import modulated_row
from .spectral import Signal, Spectrum, apply_window, fft_spectrum
from .windows import WindowSpec, window_table

# singular values of M2 at or below RANK_RTOL * s_max count as zero (the
# rcond of the least-squares solve); a rank below M2's row count is an error
RANK_RTOL = 1e-12

# method name by (windowed stack K > 0, polynomial rows n_p > 0)
METHODS = {(True, False): "corrected", (True, True): "mixed",
           (False, False): "naive", (False, True): "ps"}


class RankDeficiencyError(RuntimeError):
    """Regression matrix rank fell below the parameter count."""


@dataclass(frozen=True)
class ModelStructure:
    n_x: int
    n_u: int
    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_u < 1:
            raise ValueError("state and input dimensions must be >= 1")
        if self.n_u > self.n_x:
            raise ValueError("n_u must not exceed n_x")
        if self.n_a < 1:
            raise ValueError("n_a must be >= 1")
        if self.n_b < 0:
            raise ValueError("n_b must be >= 0")

    @property
    def free_parameter_count(self) -> int:
        return self.n_x * (self.n_x * self.n_a + self.n_u * (self.n_b + 1))


@dataclass(frozen=True)
class ModelParams:
    """Coefficient matrices A_0..A_{n_a} (n_x x n_x) and B_0..B_{n_b} (n_x x n_u)."""

    structure: ModelStructure
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]

    def __post_init__(self):
        s = self.structure
        if any(np.iscomplexobj(m) for m in (*self.A, *self.B)):
            raise ValueError("A and B must be real matrices")
        A = tuple(np.asarray(m, dtype=float) for m in self.A)
        B = tuple(np.asarray(m, dtype=float) for m in self.B)
        if len(A) != s.n_a + 1 or any(m.shape != (s.n_x, s.n_x) for m in A):
            raise ValueError("A must hold n_a + 1 matrices of shape (n_x, n_x)")
        if len(B) != s.n_b + 1 or any(m.shape != (s.n_x, s.n_u) for m in B):
            raise ValueError("B must hold n_b + 1 matrices of shape (n_x, n_u)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def free_stack(self) -> np.ndarray:
        """Free parameters (A_{n_a} excluded) as one flat vector."""
        return np.concatenate(
            [m.ravel() for m in self.A[: self.structure.n_a]]
            + [m.ravel() for m in self.B]
        )


@dataclass(frozen=True)
class RegressionSystem:
    """Stacked per-frequency regression blocks.

    ``m1`` holds the fixed A_{n_a} block (n_x rows), ``m2`` everything else
    with any polynomial nuisance rows last; one column per frequency bin in
    ``band``.  ``freqs`` are the band's frequency values; ``windowed`` says
    the state rows came from a window-derivative stack (K > 0).
    """

    m1: np.ndarray
    m2: np.ndarray
    freqs: np.ndarray
    band: np.ndarray
    structure: ModelStructure
    length: float
    n_poly: int = 0
    windowed: bool = False

    @property
    def method(self) -> str:
        return METHODS[self.windowed, self.n_poly > 0]

    @property
    def model_rows(self) -> np.ndarray:
        rows = self.m2.shape[0] - self.n_poly
        return np.vstack([self.m1, self.m2[:rows]])


@dataclass(frozen=True)
class EstimateReport:
    theta_hat: ModelParams
    residual_l2: float
    per_frequency_residual: Spectrum
    wall_time: float
    regression: RegressionSystem
    imag_norm: float
    poly_coeffs: np.ndarray | None
    m2_singular_values: np.ndarray  # descending

    @property
    def method(self) -> str:
        return self.regression.method

    @property
    def m2_condition(self) -> float:
        return float(self.m2_singular_values[0] / self.m2_singular_values[-1])


def _poly_rows(freqs: np.ndarray, n_p: int) -> np.ndarray:
    """Chebyshev rows spanning polynomials of degree < n_p over the band.

    Same span as monomials in D(f) with complex coefficients, but the
    Chebyshev parametrization stays numerically full-rank at n_p = 50 where
    scaled monomials fall below the rank tolerance.
    """
    scale = np.abs(freqs).max()
    xi = freqs / scale if scale > 0 else freqs
    rows = np.polynomial.chebyshev.chebvander(xi, n_p - 1).T
    return -rows.astype(complex)


def _check_band(band, n_bins: int) -> np.ndarray:
    if band is None:
        return np.arange(n_bins)
    band = np.asarray(band, dtype=int)
    if band.size == 0:
        raise ValueError("empty frequency band")
    if band.min() < 0 or band.max() >= n_bins:
        raise ValueError("band indices outside the spectrum")
    return band


def _check_records(x_len: float, x_n: int, u_len: float, u_n: int) -> None:
    if u_n != x_n or abs(u_len - x_len) > 1e-12 * x_len:
        raise ValueError(f"state record (T = {x_len:.17g}, N = {x_n}) and "
                         f"input record (T = {u_len:.17g}, N = {u_n}) differ")


def build_regression(xs: Spectrum, us: Spectrum, structure: ModelStructure,
                     n_p: int = 0, band=None) -> RegressionSystem:
    """Stack rows [L_{n_a}; ..; L_0; -R_{n_b}; ..; -R_0] over the band, then
    n_p polynomial rows; M1 is the fixed highest-order block.

    ``xs`` holds the stack X_0..X_K of ``apply_window``ed state spectra as
    channel blocks of n_x channels each (``us`` likewise with n_u channels).
    K = 0 is the rectangular route; otherwise the stack must reach the model
    order.  Each output gets its own coefficient per polynomial row, so n_p
    rows add n_p * n_x estimated nuisance parameters (order 50 on the
    benchmark adds 250).
    """
    if n_p < 0:
        raise ValueError("polynomial order must be >= 0")
    band = _check_band(band, xs.num_bins)
    _check_records(xs.length, xs.num_bins, us.length, us.num_bins)
    freqs = xs.freqs[band]
    D = 2j * np.pi * freqs

    def rows(spec: Spectrum, n_ch: int, order: int, source: str) -> list[np.ndarray]:
        """L_i (or R_i) for i = order..0 from the stack X_0..X_K."""
        if spec.num_channels % n_ch:
            raise ValueError(f"{source} spectra hold {spec.num_channels} channels, "
                             f"not a stack of {n_ch}-channel blocks")
        stack = spec.coeffs[:, band].reshape(-1, n_ch, band.size)
        k_max = len(stack) - 1
        if 0 < k_max < order:
            raise ValueError(f"missing {source} correction of order {k_max + 1}")
        return [modulated_row(stack, D, i) for i in range(order, -1, -1)]

    blocks = (rows(xs, structure.n_x, structure.n_a, "state")
              + [-r for r in rows(us, structure.n_u, structure.n_b, "input")])
    if n_p > 0:
        blocks.append(_poly_rows(freqs, n_p))
    M = np.vstack(blocks)
    n_x = structure.n_x
    return RegressionSystem(m1=M[:n_x], m2=M[n_x:], freqs=freqs, band=band,
                            structure=structure, length=xs.length,
                            n_poly=n_p, windowed=xs.num_channels > n_x)


def residual_spectrum(theta: ModelParams, reg: RegressionSystem) -> Spectrum:
    """Equation residual e(f) = sum_j A_j L_j(f) - sum_k B_k R_k(f)."""
    s = theta.structure
    wide = np.hstack(
        [theta.A[i] for i in range(s.n_a, -1, -1)]
        + [theta.B[k] for k in range(s.n_b, -1, -1)]
    )
    resid = wide @ reg.model_rows
    return Spectrum(length=reg.length, coeffs=resid, freqs=reg.freqs)


def _split_theta(theta2: np.ndarray, structure: ModelStructure):
    s = structure
    # column blocks A_{n_a-1} .. A_0, then B_{n_b} .. B_0
    blocks = np.split(theta2, np.cumsum([s.n_x] * s.n_a + [s.n_u] * s.n_b), axis=1)
    A = tuple(reversed(blocks[: s.n_a])) + (np.eye(s.n_x),)
    return ModelParams(structure, A=A, B=tuple(reversed(blocks[s.n_a:])))


def solve_ls(reg: RegressionSystem) -> EstimateReport:
    """Least-squares estimate theta_2 = -M1 M2^+ with rank diagnostics.

    One LAPACK solve of M2^T theta_2^T = -M1^T returns the minimum-norm
    solution and M2's singular values; a numerical rank below M2's row
    count (see RANK_RTOL) raises RankDeficiencyError.
    """
    rows, cols = reg.m2.shape
    if cols < rows:
        raise ValueError(
            f"M2 has {cols} frequency columns for {rows} parameter rows; "
            "the regression is underdetermined"
        )
    t0 = time.perf_counter()
    sol, _, rank, s = np.linalg.lstsq(reg.m2.T, -reg.m1.T, rcond=RANK_RTOL)
    if rank < rows:
        ratio = s[-1] / s[0] if s[0] > 0 else 0.0
        raise RankDeficiencyError(
            f"numerical rank {rank} below parameter row count {rows} "
            f"(smallest singular value ratio {ratio:.2e})"
        )
    theta2 = sol.T
    wall = time.perf_counter() - t0
    model = theta2[:, : rows - reg.n_poly]
    fit_resid = theta2 @ reg.m2 + reg.m1
    norms = np.sqrt((np.abs(fit_resid) ** 2).sum(axis=0))
    resid_l2 = float(np.sqrt((norms**2).sum() / reg.length))
    per_freq = Spectrum(length=reg.length, coeffs=norms.astype(complex),
                        freqs=reg.freqs)
    return EstimateReport(
        theta_hat=_split_theta(model.real, reg.structure), residual_l2=resid_l2,
        per_frequency_residual=per_freq, wall_time=wall, regression=reg,
        imag_norm=float(np.linalg.norm(model.imag)),
        poly_coeffs=theta2[:, rows - reg.n_poly:] if reg.n_poly else None,
        m2_singular_values=s,
    )


def identify_from_signals(x_sig: Signal, u_sig: Signal, structure: ModelStructure,
                          window_spec: WindowSpec | None = None,
                          n_p: int = 0, band=None,
                          endpoint_average: bool = False) -> EstimateReport:
    """One-shot estimation from sampled records.

    Both records are multiplied by the window's derivative rows up to their
    model order, K = max(n_a, n_b) for a smooth window (corrected, or mixed
    with ``n_p`` > 0); no window is the rectangular one, whose table holds
    only the row of ones, K = 0 (naive, or ps with ``n_p`` > 0).  Times the
    whole per-dataset pipeline (windowing, transforms, assembly, solve);
    the window-derivative table is a design artifact built before the clock
    starts.
    """
    _check_records(x_sig.length, x_sig.num_samples, u_sig.length, u_sig.num_samples)
    spec = window_spec or WindowSpec("rectangular")
    k = 0 if spec.family == "rectangular" else max(structure.n_a, structure.n_b)
    table = window_table(spec, x_sig.num_samples, k)
    t0 = time.perf_counter()
    xs = fft_spectrum(apply_window(x_sig, table, min(structure.n_a, k)),
                      endpoint_average=endpoint_average)
    us = fft_spectrum(apply_window(u_sig, table, min(structure.n_b, k)),
                      endpoint_average=endpoint_average)
    report = solve_ls(build_regression(xs, us, structure, n_p, band))
    return replace(report, wall_time=time.perf_counter() - t0)
