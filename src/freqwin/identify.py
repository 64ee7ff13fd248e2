"""Frequency-domain least-squares identification of the ODE coefficients.

Every estimator runs one pipeline: records -> stacked modulated spectra ->
regression -> solve; ``build_regression`` alone forms and reads the stack.
It multiplies both records by the window-derivative rows w^(k), k = 0..K,
into one buffer (``spectral.apply_window``), which one transform turns into
X_k = F(w^(k) x) and U_k = F(w^(k) u).  Per frequency bin f the regression
stacks

    L_i(f) = sum_{k=0..min(i,K)} (-1)^k C(i,k) D(f)^(i-k) X_k(f)   (state rows)
    R_i(f) = sum_{k=0..min(i,K)} (-1)^k C(i,k) D(f)^(i-k) U_k(f)   (input rows, negated)

With K equal to the model order, L_i = F(w d^i x/dt^i) exactly: the
modulating-function integral, i.e. D^i X_0 minus the windowing correction
x^{i} (see ``corrections``).  The rectangular window is the table of ones
with K = 0, so L_i = D^i X_0 with nothing subtracted.  The rows form a
matrix M whose top n_x rows belong to the fixed A_{n_a} = I block; the
remaining model rows m_2 and the n_p polynomial rows P, M_2 = [m_2; P],
solve theta_2 M_2 = -M_1 in the least-squares sense.  P depends only on
the band, so a regression stores m_2 alone and ``solve_ls`` takes P's QR
factor from a cache keyed by (band, n_p).  A report keeps the solve's
theta_2 and computes each diagnostic from its definition on read.
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

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .corrections import modulated_row
from .spectral import Signal, Spectrum, apply_window, fft_spectrum
from .windows import WindowSpec, WindowTable, window_table

# singular values of M2 at or below RANK_RTOL * s_max count as zero (the
# rcond of the least-squares solve); a rank below M2's row count is an error
RANK_RTOL = 1e-12
# ||S||_F ||S^-1||_F at or below this bounds cond(M2) by 1e10, a hundredth of
# 1 / RANK_RTOL, so the SVD rule would count full rank too (``solve_ls``)
CERTIFIED_COND = 1e-2 / RANK_RTOL

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
        if not np.isfinite(np.concatenate([m.ravel() for m in A + B])).all():
            raise ValueError("A and B must be finite matrices")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def free_stack(self) -> np.ndarray:
        """Free parameters (A_{n_a} excluded) as one flat vector."""
        return np.concatenate([m.ravel() for m in self.A[: self.structure.n_a] + self.B])


@dataclass(frozen=True)
class RegressionSystem:
    """Stacked per-frequency regression blocks.

    ``m1`` holds the fixed A_{n_a} block (n_x rows), ``m2`` the other model
    rows; one column per frequency bin in ``band``.  ``freqs`` are the
    band's frequency values; ``windowed`` says the state rows came from a
    window-derivative stack (K > 0).  The n_poly polynomial nuisance rows P
    are implied by ``freqs`` and ``n_poly`` and never stored: the matrix
    ``solve_ls`` solves is M2 = [m2; P].
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
        return np.concatenate((self.m1, self.m2))


@dataclass(frozen=True)
class EstimateReport:
    """One least-squares estimate: the solve's complex theta2 (``solution``,
    n_x x (n_m + n_p), model columns first) and its real model part.  With
    M2 = [m2; P], each diagnostic is its definition, computed on read:
    ``imag_norm`` = ||Im theta2[:, :n_m]||, ``poly_coeffs`` = theta2[:, n_m:]
    (None with n_p = 0), ``per_frequency_residual`` (cached) the norm per
    bin of theta2 M2 + M1, ``residual_l2`` = ||theta2 M2 + M1||_F / sqrt(T),
    and ``m2_singular_values`` (cached, descending) the SVD of M2.
    """

    theta_hat: ModelParams
    wall_time: float
    regression: RegressionSystem
    solution: np.ndarray

    @property
    def imag_norm(self) -> float:
        return float(np.linalg.norm(self.solution[:, :self.regression.m2.shape[0]].imag))

    @property
    def poly_coeffs(self) -> np.ndarray | None:
        n_p = self.regression.n_poly
        return self.solution[:, -n_p:] if n_p else None

    @functools.cached_property
    def _m2(self) -> np.ndarray:
        reg = self.regression
        return np.vstack((reg.m2, _poly_rows(reg.freqs, reg.n_poly)))

    @functools.cached_property
    def per_frequency_residual(self) -> Spectrum:
        reg = self.regression
        fit_resid = self.solution @ self._m2 + reg.m1
        return Spectrum(reg.length, np.sqrt((np.abs(fit_resid) ** 2).sum(axis=0)), reg.freqs)

    @property
    def residual_l2(self) -> float:
        res = self.per_frequency_residual
        return float(np.linalg.norm(res.coeffs) / np.sqrt(res.length))

    @functools.cached_property
    def m2_singular_values(self) -> np.ndarray:
        return np.linalg.svd(self._m2, compute_uv=False)

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
    scaled monomials fall below the rank tolerance.  The rows are real.
    """
    scale = np.abs(freqs).max()
    xi = freqs / scale if scale > 0 else freqs
    return -np.polynomial.chebyshev.chebvander(xi, max(n_p - 1, 0))[:, :n_p].T


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _poly_block(freq_bytes: bytes, n_p: int):
    """The thin QR factor P^T = Qp Rp of the polynomial rows P of a band
    (frequencies as float64 bytes), with Rp^-1 and ||Rp^-1||_F for the
    rank certificate (NaN where Rp is exactly singular), read-only: it
    depends on the band only, never on the data."""
    qp, rp = np.linalg.qr(_poly_rows(np.frombuffer(freq_bytes), n_p).T)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rp_inv = np.linalg.inv(rp)
        except np.linalg.LinAlgError:
            rp_inv = np.full_like(rp, np.nan)
        rp_inv_norm = float(np.linalg.norm(rp_inv))
    _read_only(qp, rp, rp_inv)
    return qp, rp, rp_inv, rp_inv_norm


# 7 rates x 6 windows of a benchmark sweep fit with room to spare
@functools.lru_cache(maxsize=64)
def _window_table(spec: WindowSpec, num_samples: int, max_deriv: int) -> WindowTable:
    """``window_table``, built once per (spec, N, K) and kept read-only."""
    table = window_table(spec, num_samples, max_deriv)
    _read_only(table.samples)
    return table


def _check_band(band, n_bins: int) -> np.ndarray:
    if band is None:
        return np.arange(n_bins)
    band = np.asarray(band)
    if band.size == 0:
        raise ValueError("empty frequency band")
    if band.dtype.kind not in "iu":
        raise ValueError(f"band must hold integer bin indices, not {band.dtype} "
                         "values; pass a boolean mask as np.flatnonzero(mask)")
    if band.min() < 0 or band.max() >= n_bins:
        raise ValueError("band indices outside the spectrum")
    return band


def build_regression(x_sig: Signal, u_sig: Signal, structure: ModelStructure,
                     window_spec: WindowSpec | None = None, n_p: int = 0,
                     band=None) -> RegressionSystem:
    """Stack rows [L_{n_a}; ..; L_0; -R_{n_b}; ..; -R_0] over the band; M1
    is the fixed highest-order block, and n_p polynomial rows are implied.

    Both records are multiplied by the window's derivative rows up to their
    model order, K = max(n_a, n_b) for a smooth window; no window is the
    rectangular one, whose table holds only the row of ones, K = 0.  The
    modulating-function integral needs rows 0..K-1 to vanish at both edges;
    a window too rough for that raises ValueError (every window is
    symmetric about s = 1/2, so the s = 0 sample decides); the table is
    cached per (window, N, K).  Each output gets its own coefficient per
    polynomial row, so n_p rows add n_p * n_x estimated nuisance parameters
    (order 50 on the benchmark adds 250).
    """
    if n_p < 0:
        raise ValueError("polynomial order must be >= 0")
    n, length = x_sig.num_samples, x_sig.length
    if u_sig.num_samples != n or abs(u_sig.length - length) > 1e-12 * length:
        raise ValueError(f"state record (T = {length:.17g}, N = {n}) and input record "
                         f"(T = {u_sig.length:.17g}, N = {u_sig.num_samples}) differ")
    n_x, n_u = structure.n_x, structure.n_u
    if (x_sig.num_channels, u_sig.num_channels) != (n_x, n_u):
        raise ValueError(f"records of {x_sig.num_channels} state and {u_sig.num_channels} "
                         f"input channels for a model with n_x = {n_x}, n_u = {n_u}")
    index = _check_band(band, n)
    band = slice(None) if band is None else index  # all bins: views, not copies
    spec = window_spec or WindowSpec("rectangular")
    k = 0 if spec.family == "rectangular" else max(structure.n_a, structure.n_b)
    table = _window_table(spec, n, k)
    if table.samples[:k, 0].any():
        raise ValueError(f"window {spec.label} is too rough for model order {k}: "
                         f"its derivatives below order {k} do not vanish at the edges")
    k_x, k_u = min(structure.n_a, k), min(structure.n_b, k)
    spectra = fft_spectrum(apply_window((x_sig, u_sig), table, (k_x, k_u)))
    freqs = spectra.freqs[band]
    D = 2j * np.pi * freqs
    coeffs = spectra.coeffs[:, band]
    xs = coeffs[:(k_x + 1) * n_x].reshape(k_x + 1, n_x, -1)  # X_0..X_{k_x}
    us = coeffs[(k_x + 1) * n_x:].reshape(k_u + 1, n_u, -1)  # U_0..U_{k_u}
    blocks = ([modulated_row(xs, D, i) for i in range(structure.n_a, -1, -1)]
              + [-modulated_row(us, D, i) for i in range(structure.n_b, -1, -1)])
    M = np.vstack(blocks)
    return RegressionSystem(m1=M[:n_x], m2=M[n_x:], freqs=freqs, band=index,
                            structure=structure, length=length, n_poly=n_p,
                            windowed=k > 0)


def residual_spectrum(theta: ModelParams, reg: RegressionSystem) -> Spectrum:
    """Equation residual e(f) = sum_j A_j L_j(f) - sum_k B_k R_k(f)."""
    s = theta.structure
    wide = np.hstack(
        [theta.A[i] for i in range(s.n_a, -1, -1)]
        + [theta.B[k] for k in range(s.n_b, -1, -1)]
    )
    resid = wide @ reg.model_rows
    return Spectrum(length=reg.length, coeffs=resid, freqs=reg.freqs)


def _split_theta(theta2: np.ndarray, structure: ModelStructure) -> ModelParams:
    """The solver's real theta2 as ModelParams, whose blocks have the right
    shapes by construction: of its checks only finiteness is kept."""
    if not np.isfinite(theta2).all():
        raise ValueError("A and B must be finite matrices")
    s = structure
    a = s.n_x * s.n_a  # column blocks A_{n_a-1} .. A_0, then B_{n_b} .. B_0
    A = [theta2[:, j:j + s.n_x] for j in range(0, a, s.n_x)][::-1] + [np.eye(s.n_x)]
    B = [theta2[:, j:j + s.n_u] for j in range(a, theta2.shape[1], s.n_u)][::-1]
    params = object.__new__(ModelParams)
    params.__dict__.update(structure=s, A=tuple(A), B=tuple(B))
    return params


def _times(q: np.ndarray, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """q @ a, or q^T @ a, for a real q and a C-contiguous complex a: one
    real product on a's real view, no complex copy of q."""
    return ((q.T if adjoint else q) @ a.view(float)).view(complex)


def _factor(reg: RegressionSystem):
    """The small factor S of ``solve_ls``, its right-hand side and the
    band's ``_poly_block`` (None with n_p = 0)."""
    n_m, rows = reg.m2.shape[0], reg.m2.shape[0] + reg.n_poly
    poly = None
    # [Mm^T | -M1^T] in the (Fortran) order the QR takes, projected off Qp
    aug = np.concatenate((reg.m2, -reg.m1)).T
    if reg.n_poly:
        poly = _poly_block(np.asarray(reg.freqs, dtype=float).tobytes(), reg.n_poly)
        qp, rp = poly[:2]
        aug = np.ascontiguousarray(aug)  # _times multiplies its real view
        proj = _times(qp, aug, adjoint=True)  # [Z | Qp^T (-M1^T)]
        aug -= _times(qp, proj)
    r_aug = np.linalg.qr(aug, mode="r")[:n_m]  # [Rw | Qw^H (-M1^T)]
    if reg.n_poly:  # [S | its right-hand side], S = [[Rw, 0], [Z, Rp]]
        r_aug = np.block([[r_aug[:, :n_m], np.zeros((n_m, reg.n_poly)), r_aug[:, n_m:]],
                          [proj[:, :n_m], rp, proj[:, n_m:]]])
    return r_aug[:, :rows], r_aug[:, rows:], poly


def _full_rank_certified(tri: np.ndarray, n_m: int, poly) -> bool:
    """Whether ||S||_F ||S^-1||_F <= CERTIFIED_COND, which bounds S's 2-norm
    condition number, so s_min / s_max >= 1e-10.  S^-1 is
    [[Rw^-1, 0], [-Rp^-1 Z Rw^-1, Rp^-1]]: only the n_m x n_m Rw is
    inverted, Rp^-1 and its norm come with the band's cached block.  A
    singular Rw or Rp, or a NaN anywhere, fails the bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rw_inv = np.linalg.inv(tri[:n_m, :n_m])
        except np.linalg.LinAlgError:
            return False
        inv_norm = np.linalg.norm(rw_inv)
        if poly is not None:
            rp_inv, rp_inv_norm = poly[2:]
            corner = _times(rp_inv, tri[n_m:, :n_m] @ rw_inv)  # Rp^-1 Z Rw^-1
            inv_norm = np.hypot(np.hypot(inv_norm, rp_inv_norm), np.linalg.norm(corner))
        return bool(np.linalg.norm(tri) * inv_norm <= CERTIFIED_COND)


def solve_ls(reg: RegressionSystem) -> EstimateReport:
    """Least-squares estimate theta_2 = -M1 M2^+, with a rank check.

    M2^T = [Mm^T | P^T] holds the model rows Mm (``reg.m2``) and the n_p
    polynomial rows P of the band (``_poly_rows``).  P^T = Qp Rp is
    factored once per band and n_p and cached; Qp is real.  The model rows
    are projected off it, Z = Qp^T Mm^T and W = Mm^T - Qp Z = Qw Rw, so
    M2^T = [Qw Qp] S with the small block-triangular S = [[Rw, 0], [Z, Rp]],
    which has M2's singular values (``_factor``).  Full rank is certified
    by the bound ||S||_F ||S^-1||_F <= CERTIFIED_COND; only when it fails
    does the SVD of S decide, and a numerical rank below M2's row count
    (see RANK_RTOL) raises RankDeficiencyError.  Solving S against
    [Qw^H; Qp^T] (-M1^T) gives theta_2, which the report keeps.  With
    n_p = 0 nothing is projected: S is Rw, read with its right-hand side
    off the QR factor of [Mm^T | -M1^T].
    """
    n_m, cols = reg.m2.shape
    rows = n_m + reg.n_poly
    if cols < rows:
        raise ValueError(f"M2 has {cols} frequency columns for {rows} parameter rows; "
                         "the regression is underdetermined")
    t0 = time.perf_counter()
    tri, rhs, poly = _factor(reg)
    if not _full_rank_certified(tri, n_m, poly):
        s = np.linalg.svd(tri, compute_uv=False)
        rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
        if rank < rows:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0
            raise RankDeficiencyError(f"numerical rank {rank} below parameter row count "
                                      f"{rows} (smallest singular value ratio {ratio:.2e})")
    theta2 = np.linalg.solve(tri, rhs).T
    wall = time.perf_counter() - t0
    return EstimateReport(theta_hat=_split_theta(theta2[:, :n_m].real, reg.structure),
                          wall_time=wall, regression=reg, solution=theta2)


def identify_from_signals(x_sig: Signal, u_sig: Signal, structure: ModelStructure,
                          window_spec: WindowSpec | None = None,
                          n_p: int = 0, band=None) -> EstimateReport:
    """One-shot estimation from sampled records: ``solve_ls`` of
    ``build_regression`` on the same arguments.  A smooth window is the
    corrected method, or mixed with ``n_p`` > 0; no window is naive, or ps
    with ``n_p`` > 0.  Times the whole per-dataset pipeline (table lookup,
    windowing, transform, assembly, solve), so the first estimate for a new
    (window, N, K) includes the cold build of the window table.
    """
    t0 = time.perf_counter()
    report = solve_ls(build_regression(x_sig, u_sig, structure, window_spec, n_p, band))
    return replace(report, wall_time=time.perf_counter() - t0)
