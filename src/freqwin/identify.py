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
factor from a cache keyed by (band, n_p).  One solve of the small factor
gives theta_2 and the columns of its inverse that certify M_2's rank.  A
report keeps theta_2 and computes each diagnostic from its definition on read.
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
from .spectral import Signal, Spectrum, _grid, _read_only, apply_window, fft_spectrum
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
    """Coefficient matrices A_0..A_{n_a} (n_x x n_x) and B_0..B_{n_b} (n_x x n_u),
    stored as read-only views: the caller's arrays keep their flag."""

    structure: ModelStructure
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]

    def __post_init__(self):
        s = self.structure
        if any(np.iscomplexobj(m) for m in (*self.A, *self.B)):
            raise ValueError("A and B must be real matrices")
        A = _read_only(tuple(np.asarray(m, dtype=float).view() for m in self.A))
        B = _read_only(tuple(np.asarray(m, dtype=float).view() for m in self.B))
        if len(A) != s.n_a + 1 or any(m.shape != (s.n_x, s.n_x) for m in A):
            raise ValueError("A must hold n_a + 1 matrices of shape (n_x, n_x)")
        if len(B) != s.n_b + 1 or any(m.shape != (s.n_x, s.n_u) for m in B):
            raise ValueError("B must hold n_b + 1 matrices of shape (n_x, n_u)")
        if not np.isfinite(np.concatenate(A + B, axis=None)).all():
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
    n_x x (n_m + n_p), model columns first).  With M2 = [m2; P], each
    diagnostic is its definition, computed on read: ``theta_hat`` (cached)
    = Re theta2[:, :n_m], the column blocks A_{n_a-1}..A_0, B_{n_b}..B_0,
    beside A_{n_a} = I, ``imag_norm`` = ||Im theta2[:, :n_m]||,
    ``poly_coeffs`` = theta2[:, n_m:] (None with n_p = 0),
    ``per_frequency_residual`` (cached) the norm per bin of theta2 M2 + M1,
    ``residual_l2`` = ||theta2 M2 + M1||_F / sqrt(T), and
    ``m2_singular_values`` (cached, descending) the SVD of M2.  Every array
    read off a report is read-only, so a read cannot rewrite the solve.
    """

    wall_time: float
    regression: RegressionSystem
    solution: np.ndarray

    @functools.cached_property
    def theta_hat(self) -> ModelParams:
        s = self.regression.structure
        theta = self.solution[:, :self.regression.m2.shape[0]].real
        a = s.n_x * s.n_a
        A = [theta[:, j:j + s.n_x] for j in range(0, a, s.n_x)][::-1] + [np.eye(s.n_x)]
        B = [theta[:, j:j + s.n_u] for j in range(a, theta.shape[1], s.n_u)][::-1]
        return ModelParams(s, tuple(A), tuple(B))

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
        return _read_only(np.vstack((reg.m2, _poly_rows(reg.freqs, reg.n_poly))))

    @functools.cached_property
    def per_frequency_residual(self) -> Spectrum:
        reg = self.regression
        fit_resid = self.solution @ self._m2 + reg.m1
        res = Spectrum(reg.length, np.sqrt((np.abs(fit_resid) ** 2).sum(axis=0)), reg.freqs)
        _read_only(res.coeffs)
        return res

    @property
    def residual_l2(self) -> float:
        res = self.per_frequency_residual
        return float(np.linalg.norm(res.coeffs) / np.sqrt(res.length))

    @functools.cached_property
    def m2_singular_values(self) -> np.ndarray:
        return _read_only(np.linalg.svd(self._m2, compute_uv=False))

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


@functools.lru_cache(maxsize=16)
def _poly_block(freq_bytes: bytes, n_p: int):
    """The thin QR factor P^T = Qp Rp of the polynomial rows P of a band
    (frequencies as float64 bytes), read-only, and ||Rp^-1||_F, the part of
    ||S^-1||_F the rank certificate takes from here (NaN where Rp is
    exactly singular): it depends on the band only, never on the data."""
    qp, rp = np.linalg.qr(_poly_rows(np.frombuffer(freq_bytes), n_p).T)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rp_inv_norm = float(np.linalg.norm(np.linalg.inv(rp)))
        except np.linalg.LinAlgError:
            rp_inv_norm = np.nan
    return _read_only((qp, rp, rp_inv_norm))


# 7 rates x 6 windows of a benchmark sweep fit with room to spare
@functools.lru_cache(maxsize=64)
def _window_table(spec: WindowSpec, num_samples: int, max_deriv: int) -> WindowTable:
    """``window_table``, built once per (spec, N, K) and kept read-only."""
    table = window_table(spec, num_samples, max_deriv)
    _read_only(table.samples)
    return table


@functools.lru_cache(maxsize=16)
def _strict_lower(shape: tuple[int, int]) -> np.ndarray:
    """Read-only mask of the entries below the diagonal of a matrix."""
    return _read_only(np.tri(*shape, -1, dtype=bool))


def _check_band(band, n_bins: int) -> np.ndarray:
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
                     band=None, names=("state record", "input record")) -> RegressionSystem:
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
    (order 50 on the benchmark adds 250).  The error for records of another
    N or T calls them ``names``.
    """
    if n_p < 0:
        raise ValueError("polynomial order must be >= 0")
    n, length = x_sig.num_samples, x_sig.length
    if u_sig.num_samples != n or abs(u_sig.length - length) > 1e-12 * length:
        raise ValueError(f"{names[0]} (T = {length:.17g}, N = {n}) and {names[1]} "
                         f"(T = {u_sig.length:.17g}, N = {u_sig.num_samples}) differ")
    n_x, n_u = structure.n_x, structure.n_u
    if (x_sig.num_channels, u_sig.num_channels) != (n_x, n_u):
        raise ValueError(f"records of {x_sig.num_channels} state and {u_sig.num_channels} "
                         f"input channels for a model with n_x = {n_x}, n_u = {n_u}")
    freqs, D, every_bin = _grid(n, length)
    index = every_bin if band is None else _check_band(band, n)
    band = slice(None) if band is None else index  # all bins: views, not copies
    spec = window_spec or WindowSpec("rectangular")
    k = 0 if spec.family == "rectangular" else max(structure.n_a, structure.n_b)
    table = _window_table(spec, n, k)
    if table.samples[:k, 0].any():
        raise ValueError(f"window {spec.label} is too rough for model order {k}: "
                         f"its derivatives below order {k} do not vanish at the edges")
    k_x, k_u = min(structure.n_a, k), min(structure.n_b, k)
    spectra = fft_spectrum(apply_window((x_sig, u_sig), table, (k_x, k_u)))
    freqs, D, coeffs = freqs[band], D[band], spectra.coeffs[:, band]
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
    resid = np.hstack(theta.A[::-1] + theta.B[::-1]) @ reg.model_rows
    return Spectrum(length=reg.length, coeffs=resid, freqs=reg.freqs)


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
    # [Rw | Qw^H (-M1^T)] on and above the diagonal, reflectors below it
    r_aug = np.linalg.qr(aug, mode="raw")[0].T[:n_m]
    np.putmask(r_aug, _strict_lower(r_aug.shape), 0.0)
    if reg.n_poly:  # [S | its right-hand side], S = [[Rw, 0], [Z, Rp]]
        r_aug = np.block([[r_aug[:, :n_m], np.zeros((n_m, reg.n_poly)), r_aug[:, n_m:]],
                          [proj[:, :n_m], rp, proj[:, n_m:]]])
    return r_aug[:, :rows], r_aug[:, rows:], poly


def _certified_solve(tri: np.ndarray, rhs: np.ndarray, n_m: int, poly):
    """One solve of S against [rhs | E], E the identity's first n_m
    columns: theta_2^T = S^-1 rhs (None where S is exactly singular), and
    whether ||S||_F ||S^-1||_F <= CERTIFIED_COND, which bounds S's 2-norm
    condition number, so s_min / s_max >= 1e-10.  S^-1 is
    [[Rw^-1, 0], [-Rp^-1 Z Rw^-1, Rp^-1]]: the solve gives its first block
    column S^-1 E, ||Rp^-1||_F comes with the band's cached block.  A
    singular S, or a NaN or overflow anywhere, fails the bound."""
    k = rhs.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sol = np.linalg.solve(tri, np.hstack((rhs, np.eye(len(tri), n_m))))
        except np.linalg.LinAlgError:
            return None, False
        inv_norm = np.linalg.norm(sol[:, k:])
        if poly is not None:
            inv_norm = np.hypot(inv_norm, poly[2])
        return sol[:, :k], bool(np.linalg.norm(tri) * inv_norm <= CERTIFIED_COND)


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
    (see RANK_RTOL) raises RankDeficiencyError.  One solve of S against
    [Qw^H; Qp^T] (-M1^T) and the identity's first n_m columns gives
    theta_2, which the report keeps, and S^-1's first block column, the
    certificate's part of ||S^-1||_F (``_certified_solve``).  With n_p = 0
    nothing is projected: S is Rw, read with its right-hand side off the
    QR factor of [Mm^T | -M1^T].
    """
    n_m, cols = reg.m2.shape
    rows = n_m + reg.n_poly
    if cols < rows:
        raise ValueError(f"M2 has {cols} frequency columns for {rows} parameter rows; "
                         "the regression is underdetermined")
    t0 = time.perf_counter()
    tri, rhs, poly = _factor(reg)
    theta2, certified = _certified_solve(tri, rhs, n_m, poly)
    if not certified:
        s = np.linalg.svd(tri, compute_uv=False)
        rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
        if rank < rows:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0
            raise RankDeficiencyError(f"numerical rank {rank} below parameter row count "
                                      f"{rows} (smallest singular value ratio {ratio:.2e})")
        if theta2 is None:
            raise np.linalg.LinAlgError("Singular matrix")
    theta2 = theta2.T
    if not np.isfinite(theta2[:, :n_m].real).all():
        raise ValueError("A and B must be finite matrices")
    return EstimateReport(wall_time=time.perf_counter() - t0, regression=reg,
                          solution=_read_only(theta2))


def identify_from_signals(x_sig: Signal, u_sig: Signal, structure: ModelStructure,
                          window_spec: WindowSpec | None = None,
                          n_p: int = 0, band=None,
                          names=("state record", "input record")) -> EstimateReport:
    """One-shot estimation from sampled records: ``solve_ls`` of
    ``build_regression`` on the same arguments.  A smooth window is the
    corrected method, or mixed with ``n_p`` > 0; no window is naive, or ps
    with ``n_p`` > 0.  Times the whole per-dataset pipeline (table lookup,
    windowing, transform, assembly, solve), so the first estimate for a new
    (window, N, K) includes the cold build of the window table.
    """
    t0 = time.perf_counter()
    report = solve_ls(build_regression(x_sig, u_sig, structure, window_spec, n_p, band,
                                       names))
    return replace(report, wall_time=time.perf_counter() - t0)
