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
remaining parameters solve theta_2 M_2 = -M_1 in the least-squares sense.
The solve projects the model rows off the QR factor of the polynomial
rows, which depend only on the band and are factored once per (band, n_p),
and reads M_2's singular values off a small block-triangular factor (see
``solve_ls``); with n_p = 0 nothing is projected and the factor is the R
of the model rows' QR.  The window and n_p are the only settings; the
method name is read off the regression that was solved:

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
from dataclasses import dataclass, field, replace

import numpy as np

from .corrections import modulated_row
from .spectral import Signal, Spectrum, apply_window, fft_spectrum
from .windows import WindowSpec, WindowTable, window_table

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
        return np.concatenate([m.ravel() for m in self.A[: self.structure.n_a] + self.B])


@dataclass(frozen=True)
class RegressionSystem:
    """Stacked per-frequency regression blocks.

    ``m1`` holds the fixed A_{n_a} block (n_x rows), ``m2`` everything else
    with any polynomial nuisance rows last; one column per frequency bin in
    ``band``.  ``freqs`` are the band's frequency values; ``windowed`` says
    the state rows came from a window-derivative stack (K > 0).
    ``poly_factor`` is the thin QR factor (Qp, Rp) of the polynomial rows'
    transpose, shared read-only by every regression on the same band and
    n_p; ``solve_ls`` factors the rows itself when it is None (set it to
    None when replacing ``m2``'s polynomial rows).
    """

    m1: np.ndarray
    m2: np.ndarray
    freqs: np.ndarray
    band: np.ndarray
    structure: ModelStructure
    length: float
    n_poly: int = 0
    windowed: bool = False
    poly_factor: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def method(self) -> str:
        return METHODS[self.windowed, self.n_poly > 0]

    @property
    def model_rows(self) -> np.ndarray:
        rows = self.m2.shape[0] - self.n_poly
        return np.concatenate((self.m1, self.m2[:rows]))


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
    scaled monomials fall below the rank tolerance.  The rows are real.
    """
    scale = np.abs(freqs).max()
    xi = freqs / scale if scale > 0 else freqs
    return -np.polynomial.chebyshev.chebvander(xi, max(n_p - 1, 0))[:, :n_p].T


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _poly_block(freq_bytes: bytes, n_p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The polynomial rows P of a band (frequencies as float64 bytes) and
    the thin QR factor P^T = Qp Rp, read-only: they depend on the band
    only, never on the data."""
    rows = _poly_rows(np.frombuffer(freq_bytes), n_p)
    qp, rp = np.linalg.qr(rows.T)
    _read_only(rows, qp, rp)
    return rows, qp, rp


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
    """Stack rows [L_{n_a}; ..; L_0; -R_{n_b}; ..; -R_0] over the band, then
    n_p polynomial rows; M1 is the fixed highest-order block.

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
    poly_rows, qp, rp = _poly_block(freqs.tobytes(), n_p)
    M = np.vstack(blocks + [poly_rows])
    return RegressionSystem(m1=M[:n_x], m2=M[n_x:], freqs=freqs, band=index,
                            structure=structure, length=length, n_poly=n_p,
                            windowed=k > 0, poly_factor=(qp, rp))


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
    a = s.n_x * s.n_a  # column blocks A_{n_a-1} .. A_0, then B_{n_b} .. B_0
    A = [theta2[:, j:j + s.n_x] for j in range(0, a, s.n_x)][::-1] + [np.eye(s.n_x)]
    B = [theta2[:, j:j + s.n_u] for j in range(a, theta2.shape[1], s.n_u)][::-1]
    return ModelParams(s, A=tuple(A), B=tuple(B))


def _times(q: np.ndarray, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """q @ a, or q^H @ a, for a C-contiguous complex a.  A real q
    multiplies a's real view: one real product, no complex copy of q."""
    if np.iscomplexobj(q):
        return (q.T.conj() if adjoint else q) @ a
    return ((q.T if adjoint else q) @ a.view(float)).view(complex)


def solve_ls(reg: RegressionSystem) -> EstimateReport:
    """Least-squares estimate theta_2 = -M1 M2^+ with rank diagnostics.

    M2^T = [Mm^T | P^T] holds the model rows and the n_p polynomial rows P.
    P^T = Qp Rp is factored once per band and n_p (``build_regression``
    caches it; a regression without ``poly_factor`` is factored here).
    The model rows are projected off it, Z = Qp^H Mm^T and
    W = Mm^T - Qp Z = Qw Rw, so M2^T = [Qw Qp] S with the small
    block-triangular S = [[Rw, 0], [Z, Rp]].  S has M2's singular values:
    its SVD gives ``m2_singular_values``, and a numerical rank below M2's
    row count (see RANK_RTOL) raises RankDeficiencyError.  Solving S
    against [Qw^H; Qp^H] (-M1^T) then gives the model parameters and the
    polynomial coefficients.  With n_p = 0 nothing is projected: S is Rw,
    read with its right-hand side off the QR factor of [Mm^T | -M1^T].
    The fit residual is W model^T plus the projected M1^T.
    """
    rows, cols = reg.m2.shape
    if cols < rows:
        raise ValueError(f"M2 has {cols} frequency columns for {rows} parameter rows; "
                         "the regression is underdetermined")
    t0 = time.perf_counter()
    n_m = rows - reg.n_poly
    # [Mm^T | -M1^T] in the (Fortran) order the QR takes, projected off Qp
    aug = np.concatenate((reg.m2[:n_m], -reg.m1)).T
    if reg.n_poly:
        qp, rp = reg.poly_factor or np.linalg.qr(reg.m2[n_m:].T)
        aug = np.ascontiguousarray(aug)  # _times multiplies its real view
        proj = _times(qp, aug, adjoint=True)  # [Z | Qp^H (-M1^T)]
        aug -= _times(qp, proj)
    r_aug = np.linalg.qr(aug, mode="r")[:n_m]  # [Rw | Qw^H (-M1^T)]
    if reg.n_poly:  # [S | its right-hand side], S = [[Rw, 0], [Z, Rp]]
        r_aug = np.block([[r_aug[:, :n_m], np.zeros((n_m, reg.n_poly)), r_aug[:, n_m:]],
                          [proj[:, :n_m], rp, proj[:, n_m:]]])
    tri, rhs = r_aug[:, :rows], r_aug[:, rows:]
    s = np.linalg.svd(tri, compute_uv=False)
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    if rank < rows:
        ratio = s[-1] / s[0] if s[0] > 0 else 0.0
        raise RankDeficiencyError(f"numerical rank {rank} below parameter row count {rows} "
                                  f"(smallest singular value ratio {ratio:.2e})")
    theta2 = np.linalg.solve(tri, rhs).T
    wall = time.perf_counter() - t0
    model = theta2[:, :n_m]
    # the polynomial part of the fit is the projection onto Qp, so the
    # residual theta2 M2 + M1 is model W^T minus the projected -M1
    fit_resid = model @ aug[:, :n_m].T - aug[:, n_m:].T
    norms = np.sqrt((np.abs(fit_resid) ** 2).sum(axis=0))
    resid_l2 = float(np.sqrt((norms**2).sum() / reg.length))
    return EstimateReport(
        theta_hat=_split_theta(model.real, reg.structure), residual_l2=resid_l2,
        per_frequency_residual=Spectrum(reg.length, norms, reg.freqs), wall_time=wall,
        regression=reg, imag_norm=float(np.linalg.norm(model.imag)),
        poly_coeffs=theta2[:, n_m:] if reg.n_poly else None, m2_singular_values=s,
    )


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
