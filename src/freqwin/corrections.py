"""Windowing correction spectra (the "spurious inputs").

Multiplying a record by a window before transforming makes the usual
derivative rule D(f)^j * F(w x) differ from F(w * d^j x/dt^j); the
difference is the transform of the correction signal

    x^{j}(t) = d^j(w x)/dt^j - w(t) d^j x/dt^j
             = sum_{k=1..j} C(j,k) w^(k)(t) x^(j-k)(t).

These corrections are computable from sampled data alone: each order is
assembled from transforms of window-derivative-weighted copies of the signal
plus spectral derivatives of the lower orders, so no time derivative of the
signal is ever formed.  The recurrence coefficients are solved exactly (as
rationals) from the Leibniz expansion and validated symbolically before use;
the low orders reproduce

    x^{1} =  w' x
    x^{2} = -w'' x + 2 d(x^{1})/dt
    x^{3} =  w''' x + 3 d(x^{2})/dt - 3 d^2(x^{1})/dt^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .spectral import Signal, Spectrum, apply_window, fft_spectrum, fourier_coeffs
from .windows import WindowTable

MAX_DEFAULT_ORDER = 4

# symbolic term dictionaries map (window-derivative order, signal-derivative
# order) -> rational coefficient, representing sums of w^(p) x^(q)

def _leibniz_terms(n: int) -> dict[tuple[int, int], Fraction]:
    return {(k, n - k): Fraction(comb(n, k)) for k in range(1, n + 1)}


def _diff_terms(terms: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (p, q), c in terms.items():
        out[(p + 1, q)] = out.get((p + 1, q), Fraction(0)) + c
        out[(p, q + 1)] = out.get((p, q + 1), Fraction(0)) + c
    return out


def _solve_exact(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; raises on a singular system."""
    n = len(b)
    M = [row[:] + [bi] for row, bi in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular recurrence system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients a_0..a_{n-1} assembling correction order n as

    x^{n} = a_0 w^(n) x + sum_{j=1..n-1} a_j d^j(x^{n-j})/dt^j,

    with a_0 carrying the per-order leading sign.  Stored exactly.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coeffs)


def _leibniz_validate(n: int, coeffs: tuple[Fraction, ...]) -> bool:
    assembled: dict[tuple[int, int], Fraction] = {(n, 0): coeffs[0]}
    for j in range(1, n):
        terms = _leibniz_terms(n - j)
        for _ in range(j):
            terms = _diff_terms(terms)
        for key, c in terms.items():
            assembled[key] = assembled.get(key, Fraction(0)) + coeffs[j] * c
    target = _leibniz_terms(n)
    keys = set(assembled) | set(target)
    return all(assembled.get(k, Fraction(0)) == target.get(k, Fraction(0)) for k in keys)


# cases implied by the explicit low-order corrections, kept as anchors
_KNOWN = {
    1: (Fraction(1),),
    2: (Fraction(-1), Fraction(2)),
    3: (Fraction(1), Fraction(3), Fraction(-3)),
}


@functools.lru_cache(maxsize=None)
def recurrence_coeffs(n: int, allow_high: bool = False) -> RecurrenceCoeffs:
    """Solve for the assembly coefficients of correction order n.

    Orders above MAX_DEFAULT_ORDER require ``allow_high=True``.  Every
    result, including the hard-coded low orders, passes the exact symbolic
    Leibniz validation before being returned.
    """
    if n < 1:
        raise ValueError("correction order must be >= 1")
    if n > MAX_DEFAULT_ORDER and not allow_high:
        raise ValueError(
            f"correction order {n} above the default maximum "
            f"{MAX_DEFAULT_ORDER}; pass allow_high=True to enable it"
        )
    if n in _KNOWN:
        coeffs = _KNOWN[n]
    else:
        # match coefficients of w^(p) x^(q), p + q = n, p = 1..n:
        # unknown j contributes d^j(x^{n-j}) expanded over those monomials
        columns: list[dict[tuple[int, int], Fraction]] = [{(n, 0): Fraction(1)}]
        for j in range(1, n):
            terms = _leibniz_terms(n - j)
            for _ in range(j):
                terms = _diff_terms(terms)
            columns.append(terms)
        target = _leibniz_terms(n)
        keys = [(p, n - p) for p in range(1, n + 1)]
        A = [[col.get(key, Fraction(0)) for col in columns] for key in keys]
        b = [target.get(key, Fraction(0)) for key in keys]
        # overdetermined only through redundancy; solve the square leading part
        coeffs = tuple(_solve_exact([row[:n] for row in A[:n]], b[:n]))
    if not _leibniz_validate(n, coeffs):
        raise ValueError(f"Leibniz validation failed for correction order {n}")
    return RecurrenceCoeffs(order=n, coeffs=coeffs)


@dataclass(frozen=True)
class CorrectionSet:
    """Correction spectra for orders 1..j_max of one signal.

    ``spectra[i]`` holds order i+1; order 0 is identically zero by
    definition and is never stored.
    """

    orders: tuple[int, ...]
    spectra: tuple[Spectrum, ...]
    source: str = "state"

    def spectrum(self, order: int) -> Spectrum:
        if order == 0:
            raise ValueError("order-0 correction is identically zero")
        return self.spectra[self.orders.index(order)]


def correction_spectra(signal: Signal, table: WindowTable, j_max: int,
                       k_max: int | None = None, two_sided: bool = False,
                       endpoint_average: bool = False,
                       source: str = "state") -> CorrectionSet:
    """Correction spectra x^{1}..x^{j_max} via the frequency-domain recurrence.

    Each order transforms one window-derivative-weighted copy of the signal
    and reuses the lower-order spectra through spectral derivatives; the
    sampled signal is never differentiated in time.  ``two_sided`` computes
    on the full DFT grid (used by the identification pipeline), otherwise on
    the non-negative bins 0..k_max.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if j_max == 0:
        return CorrectionSet(orders=(), spectra=(), source=source)
    if j_max > table.max_deriv:
        raise ValueError(
            f"corrections to order {j_max} need window derivatives to that "
            f"order; table holds {table.max_deriv}"
        )

    def transform(sig: Signal) -> Spectrum:
        if two_sided:
            return fft_spectrum(sig, endpoint_average=endpoint_average)
        km = signal.num_samples // 2 if k_max is None else k_max
        return fourier_coeffs(sig, km, endpoint_average=endpoint_average)

    base = [transform(apply_window(signal, table, k=j)) for j in range(1, j_max + 1)]
    freqs = base[0].freqs
    D = 2j * np.pi * freqs
    spectra: dict[int, np.ndarray] = {}
    for n in range(1, j_max + 1):
        a = recurrence_coeffs(n, allow_high=n > MAX_DEFAULT_ORDER).as_floats()
        acc = a[0] * base[n - 1].coeffs
        for j in range(1, n):
            acc = acc + a[j] * D**j * spectra[n - j]
        spectra[n] = acc
    out = tuple(
        Spectrum(length=signal.length, coeffs=spectra[n], freqs=freqs)
        for n in range(1, j_max + 1)
    )
    return CorrectionSet(orders=tuple(range(1, j_max + 1)), spectra=out, source=source)


def _fornberg_weights(m: int, offsets: np.ndarray) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at 0 on given nodes
    (Fornberg's recursion)."""
    n = len(offsets)
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                # new column, from the not-yet-updated previous column
                for k in range(min(i, m), -1, -1):
                    prev = k * w[k - 1, i - 1] if k else 0.0
                    w[k, i] = c1 * (prev - offsets[i - 1] * w[k, i - 1]) / c2
            for k in range(min(i, m), -1, -1):
                prev = k * w[k - 1, j] if k else 0.0
                w[k, j] = (offsets[i] * w[k, j] - prev) / c3
        c1 = c2
    return w[m]


def _fd_derivative(values: np.ndarray, m: int, step: float, stride: int) -> np.ndarray:
    """m-th time derivative of every channel by 11-point stencils of spacing
    stride samples; stencils near the record edges shift inside the data."""
    n_pts = 11
    half = n_pts // 2
    nc, N = values.shape
    if N < (n_pts - 1) * stride + 1:
        raise ValueError("record too short for the difference stencils")
    out = np.empty_like(values)
    idx = np.arange(N)
    base = idx - half * stride
    base = np.clip(base, 0, N - 1 - (n_pts - 1) * stride)
    rel = idx - base  # offset of the evaluation point inside its stencil, samples
    h = step * stride
    # group by relative position so weights are computed once per shape
    for r in np.unique(rel):
        sel = rel == r
        offsets = (np.arange(n_pts) * stride - r) * step
        w = _fornberg_weights(m, offsets / h) / h**m
        rows = base[sel]
        gathered = np.stack([values[:, rows + j * stride] for j in range(n_pts)], axis=0)
        out[:, sel] = np.tensordot(w, gathered, axes=(0, 0))
    return out


def correction_time_oracle(signal: Signal, table: WindowTable, j: int,
                           oversample: int = 16) -> Signal:
    """Brute-force x^{j}(t) on the signal's own grid via the Leibniz sum.

    The signal must be an oversampled record (``oversample`` = factor above
    the target rate, >= 4); the signal derivatives come from high-order
    central finite differences.  The stencil spacing targets T/2048
    regardless of the input rate: finer steps amplify roundoff as h^-3,
    coarser ones lose accuracy to truncation.  Independent of the spectral
    recurrence by construction.
    """
    if oversample < 4:
        raise ValueError("oracle needs at least 4x oversampling to be reliable")
    if j < 1:
        raise ValueError("correction order must be >= 1")
    if j > table.max_deriv:
        raise ValueError("window table lacks the required derivative rows")
    step = signal.length / signal.num_samples
    stride = max(1, signal.num_samples // 2048)
    acc = np.zeros_like(signal.values)
    for k in range(1, j + 1):
        if j - k == 0:
            deriv = signal.values
        else:
            deriv = _fd_derivative(signal.values, j - k, step, stride=stride)
        acc = acc + comb(j, k) * table.samples[k] * deriv
    return Signal(length=signal.length, values=acc)
