"""Window families with analytic derivatives and spectral diagnostics.

Two families are the workhorses: powers of a half-period sine,
``sin_n(t) = sin^n(pi t / T)``, and an infinitely smooth bump,
``cinf_n(t) = exp(4n - n T^2 / (t (T - t)))``, both supported on (0, T) and
equal to 1 at T/2.  The sine family is C^(n-1) across the window edges (its
first n-1 derivatives vanish there); the bump family vanishes with all its
derivatives.  A rectangular window is provided so the polynomial-transient
baseline shares the same pipeline, and a flat reference polynomial window
``poly_ref`` exists only for the overlap-variance figures.

Derivatives are exact: the sine windows are finite trigonometric sums which
are differentiated term by term; a bump-family derivative is the window
times a rational prefactor whose numerator polynomial is built once per
(order, k) in exact fractions, then evaluated in floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite, perm

import numpy as np
import scipy.fft
from numpy.polynomial import polynomial as P

from .spectral import Spectrum

FAMILIES = ("rectangular", "sin", "cinf", "poly_ref")

# sin_n costs n + 1 exponentials per sample and (2j)**n overflows near
# n = 1024; the paper uses n <= 9
SIN_MAX_ORDER = 64

# exp() underflows to 0 below this; the rational prefactors of the bump
# window stay finite well past it, so the product is exactly 0 there.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class WindowSpec:
    """Window family, smoothness order and support length.

    ``order`` must be a positive integer for ``sin`` and ``poly_ref``; the
    ``cinf`` family accepts any real order > 0 (e.g. 0.25).  It is ignored
    for ``rectangular``.
    """

    family: str
    order: float = 1.0
    length: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown window family {self.family!r}")
        if not (isfinite(self.order) and isfinite(self.length)):
            raise ValueError("window order and length must be finite")
        if self.length <= 0:
            raise ValueError("window length must be positive")
        if self.family in ("sin", "poly_ref"):
            if self.order < 1 or self.order != int(self.order):
                raise ValueError(f"{self.family} order must be a positive integer")
            if self.family == "sin" and self.order > SIN_MAX_ORDER:
                raise ValueError(f"sin order must be <= {SIN_MAX_ORDER}")
        elif self.family == "cinf":
            if self.order <= 0:
                raise ValueError("cinf order must be > 0")

    @property
    def label(self) -> str:
        if self.family == "rectangular":
            return "rect"
        o = int(self.order) if self.order == int(self.order) else self.order
        return f"{self.family}_{o}"


@dataclass(frozen=True)
class WindowTable:
    """Sampled window derivative rows d^k w/dt^k on t_j = j T / N.

    Row k holds the k-th derivative.  Endpoint samples store the one-sided
    limits from inside the support (0 for both proposed families at k = 0).
    """

    spec: WindowSpec
    samples: np.ndarray  # (max_deriv + 1, N), float64

    @property
    def max_deriv(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


# q = s (1 - s) = 1/4 - c^2 in c = s - 1/2, exact coefficients in rising powers
_Q = np.array([Fraction(1, 4), 0, -1], dtype=object)
_DQ = P.polyder(_Q)


@functools.lru_cache(maxsize=None)
def _cinf_poly(order: float, k: int) -> np.ndarray:
    """Exact coefficients in c of P_k, where d^k/ds^k w = P_k(c) / q^(2k) w.

    The exponent g = 4n - n/q has g' = n q' / q^2, so P_1 = n q', and
    R_{k+1} = R_k' + R_k g' with R_k = P_k / q^(2k) gives
    P_{k+1} = q^2 P_k' - 2k q q' P_k + n q' P_k.  Fractions keep every
    coefficient exact; no exponential ever appears.
    """
    n = Fraction(order)
    if k == 1:
        return n * _DQ
    p = _cinf_poly(order, k - 1)
    return P.polyadd(P.polymul(P.polymul(_Q, _Q), P.polyder(p)),
                     P.polymul(P.polymul(_DQ, p), P.polysub([n], 2 * (k - 1) * _Q)))


def _cinf_values(order: float, k: int, s: np.ndarray, length: float) -> np.ndarray:
    out = np.zeros(s.shape, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    expo = np.full(s.shape, -np.inf)
    expo[inside] = 4.0 * order - order / (s[inside] * (1.0 - s[inside]))
    live = inside & (expo > _EXP_FLOOR)
    if not live.any():
        return out
    if k == 0:
        pref = 1.0
    else:
        # the denominator from s, not c, so nothing cancels at the edges
        sl = s[live]
        num = P.polyval(sl - 0.5, _cinf_poly(float(order), k).astype(float))
        pref = num / (sl * (1.0 - sl)) ** (2 * k) / length**k
    out[live] = pref * np.exp(expo[live])
    return out


def _sin_terms(n: int, length: float) -> list[tuple[complex, complex]]:
    """Pairs (c_m, om_m) with sin^n(pi t/T) = sum_m c_m exp(om_m t)."""
    return [(comb(n, m) * (-1) ** (n - m) / (2j) ** n, 1j * np.pi * (2 * m - n) / length)
            for m in range(n + 1)]


def _sin_values(order: int, k: int, t: np.ndarray, length: float) -> np.ndarray:
    acc = np.zeros(t.shape, dtype=complex)
    for c, om in _sin_terms(order, length):
        acc += c * om**k * np.exp(om * t)
    return acc.real


def _poly_ref_values(n: int, k: int, s: np.ndarray, length: float) -> np.ndarray:
    # w = 1 - (s - 1/2)^n on the unit interval, s = t/T
    out = np.zeros(s.shape, dtype=float)
    if k == 0:
        out[:] = 1.0 - (s - 0.5) ** n
    elif k <= n:
        out[:] = -perm(n, k) * (s - 0.5) ** (n - k) / length**k
    return out


def window_value(spec: WindowSpec, k: int, t) -> np.ndarray | float:
    """Evaluate d^k w/dt^k at time(s) t.

    Returns 0 strictly outside [0, T]; at t = 0 and t = T the one-sided
    limit from inside the support is returned, so tables sampled from here
    carry the right-limit at the first sample.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    T = spec.length
    s = t_arr / T
    if spec.family == "cinf":
        out = _cinf_values(spec.order, k, s, T)
    else:
        if spec.family == "rectangular":
            if k >= 1:
                raise ValueError(
                    "rectangular window has no pointwise derivatives; "
                    "it participates only in the polynomial-transient baseline"
                )
            vals = 1.0
        elif spec.family == "sin":
            vals = _sin_values(int(spec.order), k, t_arr, T)
        else:  # poly_ref
            vals = _poly_ref_values(int(spec.order), k, s, T)
        out = np.where((s >= 0.0) & (s <= 1.0), vals, 0.0)
    return float(out[0]) if scalar else out


def window_table(spec: WindowSpec, num_samples: int, max_deriv: int) -> WindowTable:
    """Sample the window and its derivatives on the uniform grid t_j = j T / N."""
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    if max_deriv < 0:
        raise ValueError("max_deriv must be >= 0")
    t = np.arange(num_samples) * (spec.length / num_samples)
    rows = np.empty((max_deriv + 1, num_samples), dtype=float)
    for k in range(max_deriv + 1):
        rows[k] = window_value(spec, k, t)
    return WindowTable(spec=spec, samples=rows)


_leggauss = functools.cache(np.polynomial.legendre.leggauss)  # nodes, weights


def window_area(spec: WindowSpec) -> float:
    """Area under the base window, used to normalize spectral envelopes."""
    T = spec.length
    if spec.family == "rectangular":
        return T
    if spec.family == "sin":
        # int_0^T sin^n(pi t/T) dt via the same exponential expansion
        total = sum(c * T if om == 0 else c * (np.exp(om * T) - 1.0) / om
                    for c, om in _sin_terms(int(spec.order), T))
        return float(total.real)
    # no closed form needed elsewhere: high-order quadrature on the analytics
    nodes, weights = _leggauss(200)
    tq = 0.5 * T * (nodes + 1.0)
    return float(0.5 * T * np.sum(weights * window_value(spec, 0, tq)))


@functools.lru_cache(maxsize=4)
def _chirp_plan(n: int, m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp c_j = exp(-i pi (j^2 mod 2 size) / size) and the FFT of the
    kernel conj(c_{q-j}), q < m, j < n, wrapped for a circular convolution."""
    j = np.arange(max(n, m), dtype=np.int64)
    chirp = np.exp(-1j * np.pi / size * ((j * j) % (2 * size)))
    pad = np.zeros(scipy.fft.next_fast_len(n + m - 1) - (n + m - 1))
    return chirp, scipy.fft.fft(np.concatenate([chirp[:m], pad, chirp[n - 1:0:-1]]).conj())


@functools.lru_cache(maxsize=8)
def _spectrum_samples(spec: WindowSpec, k: int, f_max: float,
                      refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """DFT of d^k w/dt^k from n_hi samples, on the grid q / (refine T) <= f_max.

    n_hi / T >= 32 f_max keeps the diagnostic's own aliasing below 1e-14 of
    the peak for smooth windows, 1e-11 for 1/f^2 tails at f_err's bound.
    Only bins q <= keep of the refine * n_hi point DFT are formed, by the
    chirp z-transform: jq = (j^2 + q^2 - (q - j)^2) / 2 makes X_q = c_q
    sum_j v_j c_j conj(c_{q-j}), one FFT convolution of size >= n_hi + keep.
    The chirp phase comes from the integer j^2 mod 2 refine n_hi: with the
    float power of scipy.signal.czt, bins of a uniform random 2^19-point input
    were off by 4.2e-9 of the peak, enough to move f_err at p = 1e-12; this
    path stays within 2.3e-16.  The chirp cache is keyed by sizes, not data.
    """
    T = spec.length
    n_hi = 1 << int(np.ceil(np.log2(max(16384, int(32 * f_max * T)))))
    t = np.arange(n_hi) * (T / n_hi)
    vals = window_value(spec, k, t).astype(float)
    # wrap sample as the average of both one-sided limits: the DFT then
    # matches the trapezoid estimate of the transform integral
    vals[0] = 0.5 * (window_value(spec, k, 0.0) + window_value(spec, k, T))
    keep = int(round(f_max * refine * T))
    chirp, kernel = _chirp_plan(n_hi, keep + 1, refine * n_hi)
    conv = scipy.fft.ifft(scipy.fft.fft(vals * chirp[:n_hi], n=kernel.size) * kernel)
    coeffs = conv[: keep + 1] * chirp[: keep + 1] * (T / n_hi)
    return np.arange(keep + 1) / (refine * T), coeffs


def window_spectrum(spec: WindowSpec, k: int, f_max: float | None = None):
    """Transform of d^k w/dt^k on the grid f = j/T up to f_max.

    Exact trig-polynomial windows (even-order sine) have identically zero
    coefficients on this grid beyond their harmonic content; use f_err for
    leakage envelopes, which refines the grid internally.
    """
    T = spec.length
    f_max = 128.0 / T if f_max is None else f_max
    m = f_max * T
    if abs(m - round(m)) > 1e-9:
        raise ValueError("f_max must be a multiple of 1/T")
    freqs, coeffs = _spectrum_samples(spec, k, f_max, refine=1)
    return Spectrum(length=T, coeffs=coeffs[np.newaxis, :], freqs=freqs)


def f_err(spec: WindowSpec, k: int, p: float, f_search_max: float | None = None) -> float:
    """Smallest f = m/T with sup_{|f'| >= f} |w_k(f')| / S < p.

    S is the base window's area for every derivative order.  The envelope is
    taken on a 16x refined grid (leakage between the 1/T bins is what
    aliases; even-order sine windows are exactly zero ON the 1/T grid): the
    chirp z-transform in ``_spectrum_samples`` turns 2^19 window samples
    into just the 163 265 kept bins of the 2^23 point DFT.  Returns inf when
    the threshold is not met below f_search_max; the result is on the 1/T grid.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("threshold p must be in (0, 1)")
    if spec.family == "rectangular" and k >= 1:
        raise ValueError("rectangular window has no derivative spectra")
    T = spec.length
    if f_search_max is None:
        f_search_max = 10000.0 / T
    refine = 16
    # small slack above the bound so the sup is taken over a full tail
    _, coeffs = _spectrum_samples(spec, k, f_search_max * 1.02 + 4.0 / T, refine=refine)
    mag = np.abs(coeffs) / window_area(spec)
    env = np.maximum.accumulate(mag[::-1])[::-1]
    m_max = int(np.floor(f_search_max * T))
    below = np.flatnonzero(env[refine : m_max * refine + 1 : refine] < p)
    return (int(below[0]) + 1) / T if below.size else np.inf


def overlap_variance(spec: WindowSpec, tau: float, num_windows: int) -> float:
    """Normalized periodogram variance for K overlapped windows.

    Implements (1 + 2 sum_{j>=1} ((K-j)/K) rho_j) / K with
    rho_j = (int w(t) w(t - j T (1-tau)) dt / int w^2)^2, the overlap
    integrals evaluated by Gauss-Legendre quadrature on the analytic window.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("overlap fraction must be in [0, 1)")
    if num_windows < 1:
        raise ValueError("need at least one window")
    T = spec.length
    K = num_windows
    nodes, weights = _leggauss(400)

    def overlap_integral(shift: float) -> float:
        lo, hi = shift, T
        if hi <= lo:
            return 0.0
        tq = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        wq = window_value(spec, 0, tq) * window_value(spec, 0, tq - shift)
        return float(0.5 * (hi - lo) * np.sum(weights * wq))

    norm = overlap_integral(0.0)
    acc = 1.0
    for j in range(1, K):
        shift = j * T * (1.0 - tau)
        if shift >= T:
            break
        rho = (overlap_integral(shift) / norm) ** 2
        acc += 2.0 * ((K - j) / K) * rho
    return acc / K
