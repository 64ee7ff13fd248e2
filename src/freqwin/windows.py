"""Window shapes on the unit interval, with analytic derivatives and
spectral diagnostics.

A window lives on s = t/T in [0, 1]: the record it multiplies supplies T
(``spectral.apply_window`` scales d^k/ds^k by T^-k), and frequencies here
count bins m of 1/T.  Two families are the workhorses: powers of a half-period
sine, ``sin_n(s) = sin^n(pi s)``, and an infinitely smooth bump,
``cinf_n(s) = exp(4n - n / (s (1 - s)))``, both supported on (0, 1) and
equal to 1 at s = 1/2.  The sine family is C^(n-1) across the window edges
(its first n-1 derivatives vanish there); the bump family vanishes with all
its derivatives.  A rectangular window is provided so the
polynomial-transient baseline shares the same pipeline, and a flat
reference polynomial window ``poly_ref`` exists only for the
overlap-variance figures.

Derivatives are exact: a sine-window derivative is a sum of sin^a cos^b
terms with integer coefficients, a bump-family derivative the window times a
rational prefactor built once per (order, k) in exact fractions.  Every
window is even about 1/2: w^(k)(1 - s) = (-1)^k w^(k)(s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, perm, prod

import numpy as np
from numpy.polynomial import polynomial as P

from .spectral import Spectrum

FAMILIES = ("rectangular", "sin", "cinf", "poly_ref")

SIN_MAX_ORDER = 64  # the paper uses n <= 9; tests check up to here against mpmath

# exp() underflows to 0 below this; the rational prefactors of the bump
# window stay finite well past it, so the product is exactly 0 there.
_EXP_FLOOR = -700.0

F_ERR_SEARCH_BINS = 10000  # f_err's last bin m; beyond it, inf


@dataclass(frozen=True)
class WindowSpec:
    """Window family and smoothness order; the support is [0, 1].

    ``order`` must be a positive integer for ``sin``, an even one for
    ``poly_ref`` and any real > 0 for ``cinf`` (e.g. 0.25).  It is ignored
    for ``rectangular``.
    """

    family: str
    order: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown window family {self.family!r}")
        if not isfinite(self.order):
            raise ValueError("window order must be finite")
        if self.family in ("sin", "poly_ref"):
            if self.order < 1 or self.order != int(self.order):
                raise ValueError(f"{self.family} order must be a positive integer")
            if self.family == "sin" and self.order > SIN_MAX_ORDER:
                raise ValueError(f"sin order must be <= {SIN_MAX_ORDER}")
            if self.family == "poly_ref" and self.order % 2:
                raise ValueError("poly_ref order must be even")
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
    """Sampled window derivative rows d^k w/ds^k on s_j = j / N.

    Row k holds the k-th derivative.  Endpoint samples store the one-sided
    limits from inside the support (0 for both proposed families at k = 0);
    ``terminal`` holds every row's value at s = 1.
    """

    spec: WindowSpec
    samples: np.ndarray  # (max_deriv + 1, N), float64
    terminal: np.ndarray  # (max_deriv + 1,), float64

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


def _cinf_values(order: float, k: int, s: np.ndarray) -> np.ndarray:
    out = np.zeros(s.shape, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    expo = np.full(s.shape, -np.inf)
    with np.errstate(over="ignore"):  # subnormal s: the exponent is -inf
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
        pref = num / (sl * (1.0 - sl)) ** (2 * k)
    out[live] = pref * np.exp(expo[live])
    return out


@functools.lru_cache(maxsize=None)
def _sin_poly(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (b, c_b) with d^k/dx^k sin^n x = sum_b c_b sin^(n-b) x cos^b x,
    by d/dx S^a C^b = a S^(a-1) C^(b+1) - b S^(a+1) C^(b-1): a + b = n stays,
    b has the parity of k (at most k/2 + 1 terms) and a never goes negative."""
    if k == 0:
        return ((0, 1),)
    terms = dict.fromkeys(range(-1, n + 2), 0)
    for b, c in _sin_poly(n, k - 1):
        terms[b + 1] += (n - b) * c
        terms[b - 1] -= b * c
    return tuple((b, c) for b, c in sorted(terms.items()) if c)


def _sin_values(n: int, k: int, s: np.ndarray) -> np.ndarray:
    sx, cx = np.sin(np.pi * s), np.cos(np.pi * s)
    acc = sum(c * sx ** (n - b) * cx ** b for b, c in _sin_poly(n, k))
    return acc * np.pi ** k


def _poly_ref_values(n: int, k: int, s: np.ndarray) -> np.ndarray:
    # w = 1 - (s - 1/2)^n
    out = np.zeros(s.shape, dtype=float)
    if k == 0:
        out[:] = 1.0 - (s - 0.5) ** n
    elif k <= n:
        out[:] = -perm(n, k) * (s - 0.5) ** (n - k)
    return out


def window_value(spec: WindowSpec, k: int, s) -> np.ndarray | float:
    """Evaluate d^k w/ds^k at s.

    Returns 0 strictly outside [0, 1]; at s = 0 and s = 1 the one-sided
    limit from inside the support is returned, so tables sampled from here
    carry the right-limit at the first sample.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if spec.family == "cinf":
        out = _cinf_values(spec.order, k, s)
    else:
        if spec.family == "rectangular":
            if k >= 1:
                raise ValueError("rectangular window has no pointwise derivatives; it "
                                 "participates only in the polynomial-transient baseline")
            vals = 1.0
        elif spec.family == "sin":
            vals = _sin_values(int(spec.order), k, s)
        else:  # poly_ref
            vals = _poly_ref_values(int(spec.order), k, s)
        out = np.where((s >= 0.0) & (s <= 1.0), vals, 0.0)
    return float(out[0]) if scalar else out


def window_table(spec: WindowSpec, num_samples: int, max_deriv: int) -> WindowTable:
    """Sample the window and its derivatives on the grid s_j = j / N and at 1."""
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    if max_deriv < 0:
        raise ValueError("max_deriv must be >= 0")
    s = np.append(np.arange(num_samples) * (1.0 / num_samples), 1.0)
    rows = np.array([window_value(spec, k, s) for k in range(max_deriv + 1)])
    return WindowTable(spec=spec, samples=np.ascontiguousarray(rows[:, :-1]),
                       terminal=rows[:, -1].copy())


_leggauss = functools.cache(np.polynomial.legendre.leggauss)  # nodes, weights


def window_area(spec: WindowSpec) -> float:
    """Area under the base window on [0, 1], used to normalize spectral
    envelopes."""
    if spec.family == "rectangular":
        return 1.0
    if spec.family == "sin":
        # Wallis: int_0^pi sin^n is pi (n-1)!!/n!! for even n, 2 (n-1)!!/n!! for odd
        n = int(spec.order)
        ratio = prod(range(n - 1, 0, -2)) / prod(range(n, 0, -2))
        return ratio if n % 2 == 0 else 2.0 / np.pi * ratio
    # no closed form needed elsewhere: high-order quadrature on the analytics
    nodes, weights = _leggauss(200)
    sq = 0.5 * (nodes + 1.0)
    return float(0.5 * np.sum(weights * window_value(spec, 0, sq)))


@functools.lru_cache(maxsize=4)
def _chirp_plan(n: int, m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp c_j = exp(-i pi (j^2 mod 2 size) / size) and the FFT of the
    kernel conj(c_{q-j}), q < m, j < n, wrapped for a circular convolution."""
    import scipy.fft  # only f_err's diagnostic transform needs scipy

    j = np.arange(max(n, m), dtype=np.int64)
    chirp = np.exp(-1j * np.pi / size * ((j * j) % (2 * size)))
    pad = np.zeros(scipy.fft.next_fast_len(n + m - 1) - (n + m - 1))
    return chirp, scipy.fft.fft(np.concatenate([chirp[:m], pad, chirp[n - 1:0:-1]]).conj())


def _spectrum_samples(spec: WindowSpec, k: int, m_max: float,
                      refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """DFT of d^k w/ds^k from n_hi samples, on the bins q / refine <= m_max.

    n_hi >= 32 m_max keeps the diagnostic's own aliasing below 1e-14 of
    the peak for smooth windows, 1e-11 for 1/m^2 tails at f_err's bound.
    Parity halves the work: with c = n_hi / 2, v_{c-i} = (-1)^k v_{c+i}, so
    only the right half enters Y_q = sum_{i<c} v_{c+i} omega^(qi), where
    omega = exp(-2 pi i / M), M = refine n_hi, and X_q = v_0 + omega^(qc) B_q
    with omega^(qc) = exp(-i pi (q mod 2 refine) / refine) and B_q equal to
    2 Re Y_q - v_c for even k, 2i Im Y_q for odd k (v_c = 0).  Only bins
    q <= keep are formed, by the chirp z-transform: iq = (i^2 + q^2 -
    (q - i)^2) / 2 makes Y_q = c_q sum_i v_{c+i} c_i conj(c_{q-i}), one FFT
    convolution of next_fast_len(c + keep) points.  Its chirp phase comes
    from the integer i^2 mod 2M, as scipy.signal.czt's float power is off by
    4.2e-9 of the peak, enough to move f_err at p = 1e-12; the bins stay
    within 5.5e-16 of a direct DFT.  The chirp cache is keyed by sizes.
    """
    import scipy.fft

    n_hi = 1 << int(np.ceil(np.log2(max(16384, int(32 * m_max)))))
    half = n_hi // 2
    right = window_value(spec, k, (half + np.arange(half)) * (1.0 / n_hi))
    # wrap sample as the average of both one-sided limits: the DFT then
    # matches the trapezoid estimate of the transform integral
    wrap = 0.5 * (window_value(spec, k, 0.0) + window_value(spec, k, 1.0))
    keep = int(round(m_max * refine))
    chirp, kernel = _chirp_plan(half, keep + 1, refine * n_hi)
    conv = scipy.fft.ifft(scipy.fft.fft(right * chirp[:half], n=kernel.size) * kernel)
    y = conv[: keep + 1] * chirp[: keep + 1]
    fold = 2.0 * y.real - right[0] if k % 2 == 0 else 2j * y.imag
    q = np.arange(keep + 1)
    shift = np.exp(-1j * np.pi / refine * np.arange(2 * refine))[q % (2 * refine)]
    return q / refine, (1.0 / n_hi) * (wrap + shift * fold)


def window_spectrum(spec: WindowSpec, k: int, f_max: int = 128) -> Spectrum:
    """Transform of d^k w/ds^k on the bins m = 0..f_max (f = m/T on a
    record of length T).

    Exact trig-polynomial windows (even-order sine) have identically zero
    coefficients on this grid beyond their harmonic content; use f_err for
    leakage envelopes, which refines the grid internally.
    """
    if not 0 <= f_max <= F_ERR_SEARCH_BINS or f_max != int(f_max):
        raise ValueError(f"f_max must be a whole number of bins in "
                         f"[0, {F_ERR_SEARCH_BINS}], not {f_max}")
    freqs, coeffs = _spectrum_samples(spec, k, f_max, refine=1)
    return Spectrum(length=1.0, coeffs=coeffs[np.newaxis, :], freqs=freqs)


@functools.lru_cache(maxsize=8)
def _envelope(spec: WindowSpec, k: int) -> np.ndarray:
    """sup_{|m'| >= m} |w_k(m')| / S at the bins m = 1..F_ERR_SEARCH_BINS.

    The sup is taken on a 16x refined grid (leakage between the bins is what
    aliases; even-order sine windows are exactly zero ON the bins): by parity
    ``_spectrum_samples`` transforms only the 2^18-sample right half of the
    2^19-sample record, one 425 920-point chirp z-transform convolution for
    the 163 265 kept bins of its 2^23 point DFT.  Only the 10 000 envelope
    values are kept, read-only, not the spectrum.
    """
    refine = 16
    # small slack above the bound so the sup is taken over a full tail
    _, coeffs = _spectrum_samples(spec, k, F_ERR_SEARCH_BINS * 1.02 + 4.0, refine)
    mag = np.abs(coeffs) / window_area(spec)
    env = np.maximum.accumulate(mag[::-1])[::-1]
    out = env[refine : F_ERR_SEARCH_BINS * refine + 1 : refine].copy()
    out.flags.writeable = False
    return out


def f_err(spec: WindowSpec, k: int, p: float) -> float:
    """Smallest bin m with sup_{|m'| >= m} |w_k(m')| / S < p; f_err = m/T
    on a record of length T.

    S is the base window's area for every derivative order.  The envelope
    comes from ``_envelope``, built once per (spec, k) and shared by every
    threshold p.  Returns inf when the threshold is not met at
    m <= F_ERR_SEARCH_BINS.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("threshold p must be in (0, 1)")
    if spec.family == "rectangular" and k >= 1:
        raise ValueError("rectangular window has no derivative spectra")
    below = np.flatnonzero(_envelope(spec, k) < p)
    return float(below[0] + 1) if below.size else np.inf


def overlap_variance(spec: WindowSpec, tau: float, num_windows: int) -> float:
    """Normalized periodogram variance for K overlapped windows.

    Implements (1 + 2 sum_{j>=1} ((K-j)/K) rho_j) / K with
    rho_j = (int w(s) w(s - j (1-tau)) ds / int w^2)^2, the overlap
    integrals evaluated by Gauss-Legendre quadrature on the analytic window.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("overlap fraction must be in [0, 1)")
    if num_windows < 1:
        raise ValueError("need at least one window")
    K = num_windows
    nodes, weights = _leggauss(400)

    def overlap_integral(shift: float) -> float:
        if shift >= 1.0:
            return 0.0
        sq = 0.5 * (1.0 - shift) * (nodes + 1.0) + shift
        wq = window_value(spec, 0, sq) * window_value(spec, 0, sq - shift)
        return float(0.5 * (1.0 - shift) * np.sum(weights * wq))

    norm = overlap_integral(0.0)
    acc = 1.0
    for j in range(1, K):
        shift = j * (1.0 - tau)
        if shift >= 1.0:
            break
        rho = (overlap_integral(shift) / norm) ** 2
        acc += 2.0 * ((K - j) / K) * rho
    return acc / K
