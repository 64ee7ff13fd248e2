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

The spectral diagnostics (``window_spectrum``, ``f_err``) need numpy only.
They transform the derivative rows in even/odd pairs (k, k + 1), both rows
in one chirp z-transform, whose convolution runs as row and column FFT
passes over one buffer.  That pays off for callers that ask for both
orders of a pair (a window design takes k = 0 and 1): a cold pair costs
about 0.85x two one-row transforms.  A caller that asks for one order
alone pays for the partner row too: its cold ``f_err`` takes about 1.8x as
long as a one-row transform would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, isqrt, perm, prod

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


def _cinf_values(spec: WindowSpec, ks: range, s: np.ndarray) -> np.ndarray:
    """Rows d^k w/ds^k at the points s, one for each k in ks: the support
    mask, the exponent and its exp are evaluated once for all of them."""
    order = spec.order
    out = np.zeros((len(ks), s.size))
    live = (s > 0.0) & (s < 1.0)
    x = s[live]
    # the denominator from s, not c, so nothing cancels at the edges
    q = 1.0 - x
    q *= x
    base = order / q  # inf for subnormal s (_window_rows ignores it): exponent -inf
    np.subtract(4.0 * order, base, out=base)
    above = base > _EXP_FLOOR
    if not above.all():
        live[live] = above
        x = x[above]
        q = q[above]
        base = base[above]
    np.exp(base, out=base)
    x -= 0.5  # c = s - 1/2
    for row, k in zip(out, ks):
        if k == 0:
            row[live] = base
        else:
            pref = P.polyval(x, _cinf_poly(float(order), k).astype(float))
            pref /= q ** (2 * k)
            pref *= base
            row[live] = _finite(pref, spec, k)
    return out


def _finite(row: np.ndarray, spec: WindowSpec, k: int) -> np.ndarray:
    """``row``, or OverflowError naming the order if float64 overflowed in it."""
    if not np.isfinite(row).all():
        raise OverflowError(f"derivative {k} of window {spec.label} overflows float64")
    return row


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


def _window_rows(spec: WindowSpec, ks: range, s: np.ndarray) -> np.ndarray:
    """Rows d^k w/ds^k at the 1-D points s, one for each k in ks, 0 outside
    [0, 1].  Each row is checked as it is formed, so a row that overflows
    float64 raises OverflowError before any later order is built."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.family == "cinf":
            return _cinf_values(spec, ks, s)
        out = np.zeros((len(ks), s.size))
        for row, k in zip(out, ks):
            if spec.family == "rectangular":
                if k >= 1:
                    raise ValueError("rectangular window has no pointwise derivatives; it "
                                     "participates only in the polynomial-transient baseline")
                vals = 1.0
            elif spec.family == "sin":
                vals = _sin_values(int(spec.order), k, s)
            else:  # poly_ref
                vals = _poly_ref_values(int(spec.order), k, s)
            row[:] = _finite(np.where((s >= 0.0) & (s <= 1.0), vals, 0.0), spec, k)
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
    out = _window_rows(spec, range(k, k + 1), s.ravel())[0]
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def window_table(spec: WindowSpec, num_samples: int, max_deriv: int) -> WindowTable:
    """Sample the window and its derivatives on the grid s_j = j / N."""
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    if max_deriv < 0:
        raise ValueError("max_deriv must be >= 0")
    s = np.arange(num_samples) * (1.0 / num_samples)
    return WindowTable(spec=spec, samples=_window_rows(spec, range(max_deriv + 1), s))


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


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b >= n: a length numpy's FFT runs at full speed."""
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best


def _dft_passes(grid: np.ndarray, twiddle: np.ndarray, reverse: bool = False) -> None:
    """In place, the L = n1 n2 point DFT of the buffer behind the (n1, n2)
    view ``grid``, in Bailey's four steps without the transpose: FFTs of
    length n1 down the columns, the twiddles exp(-2 pi i k1 j2 / L), FFTs of
    length n2 along the rows.  x_(n2 j1 + j2) = grid[j1, j2] goes in, and
    X_(k1 + n1 k2) comes out at grid[k1, k2].  ``reverse`` runs the passes
    in the opposite order, from that layout back to the natural one, and so
    leaves at grid[j1, j2] the sum over k of X_k exp(-2 pi i j k / L): L
    times the inverse DFT at -j mod L, with j = n2 j1 + j2.  numpy's FFT
    needs scratch for one line at a time here, where a 1-D transform of L
    points allocates two buffers of L points."""
    first, second = (1, 0) if reverse else (0, 1)
    np.fft.fft(grid, axis=first, out=grid)
    grid *= twiddle
    np.fft.fft(grid, axis=second, out=grid)


def _roots(m: np.ndarray, length: int) -> np.ndarray:
    """exp(-2 pi i m / length) for the integers m >= 0, which it overwrites.
    Each phase is measured from the nearest quarter turn t, whose factor
    (-i)^t is exact, so no angle above pi / 4 is rounded: the roots come
    out within about 2e-16, where a phase up to 2 pi puts them 8e-16 off."""
    m *= 4
    m += length // 2
    turns = np.empty_like(m)
    np.divmod(m, length, out=(turns, m))
    m -= length // 2  # 4 m - t length, in [-length / 2, length / 2]
    out = np.zeros(m.shape, dtype=complex)
    np.multiply(m, -0.5 * np.pi / length, out=out.imag)
    np.exp(out, out=out)
    turns %= 4
    for t, factor in ((1, -1j), (2, -1.0), (3, 1j)):
        np.multiply(out, factor, out=out, where=turns == t)
    return out


@functools.lru_cache(maxsize=4)
def _chirp_plan(n: int, keep: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chirp c_j = exp(-i pi j^2 / size) for j < max(n, keep + 1); the
    transform of the kernel h_(-e) = conj(c_(keep - e)) / L, e in
    [0, n - 1 + 2 keep], indices taken mod L = _fast_len(n + 2 keep); and the
    twiddles exp(-2 pi i k1 j2 / L) of L's (n1, n2) split, n1 the largest
    divisor of L not above sqrt(L).  A circular convolution with h, run as
    ``_dft_passes`` forward, times the kernel, and reversed, leaves at
    e in [0, 2 keep] of inputs j < n no wrapped term: the sum over j of
    x_j conj(c_(q - j)) for the bin q = keep - e.  The kernel's transform
    sits in the passes' permuted layout, so nothing is transposed.  All
    three arrays are read-only, as every call shares them.
    """
    length = _fast_len(n + 2 * keep)
    n1 = next(d for d in range(isqrt(length), 0, -1) if length % d == 0)
    n2 = length // n1
    j = np.arange(n + keep, dtype=np.int64)  # every |q - j| the kernel takes
    chirp = _roots(j * j, 2 * size)
    twiddle = _roots(np.multiply.outer(np.arange(n1, dtype=np.int64), np.arange(n2)), length)
    kernel = np.zeros(length, dtype=complex)
    # e = 0 at index 0, e = n - 1 + 2 keep .. 1 at the top
    kernel[0] = chirp[keep].conjugate()
    top = length - (n - 1 + 2 * keep)
    np.conjugate(chirp[n + keep - 1: 0: -1], out=kernel[top: length - keep])
    np.conjugate(chirp[:keep], out=kernel[length - keep:])
    kernel *= 1.0 / length
    kernel = kernel.reshape(n1, n2)
    _dft_passes(kernel, twiddle)
    chirp = chirp[:max(n, keep + 1)].copy()
    for a in (chirp, kernel, twiddle):
        a.flags.writeable = False
    return chirp, kernel, twiddle


def _spectrum_samples(spec: WindowSpec, k: int, m_max: float,
                      refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """DFTs of d^k w/ds^k and d^(k+1) w/ds^(k+1), k even, from n_hi samples
    each, on the bins q / refine <= m_max: rows 0 and 1 of the result.  The
    rectangular window packs a zero row, so its row 1 holds rounding only.

    n_hi >= 32 m_max keeps the diagnostic's own aliasing below 1e-14 of
    the peak for smooth windows, 1e-11 for 1/m^2 tails at f_err's bound.
    Parity halves the work: with c = n_hi / 2, v_{c-i} = (-1)^k v_{c+i}, so
    only the right half enters Y_q = sum_{i<c} v_{c+i} omega^(qi), where
    omega = exp(-2 pi i / M), M = refine n_hi, and X_q = v_0 + omega^(qc) B_q
    with omega^(qc) = exp(-i pi (q mod 2 refine) / refine) and B_q equal to
    2 Re Y_q - v_c for even k, 2i Im Y_q for odd k (v_c = 0).  Both rows go
    through one complex transform Z_q = sum_i z_i omega^(qi) of the packed
    right halves z = 2^-e_a a + i 2^-e_b b.  The exact power-of-two scales
    put each row's rounding relative to its own peak, and since a and b are
    real, 2^-e_a Re Y_a(q) = (Re Z_q + Re Z_-q) / 2 and
    2^-e_b Im Y_b(q) = (Re Z_-q - Re Z_q) / 2.  Only the bins |q| <= keep
    are formed, by the chirp z-transform: iq = (i^2 + q^2 - (q - i)^2) / 2
    makes Z_q = c_q sum_i z_i c_i conj(c_{q-i}), one circular convolution
    of L = _fast_len(c + 2 keep) points: column FFTs, twiddles and row
    FFTs on the (n1, n2) view of one buffer, times the kernel's transform
    in that layout, and the same passes reversed (``_chirp_plan``).  Its
    chirp, kernel and twiddle phases come from integers (``_roots``), as
    scipy.signal.czt's float power is off by 4.2e-9 of the peak, enough to
    move f_err at p = 1e-12; the bins stay within 7.6e-16 of each row's
    peak from a direct DFT of that row alone (1.4e-15 for sin_64, whose
    samples peak 12-14x above its transform).  The plan cache is keyed by
    sizes.
    """
    n_hi = 1 << int(np.ceil(np.log2(max(16384, int(32 * m_max)))))
    half = n_hi // 2
    # the edges last, for the wrap sample
    s = np.append(np.arange(half, n_hi) * (1.0 / n_hi), (0.0, 1.0))
    if spec.family == "rectangular":  # a zero partner row
        rows = np.vstack([_window_rows(spec, range(k, k + 1), s), np.zeros(s.size)])
    else:
        rows = _window_rows(spec, range(k, k + 2), s)
    # wrap sample as the average of both one-sided limits: the DFT then
    # matches the trapezoid estimate of the transform integral
    wrap = 0.5 * (rows[:, -2] + rows[:, -1])
    v_c = rows[0, 0]
    scale = np.ldexp(1.0, -np.frexp(np.maximum(rows.max(axis=1), -rows.min(axis=1)))[1])
    keep = int(round(m_max * refine))
    chirp, kernel, twiddle = _chirp_plan(half, keep, refine * n_hi)
    buf = np.empty(kernel.size, dtype=complex)
    grid = buf.reshape(kernel.shape)
    np.multiply(rows[0, :half], scale[0], out=buf.real[:half])
    np.multiply(rows[1, :half], scale[1], out=buf.imag[:half])
    del s, rows  # 6 MB the transform does not need
    buf[:half] *= chirp[:half]
    buf[half:] = 0.0
    _dft_passes(grid, twiddle)
    grid *= kernel
    _dft_passes(grid, twiddle, reverse=True)
    buf[:keep + 1] *= chirp[keep::-1]  # bin q at keep - q, c_-q = c_q
    buf[keep + 1: 2 * keep + 1] *= chirp[1: keep + 1]
    pos, neg = buf.real[keep::-1], buf.real[keep: 2 * keep + 1]
    # B_q: 2 Re Y_a - v_c, real, and 2i Im Y_b, imaginary
    out = np.zeros((2, keep + 1), dtype=complex)
    np.add(pos, neg, out=out.real[0])
    out.real[0] /= scale[0]
    out.real[0] -= v_c
    np.subtract(neg, pos, out=out.imag[1])
    out.imag[1] /= scale[1]
    out *= np.resize(np.exp(-1j * np.pi / refine * np.arange(2 * refine)), keep + 1)
    out += wrap[:, None]
    out *= 1.0 / n_hi
    return np.arange(keep + 1) / refine, out


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
    if spec.family == "rectangular" and k >= 1:
        raise ValueError("rectangular window has no derivative spectra")
    freqs, coeffs = _spectrum_samples(spec, k - k % 2, f_max, refine=1)
    return Spectrum(length=1.0, coeffs=coeffs[np.newaxis, k % 2], freqs=freqs)


@functools.lru_cache(maxsize=8)
def _envelope(spec: WindowSpec, pair: int) -> np.ndarray:
    """sup_{|m'| >= m} |w_k(m')| / S at the bins m = 1..F_ERR_SEARCH_BINS,
    as rows for k = 2 pair and 2 pair + 1.

    The sup is taken on a 16x refined grid (leakage between the bins is what
    aliases; even-order sine windows are exactly zero ON the bins): by parity
    ``_spectrum_samples`` transforms only the 2^18-sample right halves of the
    2^19-sample records, both rows in one chirp z-transform convolution,
    run as 768-point FFTs down the columns and along the rows of a
    768 x 768 buffer, for the 163 265 kept bins of their 2^23 point DFTs.
    Only the 2 x 10 000 envelope values are kept, read-only, not the
    spectra.
    """
    refine = 16
    # small slack above the bound so the sup is taken over a full tail
    _, coeffs = _spectrum_samples(spec, 2 * pair, F_ERR_SEARCH_BINS * 1.02 + 4.0, refine)
    mag = np.abs(coeffs) / window_area(spec)
    env = np.maximum.accumulate(mag[:, ::-1], axis=1)[:, ::-1]
    out = env[:, refine : F_ERR_SEARCH_BINS * refine + 1 : refine].copy()
    out.flags.writeable = False
    return out


def f_err(spec: WindowSpec, k: int, p: float) -> float:
    """Smallest bin m with sup_{|m'| >= m} |w_k(m')| / S < p; f_err = m/T
    on a record of length T.

    S is the base window's area for every derivative order.  The envelope
    comes from ``_envelope``, built once per (spec, k // 2) for k and its
    even/odd partner and shared by every threshold p.  Returns inf when the
    threshold is not met at m <= F_ERR_SEARCH_BINS.  The transform's
    rounding is about 1e-16 of its peak, so a value whose p S lies below
    about 1e-14 of the peak of |w_k| is rounding noise: last-bit changes in
    the samples can move it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("threshold p must be in (0, 1)")
    if spec.family == "rectangular" and k >= 1:
        raise ValueError("rectangular window has no derivative spectra")
    below = np.flatnonzero(_envelope(spec, k // 2)[k % 2] < p)
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
