"""Sampled signals, their transforms and spectral operations.

Spectra use the transform-integral convention: coefficient k estimates
``int_0^T s(t) exp(-2 pi i f_k t) dt`` on the full two-sided DFT grid
f_k = k/T (``np.fft.fftfreq`` order), i.e. the DFT scaled by T/N.  Dividing
by T gives the Fourier-series coefficients of the record's periodic
extension.  Differentiation in this convention multiplies by
D(f) = +2 pi i f, and that sign is used consistently across the package
(modulated rows, corrections, regression polynomials); the
simulated-system recovery tests pin it down empirically.

Signals may be genuinely complex (the benchmark forcing is a complex
multisine), so no conjugate-symmetry compression is applied: the negative
bins carry information of their own.  A Spectrum carries its frequency
values explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _read_only(value):
    """``value``, once the array it is, or every array of the tuple it is,
    is read-only (other entries pass through): every array freqwin shares
    (records, model parameters, an estimate's reads, every cache) is
    frozen here.  A view of a frozen array (a decimated record, a block of
    a solve) is frozen already; its flag, slow to set, is left alone."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray) and a.flags.writeable:
            a.flags.writeable = False
    return value


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled multichannel complex time record on [0, T).

    ``values`` has shape (n_channels, N) with sample times t_j = j T / N.
    ``terminal`` optionally carries the extra sample s(T), record data for
    checks against x(T) and for the CSV's exact T; no estimate reads it.
    The values and the terminal sample are scanned for non-finite entries
    once, at construction, and stored as read-only views: a slice of them (a
    decimated record) shares their memory and is not scanned.
    """

    length: float
    values: np.ndarray
    terminal: np.ndarray | None = None

    _scan = True  # cleared per instance by _finite_signal; not a field

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[np.newaxis, :]
        if vals.shape[1] < 2:
            raise ValueError("need at least 2 samples")
        term = np.asarray(() if self.terminal is None else self.terminal, complex).ravel()
        if self.terminal is not None and term.size != vals.shape[0]:
            raise ValueError(f"{term.size} terminal entries, not n_channels = {vals.shape[0]}")
        if self._scan and not (np.isfinite(vals).all() and np.isfinite(term).all()):
            raise ValueError("signal contains non-finite values")
        if not 0 < self.length < np.inf:
            raise ValueError("record length must be finite and positive")
        # views: the caller's arrays keep their flag
        vals, term = _read_only((vals.view(), term.view()))
        object.__setattr__(self, "values", vals)
        if self.terminal is not None:
            object.__setattr__(self, "terminal", term)

    @property
    def num_samples(self) -> int:
        return self.values.shape[1]

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    @property
    def sample_rate(self) -> float:
        return self.num_samples / self.length

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.num_samples) * (self.length / self.num_samples)


def _finite_signal(*args, **kwargs) -> Signal:
    """Signal(*args, **kwargs) for values already known to be finite (a
    record checked for blow-up, a slice of a Signal's values): the same
    constructor and checks, less the non-finite scan."""
    sig = object.__new__(Signal)
    object.__setattr__(sig, "_scan", False)
    sig.__init__(*args, **kwargs)
    object.__delattr__(sig, "_scan")
    return sig


@dataclass(frozen=True)
class Spectrum:
    """Per-frequency complex coefficient vectors.

    ``coeffs`` has shape (n_channels, n_bins); ``freqs`` holds the bin
    frequencies.
    """

    length: float
    coeffs: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[np.newaxis, :]
        object.__setattr__(self, "coeffs", coeffs)
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.shape != (coeffs.shape[1],):
            raise ValueError("freqs must match the coefficient bins")
        object.__setattr__(self, "freqs", freqs)


# 7 rates of a benchmark sweep fit with room to spare
@functools.lru_cache(maxsize=64)
def _grid(num_samples: int, length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DFT grid of N samples over T: the bin frequencies (fftfreq
    order), D = 2 pi i f and every bin's index, read-only and shared by
    every record of that (N, T)."""
    freqs = np.fft.fftfreq(num_samples, d=length / num_samples)
    return _read_only((freqs, 2j * np.pi * freqs, np.arange(num_samples)))


def fft_spectrum(signal: Signal) -> Spectrum:
    """Transform estimates on the full two-sided DFT grid (fftfreq order).

    Bins above N/2 represent negative frequencies; for complex records these
    carry information independent of the non-negative bins, and the
    identification pipeline fits over all of them.  coeff_k =
    (T/N) sum_j s_j exp(-2 pi i k j / N), the trapezoid/DFT estimate of the
    transform, scaled in place; the frequencies are the read-only ones
    ``_grid`` shares per (N, T).
    """
    N = signal.num_samples
    coeffs = np.fft.fft(signal.values, axis=-1)
    coeffs *= signal.length / N
    return Spectrum(length=signal.length, coeffs=coeffs, freqs=_grid(N, signal.length)[0])


def apply_window(signal, table, k_max=0) -> Signal:
    """The products w^(k) s for k = 0..k_max, stacked as consecutive channel
    blocks of one Signal.  Row k of the table is d^k w/ds^k (s = t/T); the
    factor T^-k makes it d^k w/dt^k.  The output carries no terminal sample.
    Records on one grid and their k_max, as two sequences, stack in turn
    into one buffer of the first record's T: one finiteness scan, one FFT.
    """
    if isinstance(signal, Signal):
        signal, k_max = (signal,), (k_max,)
    pairs = list(zip(signal, k_max, strict=True))
    n = table.num_samples
    for rec, k in pairs:
        if rec.num_samples != n:
            raise ValueError(f"window table has {n} samples, signal has {rec.num_samples}")
        if not 0 <= k <= table.max_deriv:
            raise ValueError(f"table holds derivatives 0 to {table.max_deriv}, not 0 to {k}")
    out = np.empty((sum((k + 1) * rec.num_channels for rec, k in pairs), n), dtype=complex)
    start = 0
    for rec, k in pairs:
        scale = rec.length ** -np.arange(k + 1, dtype=float)[:, None]
        block = out[start:start + (k + 1) * rec.num_channels]
        np.multiply((table.samples[:k + 1] * scale)[:, None, :], rec.values,
                    out=block.reshape(k + 1, rec.num_channels, -1))
        start += len(block)
    return Signal(length=pairs[0][0].length, values=out)
