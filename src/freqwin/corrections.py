"""Modulated spectra and the windowing correction terms (the "spurious inputs").

Multiplying a record by a window w before transforming breaks the usual
derivative rule: D(f)^i F(w x) differs from F(w d^i x/dt^i), with
D(f) = 2 pi i f.  Integrating by parts i times (the adjoint Leibniz rule)
moves every derivative onto the window:

    F(w x^(i)) = sum_{k=0..i} (-1)^k C(i,k) D^(i-k) X_k,   X_k = F(w^(k) x).

This is the modulating-function integral (Shinbrot 1957) with w as the
modulating function, and it needs no time derivative of the sampled signal:
only the transforms X_k of the record multiplied by the window-derivative
rows of a ``WindowTable``.  The correction of order n is the gap

    x^{n} = D^n X_0 - F(w x^(n))
          = sum_{k=1..n} (-1)^(k+1) C(n,k) D^(n-k) X_k,

which in the time domain is sum_{k=1..n} C(n,k) w^(k) x^(n-k).
``spectral.apply_window`` stacks the copies w^(k) x, k = 0..K, as channel
blocks of one Signal, so all of them go through one FFT; ``modulated_row``
forms the binomial sums from the transformed stack.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .spectral import Signal, Spectrum, _grid, apply_window, fft_spectrum
from .windows import WindowTable


def modulated_row(stack: np.ndarray, D: np.ndarray, i: int,
                  k_min: int = 0) -> np.ndarray:
    """sum_{k=k_min..min(i, K)} (-1)^k C(i,k) D^(i-k) stack[k].

    ``stack[k]`` is X_k = F(w^(k) s) on the bins of ``D`` (K + 1 entries).
    With k_min = 0 and K >= i this is F(w s^(i)); with k_min = 1 it is minus
    the correction s^{i}.
    """
    row = None
    for k in range(k_min, min(i, len(stack) - 1) + 1):
        term = (-1) ** k * comb(i, k) * stack[k] if k else stack[0]
        if k < i:
            term = (D if k == i - 1 else D ** (i - k)) * term
        row = term if row is None else row + term
    return row


def correction_spectra(signal: Signal, table: WindowTable,
                       j_max: int) -> tuple[Spectrum, ...]:
    """Correction spectra x^{1}..x^{j_max} on the two-sided DFT grid.

    These are the paper's "additional terms": the spectra that, subtracted
    from D^n F(w x), leave F(w d^n x/dt^n).  One transform of the modulated
    stack serves every order.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if j_max == 0:
        return ()
    spec = fft_spectrum(apply_window(signal, table, j_max))
    stack = spec.coeffs.reshape(j_max + 1, signal.num_channels, -1)
    D = _grid(signal.num_samples, signal.length)[1]
    return tuple(
        Spectrum(length=signal.length, coeffs=-modulated_row(stack, D, n, k_min=1),
                 freqs=spec.freqs)
        for n in range(1, j_max + 1)
    )
