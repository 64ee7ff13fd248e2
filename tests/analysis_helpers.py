"""Analysis helpers the tests share and the package does not need.

``loglog_slope`` fits the decay slopes that criteria 3 and 9 and the sweep
tests gate; its confidence half-width takes one Student-t quantile from
scipy, which is a test dependency only.  ``lowpass_filter`` is the
zero-phase pre-filter of the out-of-band demonstration in the sweep tests.
"""

from __future__ import annotations

import numpy as np
from scipy.special import stdtrit

from freqwin import Signal


def loglog_slope(xs, ys) -> tuple[float, float]:
    """OLS slope of log y against log x with a t-based 95 % CI half-width."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching arrays with at least 2 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    design = np.vstack([np.ones_like(lx), lx]).T
    coef, res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope = float(coef[1])
    dof = xs.size - 2
    if dof <= 0:
        return slope, np.inf
    fitted = design @ coef
    s2 = float(((ly - fitted) ** 2).sum() / dof)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    se = np.sqrt(s2 / sxx) if sxx > 0 else np.inf
    half = float(stdtrit(dof, 0.975) * se)  # Student-t 97.5 % quantile
    return slope, half


def lowpass_filter(signal: Signal, cutoff: float) -> Signal:
    """Zero-phase spectral truncation: FFT, zero bins with |f| > cutoff, inverse.

    Filtering commutes with the system equations, so identification may be
    run on filtered records to suppress fold-back of true signal content
    above the Nyquist frequency.
    """
    N = signal.num_samples
    if cutoff >= N / (2.0 * signal.length):
        raise ValueError("cutoff must be below the Nyquist frequency")
    freqs = np.fft.fftfreq(N, d=signal.length / N)
    spec = np.fft.fft(signal.values, axis=-1)
    spec[:, np.abs(freqs) > cutoff] = 0.0
    return Signal(length=signal.length, values=np.fft.ifft(spec, axis=-1))
