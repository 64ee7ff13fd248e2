"""Time-domain oracle for the windowing corrections.

Forms x^{j}(t) = sum_{k=1..j} C(j,k) w^(k)(t) x^(j-k)(t) directly from
high-order finite differences of an oversampled record.  It shares no code
with the frequency-domain path in ``freqwin.corrections``: no transform and
no binomial sum over spectra, only the window table's derivative rows.
"""

from __future__ import annotations

from math import comb

import numpy as np

from freqwin import Signal, WindowTable


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
    path by construction.
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
