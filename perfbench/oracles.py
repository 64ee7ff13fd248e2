"""Reference results the benchmark checks freqwin's outputs against.

Nothing here imports freqwin: each oracle recomputes its result from the
problem's inputs by another method, so an error in the code under test
cannot hide in a shared helper.

- ``ode_solution``: the forced linear ODE solved in closed form (modal
  decomposition plus one particular solution per tone), not by RK4.
- ``cinf_derivatives``: derivatives of the ``cinf`` bump at 50 digits with
  mpmath, not through the float rational prefactors.
- ``window_transform``: the continuous window transform by composite
  Gauss-Legendre quadrature, not by a zero-padded FFT.
- ``first_order_fit``: the first-order (n_a = 1, n_b = 0) windowed
  regression built from closed-form window derivatives and solved with
  ``lstsq``, not with the package's SVD pseudo-inverse; the polynomial
  nuisance rows use a Legendre basis, which spans the same space as the
  package's Chebyshev rows.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# sub-stream ids of the documented Philox noise scheme: trial k of a record
# pair draws the state noise from component 1000 + k and the input noise
# from component 1000 + k + 500000 of the dataset's root seed
NOISE_COMPONENT = 1000
INPUT_TRIAL_OFFSET = 500000


def ode_solution(A0: np.ndarray, B0: np.ndarray, amplitudes: np.ndarray,
                 freqs: np.ndarray, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x(t) of x' + A0 x = B0 u(t), u = sum_j a_j exp(2 pi i f_j t), x(0) = x0.

    The forced response of tone j is p_j exp(i w_j t) with
    p_j = (i w_j I - A)^-1 B0 a_j and A = -A0; the free response carries the
    rest of the initial state through the eigendecomposition of A.
    """
    A = -np.asarray(A0, dtype=float)
    n = A.shape[0]
    omega = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    drive = np.asarray(B0, dtype=float) @ np.asarray(amplitudes, dtype=complex)
    particular = np.stack(
        [np.linalg.solve(1j * w * np.eye(n) - A, drive[:, j])
         for j, w in enumerate(omega)], axis=1)
    lam, V = np.linalg.eig(A)
    modal = np.linalg.solve(V, np.asarray(x0, dtype=complex) - particular.sum(axis=1))
    t = np.asarray(t, dtype=float)
    free = V @ (modal[:, None] * np.exp(np.outer(lam, t)))
    return free + particular @ np.exp(1j * np.outer(omega, t))


def multisine_values(amplitudes: np.ndarray, freqs: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
    """u(t) = sum_j a_j exp(2 pi i f_j t), one row per channel."""
    return np.einsum("cj,jt->ct", np.asarray(amplitudes, dtype=complex),
                     np.exp(2j * np.pi * np.outer(freqs, t)))


def cinf_derivatives(order: float, t: np.ndarray, max_deriv: int,
                     dps: int = 50) -> np.ndarray:
    """d^k/dt^k exp(4n - n / (t (1 - t))) for k = 0..max_deriv on T = 1,
    at the exact binary value of each float t, to ``dps`` digits."""
    out = np.empty((max_deriv + 1, len(t)))
    with mpmath.workdps(dps):
        n = mpmath.mpf(order)

        def bump(s):
            return mpmath.exp(4 * n - n / (s * (1 - s)))

        for j, tj in enumerate(t):
            coeffs = mpmath.taylor(bump, mpmath.mpf(float(tj)), max_deriv)
            for k in range(max_deriv + 1):
                out[k, j] = float(coeffs[k] * mpmath.factorial(k))
    return out


def _cinf(order: float, t: np.ndarray, deriv: int = 0) -> np.ndarray:
    """The cinf bump (deriv 0) or its first derivative on T = 1, in floats."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    s = t[inside]
    q = s * (1.0 - s)
    w = np.exp(4.0 * order - order / q)
    out[inside] = w if deriv == 0 else w * order * (1.0 - 2.0 * s) / q**2
    return out


def _sin(order: int, t: np.ndarray, deriv: int = 0) -> np.ndarray:
    """sin^n(pi t) (deriv 0) or its first derivative on T = 1."""
    a = np.pi * np.asarray(t, dtype=float)
    if deriv == 0:
        return np.sin(a) ** order
    return order * np.pi * np.sin(a) ** (order - 1) * np.cos(a)


def window_rows(label: str, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, w') of a 'sin:n' or 'cinf:n' window of length 1 on the times t."""
    family, order = label.split(":")
    if family == "sin":
        return _sin(int(order), t), _sin(int(order), t, 1)
    if family == "cinf":
        return _cinf(float(order), t), _cinf(float(order), t, 1)
    raise ValueError(f"no closed form for window {label!r}")


def _gauss_panels(panels: int = 256, nodes: int = 32) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.arange(panels)[:, None] / panels
    t = (edges + (x[None, :] + 1.0) / (2 * panels)).ravel()
    return t, np.tile(w / (2 * panels), panels)


def window_transform(order: float, deriv: int,
                     freqs: np.ndarray) -> tuple[np.ndarray, float]:
    """(|W_k(f)|, area of w) of the cinf window on T = 1 by composite
    quadrature, W_k(f) = int w^(k)(t) exp(-2 pi i f t) dt for k = 0, 1.

    The derivative is integrated directly: forming 2 pi f W(f) instead would
    scale the quadrature's rounding floor by f.
    """
    t, weights = _gauss_panels()
    wk = _cinf(order, t, deriv) * weights
    W = np.exp(-2j * np.pi * np.outer(freqs, t)) @ wk
    return np.abs(W), float((_cinf(order, t) * weights).sum())


def documented_noise(shape: tuple[int, int], sigma: float, seed: int,
                     trial: int) -> np.ndarray:
    """Measurement noise of trial ``trial`` drawn as documented by freqwin:
    Philox keyed ``seed * 2**32 + component``, real then imaginary parts."""
    key = seed * 2**32 + NOISE_COMPONENT + trial
    rng = np.random.Generator(np.random.Philox(key=key))
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _legendre_rows(freqs: np.ndarray, n_p: int) -> np.ndarray:
    scale = np.abs(freqs).max()
    return np.polynomial.legendre.legvander(freqs / scale, n_p - 1).T


def first_order_fit(x: np.ndarray, u: np.ndarray, length: float,
                    window: str | None, n_p: int) -> dict:
    """Least-squares fit of x' + A0 x = B0 u from windowed records.

    Per two-sided DFT bin f, with D = 2 pi i f and F the transform estimate
    (T/N) * DFT: L1 = D F(w x) - F(w' x) (no window: D F(x)), and
    A0 F(w x) - B0 F(w u) [+ polynomial nuisance terms] = -L1.
    Returns the real parts of A0 and B0, the norm of their imaginary parts,
    the fit residual's L2 norm, and L1, F(w x), F(w u) and the bin
    frequencies for ``true_residual``.
    """
    n_x, N = x.shape
    n_u = u.shape[0]
    freqs = np.fft.fftfreq(N, d=length / N)
    D = 2j * np.pi * freqs
    scale = length / N
    if window is None:
        X = np.fft.fft(x, axis=1) * scale
        U = np.fft.fft(u, axis=1) * scale
        L1 = D * X
    else:
        t = np.arange(N) * (length / N)
        w, dw = window_rows(window, t / length)
        dw = dw / length
        X = np.fft.fft(w * x, axis=1) * scale
        U = np.fft.fft(w * u, axis=1) * scale
        L1 = D * X - np.fft.fft(dw * x, axis=1) * scale
    rows = [X, -U]
    if n_p > 0:
        rows.append(_legendre_rows(freqs, n_p))
    M2 = np.vstack(rows)
    theta2 = np.linalg.lstsq(M2.T, -L1.T, rcond=None)[0].T
    fit = np.sqrt((np.abs(theta2 @ M2 + L1) ** 2).sum() / length)
    model = theta2[:, : n_x + n_u]
    return {
        "A0": model[:, :n_x].real, "B0": model[:, n_x:].real,
        "imag_norm": float(np.linalg.norm(model.imag)),
        "fit_l2": float(fit), "L1": L1, "X": X, "U": U, "freqs": freqs,
    }


def true_residual(fit: dict, A0: np.ndarray, B0: np.ndarray, length: float,
                  probe_freq: float) -> tuple[float, float]:
    """(L2 norm, norm at the bin nearest probe_freq) of the equation
    residual L1 + A0 F(w x) - B0 F(w u) at the true parameters."""
    resid = fit["L1"] + A0 @ fit["X"] - B0 @ fit["U"]
    norms = np.sqrt((np.abs(resid) ** 2).sum(axis=0))
    probe = norms[np.argmin(np.abs(fit["freqs"] - probe_freq))]
    return math.sqrt((norms**2).sum() / length), float(probe)


def param_distance(A0: np.ndarray, B0: np.ndarray, A0_ref: np.ndarray,
                   B0_ref: np.ndarray) -> float:
    """Frobenius distance between two (A0, B0) parameter sets."""
    return math.sqrt(np.linalg.norm(A0 - A0_ref) ** 2
                     + np.linalg.norm(B0 - B0_ref) ** 2)
