"""Synthetic benchmark generation: random systems, multisine forcing, RK4.

All randomness flows through the counter-based Philox (4x64-10) bit
generator so streams are reproducible across platforms; sub-streams are
keyed as ``root_seed * 2^32 + component`` with documented component ids,
so a root seed must lie in [0, 2^96).

The integrator is classical fixed-step RK4 specialized to the linear system
dz/dt = A z + c(t).  Its step recurrence z_{n+1} = phi z_n + G_n is solved
in closed form for the multisine drive and evaluated on the whole uniform
grid in a few vectorised products, so no rounding accumulates over ~1e5
sequential steps.  The tone sum is written into the state record in BLAS
products of at most 1 024 (row, block) pairs and the homogeneous part is
added in the same slices, so neither a second record-sized array nor the
whole per-block operand is formed.  The phase tables depend only on the
tone grid and the step, so the state and input records of one dataset
share one read-only build at any length, kept for a caller that simulates
several datasets of one design.  Resonance is checked exactly only for
tones Weyl's inequality cannot clear, and the state record and its
decimating slices are scanned for non-finite values once.
``ForcingSpec.evaluate`` serves arbitrary times.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .identify import ModelParams, ModelStructure
from .spectral import Signal, _finite_signal

COMPONENT_SYSTEM = 1
COMPONENT_FORCING = 2
COMPONENT_INIT = 3
COMPONENT_NOISE = 1000  # plus trial index
INPUT_NOISE_OFFSET = 500000  # input records draw trial + this, states trial

# spectral-abscissa window for accepted random dynamics (see random_system)
EIG_REAL_MIN = -25.0
EIG_REAL_MAX = 5.0

_BLOCK = 256  # grid sample qB + m = per-block factor (q) x in-block factor (m)
# resolvent condition past which a tone's particular solution keeps fewer
# than ~8 correct digits: the tone counts as resonant
_RESONANCE_COND = 1e-8 / np.finfo(float).eps


def rng_for(root_seed: int, component: int) -> np.random.Generator:
    """Philox generator for a documented (root seed, component) pair."""
    root_seed = operator.index(root_seed)  # a numpy integer would wrap below
    if not 0 <= root_seed < 2**96:
        raise ValueError(f"seed {root_seed} must be in [0, 2**96)")
    return np.random.Generator(np.random.Philox(key=root_seed * 2**32 + component))


@dataclass(frozen=True)
class ForcingSpec:
    """Complex multisine u(t) = sum_j a_j exp(2 pi i f_j t) per channel."""

    amplitudes: np.ndarray  # (n_channels, n_tones)
    freqs: np.ndarray  # strictly increasing, Hz

    def __post_init__(self):
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=complex))
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValueError("need at least one tone")
        if not (np.isfinite(freqs).all() and np.isfinite(amps).all()):
            raise ValueError("tone frequencies and amplitudes must be finite")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("tone frequencies must be strictly increasing")
        if amps.shape[1] != freqs.size:
            raise ValueError("one amplitude per channel per tone required")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "freqs", freqs)

    @property
    def num_tones(self) -> int:
        return self.freqs.size

    @property
    def num_channels(self) -> int:
        return self.amplitudes.shape[0]

    def evaluate(self, t, deriv: int = 0) -> np.ndarray:
        """u^(deriv)(t), analytic; shape (n_channels, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        om = 2j * np.pi * self.freqs
        phases = np.exp(np.outer(om, t))
        return (self.amplitudes * om[np.newaxis, :] ** deriv) @ phases


def multisine(n_f: int, f_min: float, f_max: float, seed: int,
              n_channels: int = 1) -> ForcingSpec:
    """Uniformly spaced tones on [f_min, f_max] with seeded complex amplitudes
    (real and imaginary parts standard normal)."""
    if n_f < 1:
        raise ValueError("need at least one tone")
    if n_f == 1 and f_max != f_min:
        raise ValueError("a single tone needs f_min == f_max")
    freqs = np.linspace(f_min, f_max, n_f)
    rng = rng_for(seed, COMPONENT_FORCING)
    amps = rng.standard_normal((n_channels, n_f)) + 1j * rng.standard_normal((n_channels, n_f))
    return ForcingSpec(amplitudes=amps, freqs=freqs)


@dataclass(frozen=True)
class SimConfig:
    """Integration setup: step dt over [0, T]."""

    structure: ModelStructure
    dt: float
    length: float
    seed: int = 0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.length <= 0:
            raise ValueError("dt and length must be positive")
        steps = self.length / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError("dt must divide the record length")
        if self.x0 is not None and not np.isfinite(np.asarray(self.x0, dtype=complex)).all():
            raise ValueError("x0 must be finite")

    @property
    def num_steps(self) -> int:
        return int(round(self.length / self.dt))


def random_system(structure: ModelStructure, seed: int) -> ModelParams:
    """Standard-normal coefficient matrices with A_{n_a} fixed to identity.

    The companion dynamics matrix is redrawn until every eigenvalue real
    part lies in [EIG_REAL_MIN, EIG_REAL_MAX], keeping records representable
    over O(1) horizons without biasing the typical draw (rejections are rare
    for the benchmark sizes).
    """
    rng = rng_for(seed, COMPONENT_SYSTEM)
    s = structure
    B = tuple(rng.standard_normal((s.n_x, s.n_u)) for _ in range(s.n_b + 1))
    while True:
        A_low = [rng.standard_normal((s.n_x, s.n_x)) for _ in range(s.n_a)]
        comp = _companion_matrix(A_low, s)
        ev = np.linalg.eigvals(comp)
        if EIG_REAL_MIN <= ev.real.min() and ev.real.max() <= EIG_REAL_MAX:
            break
    A = tuple(A_low) + (np.eye(s.n_x),)
    return ModelParams(structure=s, A=A, B=B)


def _companion_matrix(A_low, structure: ModelStructure) -> np.ndarray:
    """First-order dynamics matrix for z = [x, x', .., x^(n_a - 1)]."""
    n_x = structure.n_x
    comp = np.eye(structure.n_a * n_x, k=n_x)  # x^(i)' = x^(i+1)
    comp[-n_x:] = -np.hstack(A_low)
    return comp


def integrate_rk4(theta: ModelParams, forcing: ForcingSpec,
                  config: SimConfig) -> Signal:
    """Classical fixed-step RK4 state record of the forced linear ODE.

    Systems of derivative order n_a > 1 integrate in companion form (valid
    because A_{n_a} = I); input-derivative terms use the multisine's
    analytic derivatives.  A step is z_{n+1} = phi z_n + G_n with
    G_n = sum_j g_j r_j^n, r_j = exp(i w_j h), so the record is the exact
    solution z_n = phi^n (z_0 - sum_j p_j) + sum_j p_j r_j^n with
    (r_j I - phi) p_j = g_j.  A tone with a numerically singular r_j I - phi
    (resonance, screened by ``_near_resonance``) raises RuntimeError, as
    does an overflowing state; that check is the record's only finiteness
    scan.  The Signal carries x(T) as its terminal sample, for checks
    against the closed form and for the CSV's exact T; no estimate reads it.
    """
    s = theta.structure
    if config.structure != s:
        raise ValueError("config structure differs from the model's")
    if forcing.num_channels != s.n_u:
        raise ValueError("forcing channel count must match the input dimension")
    top_coeff, eye_x = theta.A[s.n_a], np.eye(s.n_x)  # exact I skips allclose's cost
    if not (np.array_equal(top_coeff, eye_x) or np.allclose(top_coeff, eye_x)):
        raise ValueError("integration assumes the normalization A_{n_a} = I")
    n_steps = config.num_steps
    h = config.length / n_steps
    dim = s.n_a * s.n_x
    if config.x0 is None:
        rng = rng_for(config.seed, COMPONENT_INIT)
        x0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        x0 = np.asarray(config.x0, dtype=complex)
        if x0.shape == (s.n_x,):
            x0 = np.concatenate([x0, np.zeros(dim - s.n_x)])
        if x0.shape != (dim,):
            raise ValueError(f"x0 must have companion dimension {dim}")

    # step matrices in long double; phi - I is summed without the identity
    # so that r_j I - phi = (r_j - 1) I - (phi - I) does not cancel
    hA = _companion_matrix(list(theta.A[: s.n_a]), s).astype(np.longdouble) * (
        np.longdouble(config.length) / n_steps)
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    eye = np.eye(dim, dtype=np.longdouble)
    phi_minus_eye = hA + hA2 / 2 + hA3 / 6 + hA3 @ hA / 24
    # weights of the drive (top-derivative block) at t_n, t_n + h/2, t_n + h
    psi_start, psi_mid, psi_end = (
        h * m[:, dim - s.n_x:].astype(float)
        for m in (eye / 6 + hA / 6 + hA2 / 12 + hA3 / 24,
                  2 * eye / 3 + hA / 3 + hA2 / 12, eye / 6))

    # drive d_j = sum_k B_k (i w_j)^k a_j, then p_j for the driven tones
    omega = 2 * np.pi * forcing.freqs
    drive = sum(theta.B[k] @ (forcing.amplitudes * (1j * omega) ** k)
                for k in range(s.n_b + 1))
    driven = np.any(drive != 0, axis=0)
    omega, drive = omega[driven], drive[:, driven]
    half = np.exp(0.5j * omega * h)  # r_j^(1/2)
    r_minus_one = 2j * np.sin(omega * h / 2) * half
    g = (psi_start @ drive + (psi_mid @ drive) * half
         + (psi_end @ drive) * (1 + r_minus_one))
    step_minus_eye = phi_minus_eye.astype(float)
    resolvent = r_minus_one[:, None, None] * np.eye(dim) - step_minus_eye
    near, cond = _near_resonance(resolvent, r_minus_one, step_minus_eye)
    failed = ~(cond < _RESONANCE_COND)
    if failed.any():
        j = np.argmax(failed)
        raise RuntimeError(f"tone f = {omega[near[j]] / (2 * np.pi):.6g} Hz is resonant "
                           f"with the RK4 step (resolvent condition {cond[j]:.3g})")
    p = np.linalg.solve(resolvent, g.T[:, :, None])[:, :, 0]

    # tone sum in a fresh (n_x, blocks, B) record, then the homogeneous part
    # phi^n w at n = qB + m as phi^m (phi^(qB) w) added in place
    n_blocks = -(-(n_steps + 1) // _BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _grid_tone_sum(p[:, : s.n_x].T, omega, h, n_blocks)
        powers = _orbit(eye + phi_minus_eye, eye, _BLOCK)
        w = (x0 - p.sum(axis=0)).astype(np.clongdouble)[:, None]
        starts = _orbit((eye + phi_minus_eye) @ powers[-1], w,
                        n_blocks)[:, :, 0].astype(complex)
        # x[a, qB + m] += sum_i starts[q, i] powers[m, a, i]: one GEMM per
        # state row in the tone sum's block runs, so no second record-sized
        # array is formed
        top = np.ascontiguousarray(powers[:, : s.n_x].astype(float).transpose(1, 2, 0))
        for rows, q in _block_slices(s.n_x, n_blocks):
            for a in range(s.n_x)[rows]:
                x[a, q] += starts[q] @ top[a]
    x = x.reshape(s.n_x, -1)[:, : n_steps + 1]
    x[:, 0] = x0[: s.n_x]  # exactly x0, not (x0 - sum p) + sum p
    # a row's mask at a time: a record's would set the peak beside the tables
    if not all(np.isfinite(row).all() for row in x.view(float)):
        blown = ~np.isfinite(x).all(axis=0)
        raise RuntimeError(f"state blew up near t = {np.argmax(blown) * h:.6g}")

    return _finite_signal(config.length, x[:, :n_steps], x[:, n_steps])


def _near_resonance(resolvent: np.ndarray, r_minus_one: np.ndarray,
                    step_minus_eye: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the tones whose resolvent (r_j - 1) I - (phi - I) Weyl's
    inequality cannot clear, and their exact condition numbers.

    The resolvent's singular values lie within ||phi - I||_2 of |r_j - 1|,
    so a tone with |r_j - 1| > 2 ||phi - I||_2 has condition below 3 and
    cannot reach _RESONANCE_COND (strictly: at phi = I, r_j = 1 gives a
    zero resolvent).  A NaN r_j takes the exact check, and so does every
    tone when phi - I is not finite.
    """
    bound = np.inf
    if np.isfinite(step_minus_eye).all():
        bound = 2 * np.linalg.norm(step_minus_eye, 2)
    near = np.flatnonzero(~(np.abs(r_minus_one) > bound))
    return near, np.linalg.cond(resolvent[near])


def _orbit(step: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    """step^n @ start for n < count, in about log2(count) batched products."""
    out = np.empty((count,) + start.shape, dtype=np.result_type(step, start))
    out[0] = start
    size = 1
    while size < count:
        k = min(size, count - size)
        out[size: size + k] = step @ out[:k]
        step = step @ step
        size *= 2
    return out


# (row, block) pairs of one tone-sum product: its left operand is then at
# most 1.4 MB at 85 tones, against 4.9 MB for the whole full-rate record
_PRODUCT_ROWS = 1024


@functools.lru_cache(maxsize=1)
def _phase_tables(omega_bytes: bytes, h: float,
                  n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """In-block phases exp(i w_j m h), m < B, and per-block phases
    exp(i w_j q B h), q < n_blocks, read-only: they depend on the tone grid
    (w as float64 bytes) and the step only, never on amplitudes or x0.

    The last grid's tables stay alive, tones x (B + n_blocks) x 16 bytes:
    at 85 tones and the full reference rate 1.3 MB for T = 1 s, 4.3 MB for
    T = 4 s and 98 MB for T = 100 s, beside a 14.7 MB, 59 MB and 1.47 GB
    state record."""
    omega = np.frombuffer(omega_bytes)
    in_block = np.exp(1j * np.outer(omega, np.arange(_BLOCK) * h))
    per_block = np.exp(1j * np.outer(omega, np.arange(n_blocks) * (_BLOCK * h)))
    in_block.flags.writeable = per_block.flags.writeable = False
    return in_block, per_block


def _block_slices(rows: int, n_blocks: int) -> list[tuple[slice, slice]]:
    """Slices (of rows, of blocks) that tile a rows x n_blocks grid in
    contiguous pieces of at most _PRODUCT_ROWS: several whole rows while
    they fit, else one row in runs of blocks."""
    per_product = _PRODUCT_ROWS // n_blocks
    if per_product:
        return [(slice(a, a + per_product), slice(None))
                for a in range(0, rows, per_product)]
    return [(slice(a, a + 1), slice(q, q + _PRODUCT_ROWS))
            for a in range(rows) for q in range(0, n_blocks, _PRODUCT_ROWS)]


def _grid_tone_sum(coeffs: np.ndarray, omega: np.ndarray, h: float,
                   n_blocks: int) -> np.ndarray:
    """sum_j coeffs[:, j] exp(i omega_j n h) for n < n_blocks B, as (rows,
    n_blocks, B): products of the per-block phases c_aj R[j, q] ((row,
    block) pairs x tones) and the in-block phases S[j, m] (tones x B), so
    the tones-by-samples phase matrix is never formed.  Each slice of
    ``_block_slices`` is one product written into its part of the record,
    so a sample is the same GEMM dot product however the grid is sliced.
    R and S come from ``_phase_tables``, so calls on one tone grid and step
    share one build."""
    in_block, per_block = _phase_tables(omega.tobytes(), h, n_blocks)
    rows, out = coeffs.shape[0], None
    for a, q in _block_slices(rows, n_blocks):
        part = np.multiply(coeffs[a, None, :], per_block.T[q], order="C")  # reshapes as a view
        if out is None:  # after the first operand: allocated before it, the
            # record cost a 7 680-step dataset 56 more page faults (+7 % time)
            out = np.empty((rows, n_blocks, _BLOCK), dtype=complex)
        np.matmul(part.reshape(part.shape[0] * part.shape[1], omega.size), in_block,
                  out=out[a, q].reshape(-1, _BLOCK))
        del part  # so that no two slices' operands coexist
    return out


def sample_forcing(forcing: ForcingSpec, length: float, num_samples: int) -> Signal:
    """Forcing record on the uniform grid, terminal sample included."""
    vals = _grid_tone_sum(forcing.amplitudes, 2 * np.pi * forcing.freqs,
                          length / num_samples, -(-(num_samples + 1) // _BLOCK))
    vals = vals.reshape(forcing.num_channels, -1)
    return Signal(length=length, values=vals[:, :num_samples],
                  terminal=vals[:, num_samples])


def add_noise(signal: Signal, sigma: float, seed: int, trial: int = 0) -> Signal:
    """White Gaussian noise, standard deviation sigma per real/imag part."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, not {sigma}")
    if sigma == 0.0:
        return signal
    rng = rng_for(seed, COMPONENT_NOISE + trial)
    shape = signal.values.shape
    noise = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    term = None
    if signal.terminal is not None:
        nt = sigma * (rng.standard_normal(signal.num_channels)
                      + 1j * rng.standard_normal(signal.num_channels))
        term = signal.terminal + nt
    return Signal(length=signal.length, values=signal.values + noise, terminal=term)


def resample(signal: Signal, target_num: int) -> Signal:
    """Exact decimation by an integer stride; at stride 1 the record itself
    (a Signal is read-only)."""
    if target_num < 2:
        raise ValueError("target sample count must be >= 2")
    stride, rem = divmod(signal.num_samples, target_num)
    if rem != 0:
        raise ValueError(
            f"cannot decimate {signal.num_samples} samples to {target_num}: "
            "non-integer stride"
        )
    if stride == 1:
        return signal
    return _finite_signal(signal.length, signal.values[:, ::stride], signal.terminal)
