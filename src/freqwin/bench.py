"""Benchmark orchestration: the reference experiment and its sweeps.

The reference setup is a first-order system with n_x = n_u = 5 driven by 85
complex tones uniformly spaced on [1, 20*sqrt(2)] Hz, integrated with RK4 at
a fine rate every swept sampling rate divides, then decimated.  The record
length T = 1 s is a benchmark convention that makes the bin spacing 1 Hz.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .identify import (EstimateReport, ModelParams, ModelStructure,
                       identify_from_signals, residual_spectrum)
from .metrics import SweepResult, error_norms, param_error
from .simulate import (INPUT_NOISE_OFFSET, ForcingSpec, SimConfig, add_noise, integrate_rk4,
                       multisine, random_system, resample, sample_forcing)
from .spectral import Signal
from .windows import WindowSpec

REF_STRUCTURE = ModelStructure(n_x=5, n_u=5, n_a=1, n_b=0)
REF_NUM_TONES = 85
REF_F_MIN = 1.0
REF_F_MAX = 20.0 * math.sqrt(2.0)
REF_LENGTH = 1.0
REF_FINE_RATE = 184320  # samples/s; every benchmark f_s divides it
REF_SEED = 42
REF_FS = 80.0


def check_rate(f_s: float, fine_rate: float) -> None:
    """ValueError unless f_s is a rate a record sampled at fine_rate decimates to."""
    if not 0 < f_s <= fine_rate:  # NaN included
        raise ValueError(f"f_s = {f_s:g} must be in (0, fine rate {fine_rate:g}]")


@dataclass(frozen=True)
class Dataset:
    """A simulated record pair with its ground truth."""

    x: Signal
    u: Signal
    theta_true: ModelParams
    forcing: ForcingSpec
    seed: int

    def decimated(self, f_s: float, sigma: float = 0.0,
                  trial: int = 0) -> tuple[Signal, Signal]:
        """The records at f_s plus noise of standard deviation sigma: the
        state record draws noise trial ``trial``, the input record
        ``trial + INPUT_NOISE_OFFSET``."""
        check_rate(f_s, self.x.sample_rate)
        n = f_s * self.x.length
        if abs(n - round(n)) > 1e-9:
            raise ValueError("f_s * T must be an integer sample count")
        n = int(round(n))
        return (add_noise(resample(self.x, n), sigma, self.seed, trial),
                add_noise(resample(self.u, n), sigma, self.seed,
                          trial + INPUT_NOISE_OFFSET))


def reference_dataset(seed: int = REF_SEED, length: float = REF_LENGTH,
                      fine_rate: int = REF_FINE_RATE,
                      structure: ModelStructure = REF_STRUCTURE) -> Dataset:
    """Simulate the reference experiment at the fine rate."""
    if not math.isfinite(length):
        raise ValueError(f"record length must be finite, not {length}")
    theta = random_system(structure, seed)
    forcing = multisine(REF_NUM_TONES, REF_F_MIN, REF_F_MAX, seed,
                        n_channels=structure.n_u)
    try:
        steps = fine_rate * length
    except OverflowError:  # an integer rate beyond float range
        raise ValueError(f"fine rate {fine_rate} is too large for a float step count") from None
    record_bytes = 16.0 * (structure.n_x + structure.n_u) * (steps + 1)  # complex x, u
    too_big = (f"record length {length} needs {steps:.6g} steps at fine rate {fine_rate} "
               f"and {record_bytes:.3g} bytes of records, more than memory holds")
    if record_bytes > sys.maxsize:  # beyond numpy's index range
        raise ValueError(too_big)
    n_fine = int(round(steps))
    if n_fine < 1:
        raise ValueError(f"fine rate {fine_rate} gives no samples over length {length}")
    config = SimConfig(structure=structure, dt=length / n_fine, length=length,
                       seed=seed)
    try:
        x = integrate_rk4(theta, forcing, config)
        u = sample_forcing(forcing, length, n_fine)
    except MemoryError:
        raise ValueError(too_big) from None
    return Dataset(x=x, u=u, theta_true=theta, forcing=forcing, seed=seed)


def parse_window(text: str) -> WindowSpec:
    """Parse 'cinf:4', 'sin:2', 'rect', 'poly:6' style window names."""
    text = text.strip().lower()
    if text in ("rect", "rectangular"):
        return WindowSpec(family="rectangular")
    if ":" not in text:
        raise ValueError(f"window spec {text!r} should look like 'sin:2' or 'cinf:4'")
    fam, order = text.split(":", 1)
    fam = {"sin": "sin", "cinf": "cinf", "poly": "poly_ref",
           "poly_ref": "poly_ref"}.get(fam)
    if fam is None:
        raise ValueError(f"unknown window family in {text!r}")
    return WindowSpec(family=fam, order=float(order))


def estimate(dataset: Dataset, f_s: float, method: str | None = None,
             window: WindowSpec | None = None, n_p: int = 0,
             sigma: float = 0.0, noise_trial: int = 0) -> EstimateReport:
    """Identify from the records at f_s (no window is the rectangular one).
    The window and ``n_p`` pick the method; ``method``, if given, must name
    the one they pick."""
    window = window or WindowSpec("rectangular")
    x, u = dataset.decimated(f_s, sigma, noise_trial)
    report = identify_from_signals(x, u, dataset.theta_true.structure,
                                   window_spec=window, n_p=n_p)
    if method is not None and method != report.method:
        raise ValueError(f"method {method!r} disagrees with window {window.label} and "
                         f"n_p = {n_p}, which select {report.method!r}")
    return report


def sweep_rates(dataset: Dataset, rates, method: str | None = None,
                window: WindowSpec | None = None, n_p: int = 0,
                probe_freq: float = 2.0) -> list[SweepResult]:
    """Identify at every sampling rate; also evaluates the true-parameter
    equation residual on the regression the estimate solved, whose decay
    reflects the window class directly.  The probe norm is ||e(f)|| at the
    bin nearest ``probe_freq``, which must lie within half a bin (0.5 / T)
    of it.  Rows carry the method that ran."""
    window = window or WindowSpec("rectangular")
    out = []
    for f_s in rates:
        report = estimate(dataset, f_s, method, window, n_p=n_p)
        resid = residual_spectrum(dataset.theta_true, report.regression)
        norms, l2 = error_norms(resid)
        dist = np.abs(resid.freqs - probe_freq)
        if not dist.min() <= 0.5 / resid.length:
            raise ValueError(f"probe frequency {probe_freq} is outside the residual's band")
        out.append(SweepResult(
            swept_value=f_s, method=report.method, window=window.label,
            residual_probe=float(norms[np.argmin(dist)]),
            residual_l2=l2,
            param_error=param_error(dataset.theta_true, report.theta_hat),
            wall_time=report.wall_time,
        ))
    return out


def monte_carlo(dataset: Dataset, f_s: float, sigma: float, trials: int,
                window: WindowSpec | None, n_p: int = 0) -> list[EstimateReport]:
    """Seeded noise-corrupted re-estimations of one dataset (trial k uses
    the documented noise sub-stream k)."""
    return [estimate(dataset, f_s, window=window, n_p=n_p, sigma=sigma,
                     noise_trial=k)
            for k in range(trials)]
