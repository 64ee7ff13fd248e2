"""The sweep row, error norms, parameter error and ensemble statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identify import ModelParams
from .spectral import Spectrum


@dataclass(frozen=True)
class SweepResult:
    """One row of a sampling-rate (or ensemble-size) sweep."""

    swept_value: float
    method: str
    window: str
    residual_probe: float  # ||e(f_probe)||
    residual_l2: float  # ||E||
    param_error: float
    wall_time: float


def error_norms(residual: Spectrum) -> tuple[np.ndarray, float]:
    """Per-frequency Euclidean norms over channels and the L2 norm
    sqrt(sum ||e(f_k)||^2 / T) (rectangle rule over the bins)."""
    norms = np.sqrt((np.abs(residual.coeffs) ** 2).sum(axis=0))
    l2 = float(np.sqrt((norms**2).sum() / residual.length))
    return norms, l2


def param_error(theta_true: ModelParams, theta_hat: ModelParams) -> float:
    """Frobenius norm of the stacked free-parameter difference
    (the fixed A_{n_a} block is excluded)."""
    if theta_true.structure != theta_hat.structure:
        raise ValueError(f"model structures differ: {theta_true.structure} "
                         f"and {theta_hat.structure}")
    return float(np.linalg.norm(theta_true.free_stack() - theta_hat.free_stack()))


def ensemble_stats(reports, theta_true: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-mean estimation error and parameter spread versus K.

    Entry K-1 of the first curve is || mean_{k<=K} theta_k - theta_true ||
    over the free parameters; the second curve aggregates the elementwise
    standard deviation over the first K trials into a Frobenius norm.
    Ordering is the caller's trial order (seed order by convention).
    """
    stacks = np.array([r.theta_hat.free_stack() for r in reports])
    if stacks.size == 0:
        raise ValueError("need at least one report")
    truth = theta_true.free_stack()
    n = stacks.shape[0]
    cum_mean = np.cumsum(stacks, axis=0) / np.arange(1, n + 1)[:, None]
    err_curve = np.linalg.norm(cum_mean - truth, axis=1)
    std_curve = np.empty(n)
    for k in range(n):
        std_curve[k] = np.linalg.norm(stacks[: k + 1].std(axis=0, ddof=0))
    return err_curve, std_curve
