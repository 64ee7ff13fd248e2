"""Frequency-domain identification of linear ODE systems from windowed
signals, with the windowing correction terms computed rather than estimated."""

from .corrections import correction_spectra
from .identify import (EstimateReport, ModelParams, ModelStructure,
                       RankDeficiencyError, RegressionSystem, build_regression,
                       identify_from_signals, residual_spectrum, solve_ls)
from .metrics import SweepResult, ensemble_stats, error_norms, param_error
from .simulate import (ForcingSpec, SimConfig, add_noise, integrate_rk4,
                       multisine, random_system, resample, rng_for,
                       sample_forcing)
from .spectral import Signal, Spectrum, apply_window, fft_spectrum
from .windows import (WindowSpec, WindowTable, f_err, overlap_variance,
                      window_area, window_spectrum, window_table, window_value)

__version__ = "0.1.0"
