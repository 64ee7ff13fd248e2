"""The package's public names, pinned: the design aim is that they go down,
so a change that adds or drops one edits this list and says why."""

import types

import freqwin

PUBLIC_NAMES = [
    "EstimateReport", "ForcingSpec", "ModelParams", "ModelStructure",
    "RankDeficiencyError", "RegressionSystem", "Signal", "SimConfig",
    "Spectrum", "SweepResult", "WindowSpec", "WindowTable", "add_noise",
    "apply_window", "build_regression", "correction_spectra", "ensemble_stats",
    "error_norms", "f_err", "fft_spectrum", "identify_from_signals",
    "integrate_rk4", "multisine", "overlap_variance", "param_error",
    "random_system", "resample", "residual_spectrum", "rng_for",
    "sample_forcing", "solve_ls", "window_area", "window_spectrum",
    "window_table", "window_value",
]


def test_public_names_are_pinned():
    # submodules (freqwin.bench, freqwin.identify, ..) are not counted
    names = sorted(name for name, value in vars(freqwin).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES  # 35 names
