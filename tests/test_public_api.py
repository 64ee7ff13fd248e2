"""The package's public names, pinned: the design aim is that they go down,
so a change that adds or drops one edits this list and says why.  The
fields an estimate stores are pinned too: every diagnostic is computed
from them on read, so storing one again edits this list and says why.  So
are the module-level caches, each a concept of its own: a new one edits
this list and says why."""

import dataclasses
import importlib
import pkgutil
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


def test_estimate_report_stores_the_solve_only():
    names = [f.name for f in dataclasses.fields(freqwin.EstimateReport)]
    assert names == ["theta_hat", "wall_time", "regression", "solution"]


CACHES = ["_chirp_plan", "_envelope", "_grid", "_leggauss", "_phase_tables",
          "_poly_block", "_strict_lower", "_window_table"]


def test_module_level_caches_are_pinned():
    # a cache imported into another module (``_grid``) is counted once
    caches = {}
    for info in pkgutil.iter_modules(freqwin.__path__):
        module = importlib.import_module(f"freqwin.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                caches[id(value)] = name
    assert sorted(caches.values()) == CACHES  # 8 caches
