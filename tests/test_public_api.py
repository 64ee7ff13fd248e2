"""The package's public names, pinned: the design aim is that they go down,
so a change that adds or drops one edits this list and says why.  The
fields an estimate stores are pinned too: every diagnostic is computed
from them on read, so storing one again edits this list and says why.  So
are the module-level caches, each a concept of its own: a new one edits
this list and says why.  Their callers share what they return, so every
array in it is read-only.  So is where an array is made read-only: one
function, ``spectral._read_only``, freezes every shared array, so a new
freeze site edits that pin and says why."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import numpy as np

import freqwin
from freqwin import WindowSpec, WindowTable, spectral

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
    assert names == ["wall_time", "regression", "solution"]


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


# small valid arguments per cache (``_envelope`` has no small ones: its
# spectra always span the f_err search range)
CACHE_ARGS = {
    "_chirp_plan": (8, 2, 16),
    "_envelope": (WindowSpec("sin", 1), 0),
    "_grid": (8, 1.0),
    "_leggauss": (4,),
    "_phase_tables": (np.array([1.0, 2.0]).tobytes(), 1e-3, 2),
    "_poly_block": (np.arange(-4.0, 4.0).tobytes(), 3),
    "_strict_lower": ((3, 4),),
    "_window_table": (WindowSpec("sin", 2), 16, 2),
}


def arrays_in(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, WindowTable):
        return [value.samples]
    if isinstance(value, tuple):
        return [a for entry in value for a in arrays_in(entry)]
    return []


def test_every_cache_hands_out_read_only_arrays():
    # every caller shares what a cache returns; ``__wrapped__`` builds it
    # without filling the cache under test (two caches of one name are the
    # pin's to catch)
    caches = {}
    for info in pkgutil.iter_modules(freqwin.__path__):
        module = importlib.import_module(f"freqwin.{info.name}")
        caches.update((name, value) for name, value in vars(module).items()
                      if hasattr(value, "cache_info"))
    assert sorted(caches) == sorted(CACHE_ARGS) == CACHES
    for name, args in CACHE_ARGS.items():
        out = arrays_in(caches[name].__wrapped__(*args))
        assert out, name
        assert not any(a.flags.writeable for a in out), name


def test_arrays_are_frozen_in_one_function():
    # every flag is cleared on the one line of spectral._read_only that the
    # pattern finds
    lines, start = inspect.getsourcelines(spectral._read_only)
    sites = [(path.stem, number)
             for path in sorted(Path(spectral.__file__).parent.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\.flags\.writeable\s*=(?!=)|\.setflags\(", line)]
    assert len(sites) == 1
    (module, number), = sites
    assert module == "spectral" and start <= number < start + len(lines)
