"""Machine-speed probe: scales measured times to a fixed reference speed.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within seconds (on a 2-core x86 VM, the same op measured
1.4 ms and 2.8 ms a few seconds apart).  A fixed calibration kernel -- FFT,
thin SVD, elementwise complex arithmetic, a transcendental over a 256 KiB
array and a pure-Python loop, the operations freqwin's hot paths are made of
-- is timed in short bursts between ops.  An op's time divided by the
kernel's time around it is steady where either alone is not; reported
times are that ratio times ``REFERENCE_S``, i.e. seconds at the speed where
one kernel sample takes ``REFERENCE_S``.  The kernel shares no code with
freqwin, so a change to freqwin cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3  # nominal duration of one kernel sample
MIN_SAMPLES = 5

_rng = np.random.default_rng(20190711)
_MATRIX = _rng.standard_normal((10, 768)) + 1j * _rng.standard_normal((10, 768))
_PHASES = 1j * _rng.standard_normal(16384)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    np.fft.fft(_MATRIX, axis=1)
    np.linalg.svd(_MATRIX, full_matrices=False)
    float((_MATRIX * _MATRIX.conj()).real.sum())
    np.exp(_PHASES)
    acc = 0
    for i in range(300):
        acc += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Bursts of kernel samples: their start times and median sample times."""

    def __init__(self):
        self.starts: list[float] = []
        self.medians: list[float] = []

    def burst(self, min_seconds: float = 0.0) -> None:
        start = time.perf_counter()
        samples = []
        while len(samples) < MIN_SAMPLES or time.perf_counter() - start < min_seconds:
            samples.append(kernel_seconds())
        self.starts.append(start)
        self.medians.append(statistics.median(samples))

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over [t0, t1] into reference
        seconds: REFERENCE_S over the mean kernel time of the last burst
        before t0 and the first burst after t1."""
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        around = self.medians[max(lo - 1, 0):lo] + self.medians[hi:hi + 1]
        return REFERENCE_S / statistics.fmean(around)
