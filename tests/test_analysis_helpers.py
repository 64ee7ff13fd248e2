"""Tests of the analysis helpers the test suite shares (tests/analysis_helpers.py)."""

import numpy as np
import pytest

from analysis_helpers import loglog_slope, lowpass_filter
from freqwin import Signal

T = 1.0


def tone(freq, n, length=T, amp=1.0):
    t = np.arange(n) * length / n
    return Signal(length=length, values=amp * np.exp(2j * np.pi * freq * t))


class TestLoglogSlope:
    def test_quadratic(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, half = loglog_slope(x, x**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert half < 1e-10

    def test_constant(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, _ = loglog_slope(x, np.full(4, 3.0))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law_within_ci(self):
        rng = np.random.default_rng(2)
        x = np.logspace(0, 3, 30)
        y = 5.0 * x**-1.7 * np.exp(0.05 * rng.standard_normal(30))
        slope, half = loglog_slope(x, y)
        assert abs(slope + 1.7) < half

    def test_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            loglog_slope([1.0, -2.0], [1.0, 1.0])


class TestLowpass:
    def test_band_limited_unchanged(self):
        sig = tone(3.0, 128)
        out = lowpass_filter(sig, 10.0)
        assert np.abs(out.values - sig.values).max() < 1e-12

    def test_high_tone_removed(self):
        sig = tone(40.0, 128)
        out = lowpass_filter(sig, 10.0)
        assert np.abs(out.values).max() < 1e-12

    def test_two_tone_split(self):
        n = 128
        t = np.arange(n) * T / n
        low = np.exp(2j * np.pi * 4 * t)
        high = np.exp(2j * np.pi * 50 * t)
        sig = Signal(length=T, values=low + high)
        out = lowpass_filter(sig, 20.0)
        assert np.abs(out.values[0] - low).max() < 1e-12

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            lowpass_filter(tone(1.0, 64), 32.0)
