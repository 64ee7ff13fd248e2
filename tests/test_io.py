import numpy as np
import pytest

from freqwin import (ModelParams, ModelStructure, Signal, Spectrum, multisine)
from freqwin.io import (read_config_file, read_signal_csv,
                        read_truth_json, write_resolved_config,
                        write_signal_csv, write_spectrum_csv, write_truth_json)


def test_signal_csv_round_trip_preserves_full_precision(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((2, 37)) + 1j * rng.standard_normal((2, 37))
    sig = Signal(length=1.25, values=values)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    np.testing.assert_array_equal(back.values, sig.values)


def test_signal_csv_infers_length_from_grid(tmp_path):
    sig = Signal(length=2.0, values=np.arange(8, dtype=complex))
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    assert back.length == pytest.approx(2.0)


def test_signal_csv_carries_terminal_sample(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    terminal = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sig = Signal(length=0.5, values=values, terminal=terminal)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    assert path.read_text().splitlines()[-1].startswith("# terminal,0.5,")
    # comment-skipping readers see only the sample rows
    assert np.loadtxt(path, delimiter=",", skiprows=1).shape == (16, 5)
    back = read_signal_csv(path)
    assert back.length == 0.5
    np.testing.assert_array_equal(back.values, values)
    np.testing.assert_array_equal(back.terminal, terminal)
    plain = tmp_path / "plain.csv"
    write_signal_csv(plain, Signal(length=0.5, values=values))
    assert read_signal_csv(plain).terminal is None


@pytest.mark.parametrize("times,terminal_time", [
    ([0.0, 0.5, 0.25, 0.75], None),  # not increasing
    ([0.0, 0.25, 0.5, 0.8], None),  # not uniform
    ([0.1, 0.35, 0.6, 0.85], None),  # uniform but not starting at t = 0
    ([0.0, 0.25, 0.5, 0.75], 1.0 + 1e-6),  # s(T) off the samples' grid
])
def test_signal_csv_rejects_bad_time_column(tmp_path, times, terminal_time):
    path = tmp_path / "sig.csv"
    footer = "" if terminal_time is None else f"# terminal,{terminal_time},1,0\n"
    path.write_text("t,ch0_re,ch0_im\n"
                    + "".join(f"{t},1,0\n" for t in times) + footer)
    with pytest.raises(ValueError, match="time column"):
        read_signal_csv(path)


def test_signal_csv_rejects_non_finite_terminal_sample(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("t,ch0_re,ch0_im\n" + "".join(f"{t},1,0\n" for t in (0, 0.25, 0.5, 0.75))
                    + "# terminal,1.0,nan,0\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_signal_csv(path)


def test_spectrum_csv_columns(tmp_path):
    spec = Spectrum(length=1.0, coeffs=np.array([[1 + 2j, 3 - 4j]]),
                    freqs=np.array([0.0, 1.0]))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    lines = path.read_text().splitlines()
    assert lines[0] == "f,ch0_re,ch0_im"
    assert lines[1].split(",")[1:] == ["1", "2"]


def test_truth_json_round_trip(tmp_path):
    s = ModelStructure(n_x=2, n_u=2, n_a=1, n_b=0)
    rng = np.random.default_rng(5)
    theta = ModelParams(s, A=(rng.standard_normal((2, 2)), np.eye(2)),
                        B=(rng.standard_normal((2, 2)),))
    forcing = multisine(3, 1.0, 5.0, seed=1, n_channels=2)
    path = tmp_path / "truth.json"
    write_truth_json(path, theta, forcing, seeds={"root": 1})
    back = read_truth_json(path)
    for m1, m2 in zip(theta.A + theta.B, back.A + back.B):
        np.testing.assert_array_equal(m1, m2)


def test_config_file_round_trip_and_comments(tmp_path):
    path = tmp_path / "cfg.txt"
    write_resolved_config(path, {"seed": 7, "fs": 80.0, "window": "cinf:4"})
    values = read_config_file(path)
    assert values == {"seed": "7", "fs": "80.0", "window": "cinf:4"}
    path.write_text("a = 1  # trailing comment\n# full comment\n\nb = two\n")
    assert read_config_file(path) == {"a": "1", "b": "two"}
    path.write_text("oops\n")
    with pytest.raises(ValueError):
        read_config_file(path)
