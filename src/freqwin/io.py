"""CSV and JSON formats shared by the CLI and tests.

Signal CSV: header ``t,ch0_re,ch0_im,ch1_re,...`` one row per sample on the
grid t_j = j T/N.  A record that carries its terminal sample s(T) ends with
one more line ``# terminal,T,ch0_re,ch0_im,...``; the ``#`` keeps it out of
the sample rows for any reader that skips comment lines.
Spectrum CSV: header ``f,ch0_re,ch0_im,...`` one row per bin.
All floats are written with 17 significant digits so downstream slope fits
are not quantization-limited.  Every CSV ends its lines with LF.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from .identify import EstimateReport, ModelParams, ModelStructure
from .spectral import Signal, Spectrum

FMT = "%.17g"
TERMINAL_TAG = "# terminal"
GRID_RTOL = 1e-9


def write_csv(path, header, rows) -> None:
    """Rows of floats, ints and strings under a header; floats at FMT,
    every line ended by LF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([FMT % v if isinstance(v, float) else v for v in row])


def _write_channels(path, axis_name: str, axis, values, last=()) -> None:
    """An axis column, then the real and imaginary part of each channel;
    the rows ``last`` follow."""
    header = [axis_name] + [f"ch{c}_{p}" for c in range(len(values)) for p in ("re", "im")]
    cols = [axis] + [part for row in values for part in (row.real, row.imag)]
    write_csv(path, header, chain((row.tolist() for row in np.column_stack(cols)), last))


def write_signal_csv(path, signal: Signal) -> None:
    last = []
    if signal.terminal is not None:
        last.append([TERMINAL_TAG, signal.length,
                     *(p for v in signal.terminal for p in (v.real, v.imag))])
    _write_channels(path, "t", signal.times, signal.values, last)


def _text(path) -> str:
    """The file's text, or ValueError naming the line of its first byte
    that is not UTF-8."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: bytes that are not UTF-8") from None


def _reader(read):
    """``read(path)``, with every parse failure in it (a missing key, a
    wrong type, a value that does not convert) a ValueError that starts with
    the path."""
    @functools.wraps(read)
    def named(path):
        try:
            return read(path)
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            if str(exc).startswith(f"{path}: "):
                raise
            raise ValueError(f"{path}: {exc}") from None
    return named


def _floats(path, number: int, line: str, width: int) -> list[float]:
    """The ``width`` comma-separated numbers of file line ``number``."""
    if line.lstrip().startswith("#"):
        raise ValueError(f"{path}: line {number}: a '#' line that is not "
                         f"the last line's {TERMINAL_TAG!r} row")
    fields = line.split(",")
    if len(fields) != width:
        raise ValueError(f"{path}: line {number} has {len(fields)} fields, "
                         f"the header {width}")
    out = []
    for field in fields:
        try:
            out.append(float(field))
        except ValueError:
            raise ValueError(f"{path}: line {number}: {field!r} is not a number") from None
    return out


@_reader
def read_signal_csv(path) -> Signal:
    """Read a signal CSV.  The record length T is the terminal row's time,
    else N dt from the first time step dt; the time column must be the grid
    t_j = j T/N (relative 1e-9 of T) and every entry finite.  Blank lines
    are skipped; the only ``#`` line is the terminal row, last.  A bad file
    is a ValueError naming it and, where one line is at fault, the line."""
    (first, header), *lines = [(number, line) for number, line
                               in enumerate(_text(path).splitlines(), 1)
                               if line.strip()] or [(1, "")]
    width = header.count(",") + 1
    if width < 3 or width % 2 == 0:
        raise ValueError(f"{path}: line {first}: a header of {width} comma-separated "
                         "fields, not t and an (re, im) pair per channel")
    last = lines.pop() if lines and lines[-1][1].startswith(TERMINAL_TAG + ",") else None
    data = np.array([_floats(path, number, line, width) for number, line in lines])
    if data.shape[0] < 2:
        raise ValueError(f"{path}: a signal needs at least 2 samples")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in sample row {bad[0]} "
                         f"(line {lines[bad[0]][0]})")
    t, terminal = data[:, 0], None
    if last is not None:
        number, line = last
        row = np.array(_floats(path, number, line[len(TERMINAL_TAG) + 1:], width))
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: non-finite value in the terminal row")
        t = np.append(t, row[0])
        terminal = row[1::2] + 1j * row[2::2]
    if not (np.diff(t) > 0).all():
        raise ValueError(f"{path}: time column is not strictly increasing")
    n = data.shape[0]
    length = t[-1] if terminal is not None else (t[1] - t[0]) * n
    if np.abs(t - np.arange(t.size) * (length / n)).max() > GRID_RTOL * length:
        raise ValueError(f"{path}: time column is not the uniform grid "
                         f"t_j = j T/N with T = {length!r}, N = {n}")
    values = data[:, 1::2].T + 1j * data[:, 2::2].T
    return Signal(length=length, values=values, terminal=terminal)


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    _write_channels(path, "f", spectrum.freqs, spectrum.coeffs)


def _params_payload(theta: ModelParams) -> dict:
    return {
        "structure": asdict(theta.structure),
        "A": [{"shape": list(m.shape), "data": m.ravel().tolist()} for m in theta.A],
        "B": [{"shape": list(m.shape), "data": m.ravel().tolist()} for m in theta.B],
    }


def _matrix(entry: dict) -> np.ndarray:
    """A ``{"shape": .., "data": ..}`` entry; every datum must be a number."""
    data = entry["data"]
    bad = [v for v in data if type(v) not in (int, float)] if isinstance(data, list) else [data]
    if bad:
        raise ValueError(f"{bad[0]!r} is not a number")
    return np.array(data, dtype=float).reshape(entry["shape"])


def params_from_payload(payload: dict) -> ModelParams:
    s = ModelStructure(**payload["structure"])
    return ModelParams(structure=s, A=tuple(_matrix(m) for m in payload["A"]),
                       B=tuple(_matrix(m) for m in payload["B"]))


def write_report_json(path, report: EstimateReport, window: str | None = None,
                      seeds: dict | None = None) -> None:
    payload = {
        "method": report.method,
        "theta_hat": _params_payload(report.theta_hat),
        "residual_l2": report.residual_l2,
        "imag_norm": report.imag_norm,
        "m2_singular_values": report.m2_singular_values.tolist(),
        "m2_condition": report.m2_condition,
        "wall_time": report.wall_time,
        "band": report.regression.band.tolist(),
        "window": window,
        "seeds": seeds or {},
    }
    if report.poly_coeffs is not None:
        payload["poly_coeffs"] = {
            "shape": list(report.poly_coeffs.shape),
            "re": report.poly_coeffs.real.ravel().tolist(),
            "im": report.poly_coeffs.imag.ravel().tolist(),
        }
    Path(path).write_text(json.dumps(payload, indent=2))


def write_truth_json(path, theta: ModelParams, forcing, seeds: dict) -> None:
    payload = {
        "theta": _params_payload(theta),
        "forcing": {
            "freqs": forcing.freqs.tolist(),
            "amplitudes_re": forcing.amplitudes.real.ravel().tolist(),
            "amplitudes_im": forcing.amplitudes.imag.ravel().tolist(),
            "n_channels": forcing.num_channels,
        },
        "seeds": seeds,
    }
    Path(path).write_text(json.dumps(payload, indent=2))


@_reader
def read_truth_json(path) -> ModelParams:
    return params_from_payload(json.loads(_text(path))["theta"])


def write_resolved_config(path, config: dict) -> None:
    """Flat key = value text file, one entry per line."""
    lines = [f"{k} = {config[k]}" for k in sorted(config)]
    Path(path).write_text("\n".join(lines) + "\n")


@_reader
def read_config_file(path) -> dict:
    out = {}
    for raw in _text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: bad config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
