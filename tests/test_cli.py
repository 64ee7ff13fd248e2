import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import freqwin
import freqwin.bench as bench
from freqwin import Signal, io, overlap_variance, param_error
from freqwin.cli import build_parser, main

FAST_SIM = ["--fine-rate", "23040", "--seed", "3"]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--out", str(out), *FAST_SIM, "--fs", "80"])
    assert rc == 0
    return out


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def exit_code(argv):
    """main's return code; an argparse usage error exits through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def without_wall_time(path):
    """A run's output file with its timing fields dropped, else its bytes."""
    if path.name == "report.json":
        payload = json.loads(path.read_text())
        payload.pop("wall_time")
        return payload
    if path.name == "sweep.csv":
        return [{k: v for k, v in row.items() if k != "wall_time"}
                for row in read_rows(path)]
    return path.read_bytes()


def with_field(lines, number, field, value):
    """``lines`` with field ``field`` of file line ``number`` set to ``value``."""
    fields = lines[number - 1].split(",")
    fields[field] = value
    return lines[:number - 1] + [",".join(fields)] + lines[number:]


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("x.csv", "u.csv", "truth.json", "run_config.txt"):
            assert (sim_dir / name).exists()

    def test_truth_holds_seeds_and_forcing(self, sim_dir):
        payload = json.loads((sim_dir / "truth.json").read_text())
        assert payload["seeds"] == {"root": 3}
        assert len(payload["forcing"]["freqs"]) == 85
        assert payload["forcing"]["freqs"][0] == pytest.approx(1.0)

    def test_signal_csv_header(self, sim_dir):
        header = (sim_dir / "x.csv").read_text().splitlines()[0]
        assert header.startswith("t,ch0_re,ch0_im,ch1_re")

    def test_reproducible_from_resolved_config(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["simulate", "--out", str(out2),
                   "--config", str(sim_dir / "run_config.txt")])
        assert rc == 0
        assert (out2 / "x.csv").read_text() == (sim_dir / "x.csv").read_text()


class TestIdentify:
    def test_corrected_recovers_truth(self, sim_dir, tmp_path):
        out = tmp_path / "id"
        rc = main(["identify", "--out", str(out),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--truth", str(sim_dir / "truth.json"), "--window", "cinf:4"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "corrected"
        sv = report["m2_singular_values"]
        assert len(sv) == 10 and sv == sorted(sv, reverse=True)
        assert report["m2_condition"] == pytest.approx(sv[0] / sv[-1], rel=1e-15)
        assert report["residual_l2"] < 1e-4
        assert (out / "residual.csv").exists()

    def test_band_restriction(self, sim_dir, tmp_path):
        out = tmp_path / "band"
        rc = main(["identify", "--out", str(out),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--window", "cinf:2", "--f-min", "0", "--f-max", "30"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["band"]) < 80

    def test_window_too_rough_for_the_order_is_exit_2(self, sim_dir, tmp_path, capsys):
        # poly:6 never vanishes at the edges; its estimate used to miss by 49
        # and exit 0, labelled corrected
        out = tmp_path / "rough"
        rc = main(["identify", "--out", str(out),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--window", "poly:6"])
        assert rc == 2
        assert "poly_ref_6 is too rough for model order 1" in capsys.readouterr().err
        assert not out.exists()

    def test_endpoint_average_flag_is_gone(self, sim_dir, tmp_path):
        assert exit_code(["identify", "--out", str(tmp_path / "ea"),
                          "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                          "--endpoint-average"]) == 2

    def test_naive_records_rect_window(self, sim_dir, tmp_path):
        out = tmp_path / "nv"
        assert main(["identify", "--out", str(out),
                     "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                     "--window", "rect"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["window"] == "rect" and report["method"] == "naive"
        assert "window = rect" in (out / "run_config.txt").read_text()

    def test_corrected_records_np_zero(self, sim_dir, tmp_path):
        out = tmp_path / "np"
        assert main(["identify", "--out", str(out),
                     "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                     "--window", "cinf:4"]) == 0
        config = (out / "run_config.txt").read_text()
        assert "np = 0" in config and "window = cinf:4" in config
        report = json.loads((out / "report.json").read_text())
        assert report["window"] == "cinf:4" and report["method"] == "corrected"

    @pytest.mark.parametrize("window, n_p, method", [
        ("rect", "0", "naive"), ("rect", "3", "ps"),
        ("cinf:4", "0", "corrected"), ("cinf:4", "3", "mixed")])
    def test_window_and_np_pick_the_method(self, sim_dir, tmp_path, window, n_p,
                                           method):
        # corrected used to drop --np and ps/naive to ignore --window silently
        out = tmp_path / "m"
        assert main(["identify", "--out", str(out),
                     "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                     "--window", window, "--np", n_p]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["method"], report["window"]) == (method, window)
        config = (out / "run_config.txt").read_text()
        assert f"window = {window}" in config and f"np = {n_p}" in config

    @pytest.mark.parametrize("window, n_p", [("cinf:4", 0), ("rect", 5)])
    def test_residual_outputs_match_an_independent_fit(self, sim_dir, tmp_path, window,
                                                       n_p):
        """residual.csv's per-bin norms against the residual of an lstsq fit
        of the same regression, and report.json's residual_l2 against those
        norms, to 1e-12 ||M1||."""
        out = tmp_path / "res"
        assert main(["identify", "--out", str(out), "--x", str(sim_dir / "x.csv"),
                     "--u", str(sim_dir / "u.csv"), "--window", window,
                     "--np", str(n_p)]) == 0
        x, u = (io.read_signal_csv(sim_dir / name) for name in ("x.csv", "u.csv"))
        reg = freqwin.build_regression(x, u, bench.REF_STRUCTURE,
                                       bench.parse_window(window), n_p)
        # the polynomial rows span degrees < n_p; any basis fits the same residual
        m2 = np.vstack([reg.m2, np.vander(reg.freqs / np.abs(reg.freqs).max(), n_p).T])
        theta2 = np.linalg.lstsq(m2.T, -reg.m1.T, rcond=None)[0].T
        want = np.linalg.norm(theta2 @ m2 + reg.m1, axis=0)
        rows = read_rows(out / "residual.csv")
        np.testing.assert_array_equal([float(r["f"]) for r in rows], reg.freqs)
        norms = np.array([float(r["residual_norm"]) for r in rows])
        tol = 1e-12 * np.linalg.norm(reg.m1)
        assert np.abs(norms - want).max() <= tol
        report = json.loads((out / "report.json").read_text())
        assert abs(report["residual_l2"] - np.sqrt((norms**2).sum() / x.length)) <= tol

    @pytest.mark.parametrize("command", ["identify", "sweep", "montecarlo"])
    def test_method_flag_is_gone(self, sim_dir, tmp_path, command):
        # the window and --np pick the method; --method could disagree with them
        inputs = [f.format(sim=sim_dir) for f in IDENTIFY_INPUTS]
        out = tmp_path / "m"
        assert exit_code([command, "--out", str(out),
                          *(inputs if command == "identify" else FAST_SIM),
                          "--method", "ps"]) == 2
        assert not out.exists()

    def test_missing_input_file_is_exit_2(self, sim_dir, tmp_path, capsys):
        # the output directory used to be created, and left empty, first
        out = tmp_path / "missing"
        assert main(["identify", "--out", str(out), "--x", str(tmp_path / "none.csv"),
                     "--u", str(sim_dir / "u.csv")]) == 2
        assert "none.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_shuffled_time_column_is_exit_2(self, sim_dir, tmp_path):
        header, *rows = (sim_dir / "x.csv").read_text().splitlines()
        samples = [r for r in rows if not r.startswith("#")]
        order = np.random.default_rng(0).permutation(len(samples))
        shuffled = tmp_path / "x_shuffled.csv"
        shuffled.write_text("\n".join([header] + [samples[i] for i in order]) + "\n")
        rc = main(["identify", "--out", str(tmp_path / "sh"),
                   "--x", str(shuffled), "--u", str(sim_dir / "u.csv"),
                   "--truth", str(sim_dir / "truth.json")])
        assert rc == 2

    def test_length_mismatch_is_exit_2(self, sim_dir, tmp_path, capsys):
        # an input record of another length T; ps and naive used to fit it
        u = io.read_signal_csv(sim_dir / "u.csv")
        io.write_signal_csv(tmp_path / "u2.csv",
                            Signal(length=2.0, values=u.values, terminal=u.terminal))
        for window, n_p in (("cinf:4", "0"), ("cinf:4", "2"), ("rect", "0"),
                            ("rect", "2")):
            rc = main(["identify", "--out", str(tmp_path / "len"),
                       "--x", str(sim_dir / "x.csv"), "--u", str(tmp_path / "u2.csv"),
                       "--window", window, "--np", n_p])
            assert rc == 2
            assert "input record (T = 2," in capsys.readouterr().err

    def test_non_finite_truth_is_exit_2(self, sim_dir, tmp_path, capsys):
        # used to print "parameter error vs truth: nan" and exit 0
        payload = json.loads((sim_dir / "truth.json").read_text())
        payload["theta"]["A"][0]["data"][0] = float("nan")
        truth = tmp_path / "truth_nan.json"
        truth.write_text(json.dumps(payload))
        out = tmp_path / "nan"
        assert main(["identify", "--out", str(out), "--x", str(sim_dir / "x.csv"),
                     "--u", str(sim_dir / "u.csv"), "--truth", str(truth)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_terminal_sample_is_exit_2(self, sim_dir, tmp_path, capsys):
        # a NaN s(T) in the CSV's terminal row used to be read without a check
        *rows, terminal = (sim_dir / "x.csv").read_text().splitlines()
        fields = terminal.split(",")
        assert fields[0] == io.TERMINAL_TAG
        fields[2] = "nan"
        bad = tmp_path / "x_nan.csv"
        bad.write_text("\n".join(rows + [",".join(fields)]) + "\n")
        out = tmp_path / "nan_terminal"
        assert main(["identify", "--out", str(out), "--x", str(bad),
                     "--u", str(sim_dir / "u.csv")]) == 2
        assert f"{bad}: non-finite value in the terminal row" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sample_names_the_file_and_row(self, sim_dir, tmp_path, capsys):
        # used to reach Signal, whose message named neither the file nor the row
        header, first, *rows = (sim_dir / "x.csv").read_text().splitlines()
        fields = first.split(",")
        fields[1] = "inf"
        bad = tmp_path / "x_inf.csv"
        bad.write_text("\n".join([header, ",".join(fields)] + rows) + "\n")
        out = tmp_path / "inf_sample"
        assert main(["identify", "--out", str(out), "--x", str(bad),
                     "--u", str(sim_dir / "u.csv")]) == 2
        assert (f"{bad}: non-finite value in sample row 0 (line 2)"
                in capsys.readouterr().err)
        assert not out.exists()

    # one edit each of a CLI-written x.csv (file line 1 the header, lines
    # 2.. the samples, the last line the terminal row) and what stderr names
    CSV_EDITS = {
        "text cell": (lambda lines: with_field(lines, 3, 1, "abc"),
                      "line 3: 'abc' is not a number"),
        "row one field short": (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]]
                                + lines[3:], "line 3 has"),
        "extra column": (lambda lines: lines[:1] + [line + ",0" for line in lines[1:]],
                         "line 2 has"),
        "even column count": (lambda lines: [line + ",0" for line in lines],
                              "line 1: a header of"),
        "semicolons": (lambda lines: [line.replace(",", ";") for line in lines],
                       "line 1: a header of 1 "),
        "terminal row moved": (lambda lines: lines[:3] + lines[-1:] + lines[3:-1],
                               "line 4: a '#' line"),
        "terminal row twice": (lambda lines: lines + lines[-1:],
                               "a '#' line that is not the last line"),
    }

    @pytest.mark.parametrize("edit", sorted(CSV_EDITS))
    def test_bad_signal_csv_names_the_file_and_line(self, sim_dir, tmp_path, capsys, edit):
        # each used to exit 2 with numpy's message and no path, or (a '#' row
        # mid-file) to exit 0 with the row skipped
        change, where = self.CSV_EDITS[edit]
        bad = tmp_path / "x_bad.csv"
        bad.write_text("\n".join(change((sim_dir / "x.csv").read_text().splitlines())) + "\n")
        out = tmp_path / "out"
        assert main(["identify", "--out", str(out), "--x", str(bad),
                     "--u", str(sim_dir / "u.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and where in err and "Traceback" not in err
        assert not out.exists()

    def test_signal_csv_that_is_not_utf8_names_the_file_and_line(self, sim_dir, tmp_path,
                                                                capsys):
        # used to print a codec error without the path
        lines = (sim_dir / "x.csv").read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        bad = tmp_path / "x_latin.csv"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        assert main(["identify", "--out", str(out), "--x", str(bad),
                     "--u", str(sim_dir / "u.csv")]) == 2
        assert f"{bad}: line 4: bytes that are not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ("no A", "missing key 'A'"), ("bad shape", "cannot reshape"),
        ("text entry", "'abc' is not a number")])
    def test_bad_truth_is_exit_2_before_the_estimate(self, sim_dir, tmp_path, monkeypatch,
                                                     capsys, edit, message):
        # no "A" used to exit 1 with a KeyError traceback, after the estimate
        payload = json.loads((sim_dir / "truth.json").read_text())
        theta = payload["theta"]
        if edit == "no A":
            del theta["A"]
        elif edit == "bad shape":
            theta["A"][0]["shape"] = [3, 3]
        else:
            theta["B"][0]["data"][1] = "abc"
        truth = tmp_path / "truth_bad.json"
        truth.write_text(json.dumps(payload))
        monkeypatch.setattr("freqwin.cli.identify_from_signals", None)  # never reached
        out = tmp_path / "out"
        assert main(["identify", "--out", str(out), "--x", str(sim_dir / "x.csv"),
                     "--u", str(sim_dir / "u.csv"), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {truth}: " in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_more_inputs_than_states(self, tmp_path, capsys):
        # one state driven by two inputs, n_b = 1: the records alone give n_u
        ds = bench.reference_dataset(42, fine_rate=30720,
                                     structure=freqwin.ModelStructure(1, 2, 1, 1))
        x, u = ds.decimated(256)
        io.write_signal_csv(tmp_path / "x.csv", x)
        io.write_signal_csv(tmp_path / "u.csv", u)
        io.write_truth_json(tmp_path / "truth.json", ds.theta_true, ds.forcing, seeds={})
        out = tmp_path / "id"
        assert main(["identify", "--out", str(out), "--x", str(tmp_path / "x.csv"),
                     "--u", str(tmp_path / "u.csv"), "--truth", str(tmp_path / "truth.json"),
                     "--nb", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        theta = io.params_from_payload(report["theta_hat"])
        assert theta.structure == ds.theta_true.structure
        assert param_error(ds.theta_true, theta) <= 1e-9  # observed 2.1e-11
        assert "parameter error vs truth" in capsys.readouterr().out

    def test_length_flag_is_gone(self, sim_dir, tmp_path):
        # the records carry T; identify has no --length to disagree with them
        assert exit_code(["identify", "--out", str(tmp_path / "len"),
                          "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                          "--length", "1"]) == 2


class TestRecordLength:
    """A record of length T = 2: every windowed path takes T from the data."""

    LONG_SIM = ["--length", "2", "--fine-rate", "23040", "--seed", "3"]

    def test_simulate_then_identify(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--out", str(sim), *self.LONG_SIM, "--fs", "160"]) == 0
        out = tmp_path / "id"
        assert main(["identify", "--out", str(out), "--x", str(sim / "x.csv"),
                     "--u", str(sim / "u.csv")]) == 0
        report = json.loads((out / "report.json").read_text())
        err = param_error(io.read_truth_json(sim / "truth.json"),
                          io.params_from_payload(report["theta_hat"]))
        assert err < 1e-9

    def test_sweep(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), *self.LONG_SIM,
                     "--fs-list", "64,128,192", "--windows", "sin:2,cinf:4"]) == 0
        assert len(read_rows(tmp_path / "sweep.csv")) == 6

    def test_montecarlo(self, tmp_path):
        assert main(["montecarlo", "--out", str(tmp_path), *self.LONG_SIM,
                     "--trials", "2"]) == 0
        assert len(read_rows(tmp_path / "ensemble.csv")) == 4


class TestWindowCommand:
    def test_outputs_and_ferr_values(self, tmp_path):
        out = tmp_path / "win"
        rc = main(["window", "--out", str(out), "--window", "sin:1",
                   "--samples", "256", "--max-deriv", "0", "--f-max", "16"])
        assert rc == 0
        rows = read_rows(out / "ferr.csv")
        vals = {float(r["p"]): r["f_err_over_T"] for r in rows
                if r["deriv"] == "0"}
        assert float(vals[1e-3]) == 16.0
        assert abs(float(vals[1e-6]) - 502.0) <= 1.0
        assert vals[1e-12] == ">10000"
        window = read_rows(out / "window.csv")
        assert len(window) == 256

    def test_rectangular_skips_derivative_rows(self, tmp_path):
        out = tmp_path / "rect"
        rc = main(["window", "--out", str(out), "--window", "rect",
                   "--samples", "64", "--max-deriv", "3", "--f-max", "8"])
        assert rc == 0
        rows = read_rows(out / "ferr.csv")
        assert {r["deriv"] for r in rows} == {"0"}


    def test_too_few_samples_is_exit_2(self, tmp_path):
        # the output directory used to be created before the table was built
        out = tmp_path / "w1"
        assert main(["window", "--out", str(out), "--window", "sin:1",
                     "--samples", "1"]) == 2
        assert not out.exists()


class TestSweepCommand:
    def test_rows_and_columns(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--out", str(out), *FAST_SIM,
                   "--fs-list", "96,192", "--windows", "sin:2"])
        assert rc == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2
        assert float(rows[1]["residual_l2"]) < float(rows[0]["residual_l2"])

    def test_single_point_matches_identify(self, tmp_path, sim_dir):
        out = tmp_path / "sw1"
        rc = main(["sweep", "--out", str(out), *FAST_SIM,
                   "--fs-list", "80", "--windows", "cinf:4"])
        assert rc == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["param_error"]) < 1e-8

    def test_windows_and_np_pick_row_methods(self, tmp_path):
        # --method ps used to ignore the windows and label its rows with them
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), *FAST_SIM, "--fs-list", "80",
                     "--windows", "rect,cinf:4", "--np", "10"]) == 0
        rows = read_rows(out / "sweep.csv")
        assert [(r["method"], r["window"]) for r in rows] == [
            ("ps", "rect"), ("mixed", "cinf_4")]

    def test_rows_are_the_library_sweep(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), *FAST_SIM, "--fs-list", "96,192",
                     "--windows", "sin:1,sin:2"]) == 0
        rows = read_rows(out / "sweep.csv")
        assert [(r["window"], r["fs"]) for r in rows] == [
            ("sin_1", "96"), ("sin_1", "192"), ("sin_2", "96"), ("sin_2", "192")]
        dataset = bench.reference_dataset(seed=3, fine_rate=23040)
        want = [r for w in ("sin:1", "sin:2")
                for r in bench.sweep_rates(dataset, [96.0, 192.0],
                                           window=bench.parse_window(w))]
        for row, r in zip(rows, want):
            assert row == {"fs": io.FMT % r.swept_value, "method": r.method,
                           "window": r.window,
                           "residual_probe": io.FMT % r.residual_probe,
                           "residual_l2": io.FMT % r.residual_l2,
                           "param_error": io.FMT % r.param_error,
                           "wall_time": row["wall_time"]}


class TestMonteCarloCommand:
    def test_single_trial(self, tmp_path):
        out = tmp_path / "mc1"
        rc = main(["montecarlo", "--out", str(out), *FAST_SIM, "--trials", "1",
                   "--sigma", "1e-6", "--windows", "cinf:1"])
        assert rc == 0
        rows = read_rows(out / "ensemble.csv")
        assert len(rows) == 1
        assert float(rows[0]["cummean_error"]) == pytest.approx(
            float(rows[0]["trial_error"]))

    def test_trials_counted_per_window(self, tmp_path):
        out = tmp_path / "mc"
        rc = main(["montecarlo", "--out", str(out), *FAST_SIM, "--trials", "3",
                   "--sigma", "1e-4", "--windows", "sin:1,cinf:1"])
        assert rc == 0
        rows = read_rows(out / "ensemble.csv")
        assert len(rows) == 6

    def test_trial_errors_are_the_library_ensemble(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--out", str(out), *FAST_SIM, "--trials", "2",
                     "--sigma", "1e-4", "--windows", "sin:1,cinf:1"]) == 0
        rows = read_rows(out / "ensemble.csv")
        dataset = bench.reference_dataset(seed=3, fine_rate=23040)
        want = [(bench.parse_window(w).label,
                 param_error(dataset.theta_true, r.theta_hat))
                for w in ("sin:1", "cinf:1")
                for r in bench.monte_carlo(dataset, bench.REF_FS, 1e-4, 2,
                                           bench.parse_window(w))]
        assert [(r["window"], r["trial_error"]) for r in rows] == \
            [(w, io.FMT % err) for w, err in want]


def test_montecarlo_and_sweep_name_windows_alike(tmp_path):
    # ensemble.csv used to write the window as typed (sin:1), sweep.csv its
    # label (sin_1), so the two outputs of one study could not be joined
    assert main(["montecarlo", "--out", str(tmp_path / "mc"), *FAST_SIM,
                 "--trials", "2"]) == 0
    assert main(["sweep", "--out", str(tmp_path / "sw"), *FAST_SIM]) == 0
    mc = {r["window"] for r in read_rows(tmp_path / "mc" / "ensemble.csv")}
    sw = {r["window"] for r in read_rows(tmp_path / "sw" / "sweep.csv")}
    assert mc == {"sin_1", "cinf_4"} and mc & sw == {"sin_1"}


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_is_exit_2_before_simulating(tmp_path, monkeypatch, trials,
                                                      capsys):
    # used to simulate the whole dataset, then fail on "need at least one report"
    def no_simulation(*args):
        raise AssertionError("simulated before checking --trials")

    monkeypatch.setattr(bench, "integrate_rk4", no_simulation)
    out = tmp_path / "mc"
    assert main(["montecarlo", "--out", str(out), "--trials", trials]) == 2
    assert f"--trials {trials} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "montecarlo"])
@pytest.mark.parametrize("seed", [-1, 2**96])
def test_seed_out_of_range_is_exit_2(tmp_path, command, seed, capsys):
    # Philox keys seed * 2**32 + component, so these used to exit 2 with
    # numpy's "key must be positive and less than 2**128."
    out = tmp_path / command
    assert main([command, "--out", str(out), "--fine-rate", "7680", f"--seed={seed}"]) == 2
    assert capsys.readouterr().err == f"config error: seed {seed} must be in [0, 2**96)\n"
    assert not out.exists()


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: a finder that refuses scipy and
    # its submodules makes any import of them fail
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from freqwin.cli import main\n"
        "runs = [['simulate', '--out', 'sim', '--fine-rate', '7680'],\n"
        "        ['identify', '--out', 'id', '--x', 'sim/x.csv', '--u', 'sim/u.csv'],\n"
        "        ['window', '--out', 'win', '--window', 'sin:2', '--samples', '256'],\n"
        "        ['sweep', '--out', 'sw', '--fine-rate', '7680'],\n"
        "        ['montecarlo', '--out', 'mc', '--fine-rate', '7680', '--trials', '3'],\n"
        "        ['overlap', '--out', 'ov']]\n"
        "for argv in runs:\n"
        "    print(argv[0], main(argv), file=sys.stderr)\n")
    src = str(Path(freqwin.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, text=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    codes = dict(line.split() for line in done.stderr.splitlines())
    assert codes == {name: "0" for name in ("simulate", "identify", "window", "sweep",
                                            "montecarlo", "overlap")}


class TestNoiseFlag:
    def test_sigma_changes_records(self, tmp_path):
        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        assert main(["simulate", "--out", str(clean), *FAST_SIM]) == 0
        assert main(["simulate", "--out", str(noisy), *FAST_SIM,
                     "--sigma", "1e-2"]) == 0
        assert (clean / "x.csv").read_text() != (noisy / "x.csv").read_text()


class TestOverlapCommand:
    def test_rectangular_analytic_column(self, tmp_path):
        out = tmp_path / "ov"
        rc = main(["overlap", "--out", str(out), "--windows", "rect",
                   "--tau-step", "0.5", "--tau-max", "0.5",
                   "--num-windows", "10"])
        assert rc == 0
        rows = read_rows(out / "overlap.csv")
        v0 = [r for r in rows if float(r["tau"]) == 0.0][0]
        assert float(v0["variance"]) == pytest.approx(0.1)

    def test_poly_ref_family_available(self, tmp_path):
        out = tmp_path / "ovp"
        rc = main(["overlap", "--out", str(out), "--windows", "poly:6",
                   "--tau-step", "0.5", "--tau-max", "0.5",
                   "--num-windows", "8"])
        assert rc == 0

    def test_baseline_once_per_window_keeps_file(self, tmp_path):
        # the zero-overlap baseline is computed once per window; the file
        # must equal the one built with the baseline recomputed on every row
        out = tmp_path / "ov"
        windows = ["rect", "sin:2", "poly:6"]
        assert main(["overlap", "--out", str(out), "--windows", ",".join(windows),
                     "--tau-step", "0.25", "--tau-max", "0.75",
                     "--num-windows", "8"]) == 0
        rows = []
        for text in windows:
            spec = bench.parse_window(text)
            for tau in np.arange(0.0, 0.75 + 1e-12, 0.25):
                k = int(np.floor(7 / (1.0 - tau))) + 1
                var = overlap_variance(spec, float(tau), k)
                rows.append([text, float(tau), k, var,
                             var / overlap_variance(spec, 0.0, 8)])
        io.write_csv(tmp_path / "expect.csv",
                     ["window", "tau", "num_windows", "variance", "normalized"], rows)
        assert (out / "overlap.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()

    @pytest.mark.parametrize("flags", [["--tau-max", "1.0"],
                                       ["--tau-step", "0"],
                                       ["--tau-step", "-0.1"]])
    def test_bad_tau_grid_is_exit_2(self, tmp_path, flags, capsys):
        # tau = 1 used to overflow and a zero step to divide by zero (both
        # tracebacks); a negative step wrote a header-only overlap.csv
        out = tmp_path / "bad"
        rc = main(["overlap", "--out", str(out), "--windows", "rect", *flags])
        assert rc == 2
        assert "tau" in capsys.readouterr().err
        assert not (out / "overlap.csv").exists()

    def test_tau_grid_beyond_memory_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # 1e-13 used to exit 1 with the _ArrayMemoryError of a 69.1 TiB grid;
        # the point cap now rejects it before any allocation is attempted
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(np, "arange", no_memory)
        out = tmp_path / "ov"
        assert main(["overlap", "--out", str(out), "--tau-step", "1e-13"]) == 2
        assert ("--tau-step 1e-13 asks for 9.5e+12 tau grid points"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_tau_grid_beyond_the_cap_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # 1e-7 fits in memory, but its 9.5e6 points used to run about 35 min
        # per window before writing anything; the grid is never built now
        def no_grid(*args):
            raise AssertionError("tau grid built")

        monkeypatch.setattr(np, "arange", no_grid)
        out = tmp_path / "ov"
        assert main(["overlap", "--out", str(out), "--tau-step", "1e-7"]) == 2
        assert ("--tau-step 1e-07 asks for 9.5e+06 tau grid points, more than the "
                "1e+05 allowed" in capsys.readouterr().err)
        assert not out.exists()

    def test_tau_grid_beyond_index_range_is_exit_2(self, tmp_path, capsys):
        # used to exit 2 with numpy's bare "Maximum allowed size exceeded";
        # numpy refuses this size before allocating anything
        out = tmp_path / "ov"
        assert main(["overlap", "--out", str(out), "--tau-step", "1e-300"]) == 2
        assert ("--tau-step 1e-300 asks for 9.5e+299 tau grid points"
                in capsys.readouterr().err)
        assert not out.exists()


IDENTIFY_INPUTS = ["--x", "{sim}/x.csv", "--u", "{sim}/u.csv"]


class TestConfigAndExitCodes:
    @pytest.mark.parametrize("seed_flag", [["--seed", "9"], ["--seed=9"],
                                           ["--se", "9"]],
                             ids=["separate", "equals", "abbreviated"])
    def test_config_file_applies_and_flags_win(self, tmp_path, seed_flag):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 4\nfine_rate = 23040\n")
        out1 = tmp_path / "o1"
        assert main(["simulate", "--out", str(out1), "--config", str(cfg)]) == 0
        assert "seed = 4" in (out1 / "run_config.txt").read_text()
        out2 = tmp_path / "o2"
        assert main(["simulate", "--out", str(out2), "--config", str(cfg),
                     *seed_flag]) == 0
        assert "seed = 9" in (out2 / "run_config.txt").read_text()

    @pytest.mark.parametrize("command,flags", [
        ("simulate", [*FAST_SIM, "--fs", "80", "--sigma", "1e-3"]),
        ("identify", [*IDENTIFY_INPUTS, "--window", "rect"]),
        ("identify", [*IDENTIFY_INPUTS, "--window", "sin:1"]),
        ("identify", [*IDENTIFY_INPUTS, "--window", "rect", "--np", "3",
                      "--f-max", "20"]),
        ("identify", [*IDENTIFY_INPUTS, "--window", "cinf:2", "--f-min", "1",
                      "--truth", "{sim}/truth.json"]),
        ("window", ["--window", "sin:2", "--samples", "64", "--max-deriv", "1",
                    "--f-max", "8"]),
        ("sweep", [*FAST_SIM, "--fs-list", "96", "--windows", "sin:2"]),
        ("montecarlo", [*FAST_SIM, "--trials", "2", "--sigma", "1e-4",
                        "--windows", "cinf:1"]),
        ("overlap", ["--windows", "rect,sin:2", "--tau-step", "0.5",
                     "--tau-max", "0.5", "--num-windows", "8"]),
    ])
    def test_run_config_alone_replays_run(self, sim_dir, tmp_path, command, flags):
        # the saved file used to drop --f-min/--f-max/--truth and need
        # --x/--u/--window again
        first, again = tmp_path / "first", tmp_path / "again"
        flags = [f.format(sim=sim_dir) for f in flags]
        assert main([command, "--out", str(first), *flags]) == 0
        assert main([command, "--config", str(first / "run_config.txt"),
                     "--out", str(again)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert without_wall_time(again / name) == without_wall_time(first / name)

    @pytest.mark.parametrize("command,line,key", [
        ("simulate", "seed = abc", "seed"),
        ("simulate", "seed 4", "seed"),
        # a key of older run_config.txt files: the option is gone
        ("identify", "endpoint_average = yes", "endpoint_average"),
        ("identify", "command = simulate", "command"),
        # argparse checks choices on flags only; a config value used to
        # reach the command, which simulated before failing
        ("sweep", "method = bogus", "method"),
        ("montecarlo", "method = bogus", "method"),
        # not an option: a run_config.txt of a run that had --method used
        # to replay as whatever the window and np pick
        ("identify", "method = corrected", "method"),
        ("sweep", "sigma = 0.1", "sigma"),
    ])
    def test_bad_config_value_is_exit_2(self, sim_dir, tmp_path, monkeypatch,
                                        command, line, key, capsys):
        def no_simulation(**kwargs):
            raise AssertionError("simulated before checking the config")

        monkeypatch.setattr(bench, "reference_dataset", no_simulation)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "bad"
        inputs = [f.format(sim=sim_dir) for f in IDENTIFY_INPUTS]
        assert exit_code([command, "--out", str(out), "--config", str(cfg),
                          *(inputs if command == "identify" else [])]) == 2
        err = capsys.readouterr().err
        assert key in err and str(cfg) in err
        assert not out.exists()

    def test_config_with_method_key_is_exit_2(self, sim_dir, tmp_path, capsys):
        # run_config.txt of a run made when identify had --method
        first, again = tmp_path / "first", tmp_path / "again"
        inputs = [f.format(sim=sim_dir) for f in IDENTIFY_INPUTS]
        assert main(["identify", "--out", str(first), *inputs]) == 0
        cfg = first / "run_config.txt"
        cfg.write_text(cfg.read_text() + "method = corrected\n")
        assert main(["identify", "--config", str(cfg), "--out", str(again)]) == 2
        assert (f"{cfg}: method = corrected: not an option of identify"
                in capsys.readouterr().err)
        assert not again.exists()

    def test_run_config_replays_from_another_directory(self, sim_dir, tmp_path,
                                                        monkeypatch):
        # relative --x/--u/--truth used to be recorded as given, so a replay
        # from another working directory could not find them (exit 2)
        first, again = tmp_path / "first", tmp_path / "again"
        monkeypatch.chdir(sim_dir)
        assert main(["identify", "--out", str(first), "--x", "x.csv",
                     "--u", "u.csv", "--truth", "truth.json"]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["identify", "--config", str(first / "run_config.txt"),
                     "--out", str(again)]) == 0
        assert without_wall_time(again / "report.json") == \
            without_wall_time(first / "report.json")

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x"),
                     "--config", "nope.cfg"]) == 2

    def test_resonant_system_is_exit_3(self, tmp_path, monkeypatch):
        # poles at +-2 pi i resonate with the reference multisine's 1 Hz tone
        A0 = np.diag([1.0, 2.0, 3.0, 0.0, 0.0])
        A0[3:, 3:] = [[0.0, 2 * np.pi], [-2 * np.pi, 0.0]]
        resonant = bench.ModelParams(bench.REF_STRUCTURE, A=(A0, np.eye(5)),
                                     B=(np.eye(5),))
        monkeypatch.setattr(bench, "random_system", lambda structure, seed: resonant)
        assert main(["simulate", "--out", str(tmp_path / "res"),
                     "--fine-rate", "7680", "--fs", "80"]) == 3

    def test_bad_window_is_exit_2(self, tmp_path):
        assert main(["window", "--out", str(tmp_path / "w"),
                     "--window", "kaiser:3"]) == 2

    @pytest.mark.parametrize("window", ["cinf:nan", "cinf:inf", "sin:inf"])
    def test_non_finite_window_order_is_exit_2(self, tmp_path, window):
        assert main(["window", "--out", str(tmp_path / "w"),
                     "--window", window]) == 2

    @pytest.mark.parametrize("window", ["sin:600", "sin:1100"])
    def test_oversized_sin_order_is_exit_2(self, tmp_path, window):
        start = time.perf_counter()
        assert main(["window", "--out", str(tmp_path / "w"),
                     "--window", window]) == 2
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("window", ["poly:1", "poly:3"])
    @pytest.mark.parametrize("command,flag", [("window", "--window"),
                                              ("overlap", "--windows")])
    def test_odd_poly_order_is_exit_2(self, tmp_path, command, flag, window, capsys):
        # poly_3 is 1.125 at t = 0 and 0.875 at T; its tables and f_err
        # values used to be written with exit 0
        out = tmp_path / "p"
        assert main([command, "--out", str(out), flag, window]) == 2
        assert "poly_ref order must be even" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "sweep", "montecarlo"])
    def test_zero_fine_rate_is_exit_2(self, tmp_path, command, capsys):
        # used to divide by zero in reference_dataset (exit 1, traceback)
        assert main([command, "--out", str(tmp_path / "z"),
                     "--fine-rate", "0"]) == 2
        assert "fine rate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "montecarlo"])
    def test_huge_integer_fine_rate_is_exit_2(self, tmp_path, command, capsys):
        # a rate beyond float range used to raise OverflowError in
        # reference_dataset's step count (exit 1, traceback)
        rate = "1" + "0" * 400
        out = tmp_path / "r"
        assert main([command, "--out", str(out), "--fine-rate", rate]) == 2
        assert f"fine rate {rate} is too large" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "sweep", "montecarlo"])
    def test_infinite_length_is_exit_2(self, tmp_path, command, capsys):
        # used to overflow in reference_dataset's sample count (exit 1, traceback)
        out = tmp_path / "l"
        assert main([command, "--out", str(out), "--length", "inf"]) == 2
        assert "record length must be finite, not inf" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("length", ["1e12", "1e300"])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "montecarlo"])
    def test_huge_length_is_exit_2(self, tmp_path, command, length, capsys):
        # 1e12 used to exit 1 with numpy's MemoryError traceback, 1e300 to
        # exit 2 with its bare "Maximum allowed size exceeded"; neither
        # record is addressable, so nothing is allocated
        out = tmp_path / "l"
        assert main([command, "--out", str(out), "--length", length]) == 2
        err = capsys.readouterr().err
        assert f"record length {float(length)} needs 1.8432e+" in err
        assert "bytes of records, more than memory holds" in err
        assert not any(out.glob("*.csv"))

    def test_out_of_memory_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # an addressable record the machine cannot hold: the allocation's
        # MemoryError names the length, the steps and the bytes
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(bench, "integrate_rk4", no_memory)
        assert main(["simulate", "--out", str(tmp_path / "m"), "--length", "1e4"]) == 2
        assert ("record length 10000.0 needs 1.8432e+09 steps at fine rate 184320 "
                "and 2.95e+11 bytes") in capsys.readouterr().err

    @pytest.mark.parametrize("f_s", ["inf", "nan", "0", "-80", "1e300"])
    @pytest.mark.parametrize("command,flag", [("simulate", "--fs"), ("montecarlo", "--fs"),
                                              ("sweep", "--fs-list")])
    def test_rate_outside_the_fine_rate_is_exit_2(self, tmp_path, command, flag, f_s,
                                                  capsys):
        # inf used to exit 1 with round(inf)'s OverflowError traceback, and
        # 1e300 to print its 301-digit sample count
        out = tmp_path / "f"
        trials = ["--trials", "1"] if command == "montecarlo" else []
        assert main([command, "--out", str(out), "--fine-rate", "7680",
                     f"{flag}={f_s}", *trials]) == 2
        err = capsys.readouterr().err
        assert f"f_s = {float(f_s):g} must be in (0, fine rate 7680]\n" in err
        assert len(err) < 120
        assert not out.exists()

    @pytest.mark.parametrize("window,max_deriv", [("sin:2", "1500"), ("cinf:1", "1200"),
                                                  ("sin:2", "400"), ("cinf:1", "60"),
                                                  ("sin:1", "700")])
    def test_derivative_overflow_is_exit_3(self, tmp_path, window, max_deriv, capsys):
        # the first row that overflows float64 stops the table (order 387 of
        # sin:2, 50 of cinf:1, 621 of sin:1); 1500 and 1200 used to exit 1
        # with an OverflowError traceback, 400 and 60 to exit 0 with inf
        # rows, and 700 to exit 3 with "(34, 'Numerical result out of range')"
        out = tmp_path / "w"
        assert main(["window", "--out", str(out), "--window", window,
                     "--max-deriv", max_deriv]) == 3
        label, order = {"sin:2": ("sin_2", 387), "cinf:1": ("cinf_1", 50),
                        "sin:1": ("sin_1", 621)}[window]
        assert (capsys.readouterr().err
                == f"numeric failure: derivative {order} of window {label} overflows float64\n")
        assert not out.exists()

    def test_window_samples_beyond_memory_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # used to exit 1 with numpy's _ArrayMemoryError traceback; the
        # allocation fails here without being attempted
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr("freqwin.cli.window_table", no_memory)
        out = tmp_path / "w"
        assert main(["window", "--out", str(out), "--window", "cinf:1",
                     "--samples", "100000000000"]) == 2
        assert ("--samples 100000000000 needs 4e+12 bytes of window samples"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("sweep", ["--fs-list", "80,inf"]), ("simulate", ["--fs", "0"]),
        ("montecarlo", ["--fs", "1e9", "--trials", "1"])])
    def test_rate_checked_before_simulating(self, tmp_path, monkeypatch, command, flags,
                                            capsys):
        # a bad rate used to be found only after the full-rate simulation
        def no_simulation(*args):
            raise AssertionError("simulated before checking the rate")

        monkeypatch.setattr(bench, "integrate_rk4", no_simulation)
        out = tmp_path / "f"
        assert main([command, "--out", str(out), *flags]) == 2
        assert "must be in (0, fine rate 184320]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf"])
    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_bad_sigma_is_exit_2(self, tmp_path, command, sigma, capsys):
        # a negative or NaN sigma used to write noise-free outputs, exit 0
        out = tmp_path / "s"
        trials = ["--trials", "1"] if command == "montecarlo" else []
        assert main([command, "--out", str(out), "--fine-rate", "7680",
                     "--fs", "80", "--sigma", sigma, *trials]) == 2
        assert "sigma" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("f_max", ["1e9", "-4", "10001", "inf"])
    def test_window_f_max_out_of_range_is_exit_2(self, tmp_path, f_max, capsys):
        # 1e9 used to die allocating 128 GiB (exit 1, traceback) and -4 on
        # numpy's "operands could not be broadcast together"
        out = tmp_path / "w"
        assert main(["window", "--out", str(out), "--window", "sin:1",
                     f"--f-max={f_max}"]) == 2
        assert "f_max must be a whole number of bins in [0, 10000]" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--fs-list", ""),
        ("sweep", "--windows", ","),
        ("montecarlo", "--windows", ""),
        ("overlap", "--windows", ""),
    ])
    def test_empty_list_is_exit_2(self, tmp_path, monkeypatch, command, flag,
                                  value, capsys):
        # each used to write a header-only CSV with exit 0, and the
        # run_config.txt of such a run replayed the same way
        def no_simulation(**kwargs):
            raise AssertionError("simulated before checking the list")

        monkeypatch.setattr(bench, "reference_dataset", no_simulation)
        out = tmp_path / "empty"
        assert main([command, "--out", str(out), f"{flag}={value}"]) == 2
        assert f"{flag} needs at least one" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run_config.txt"
        cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{flag} needs at least one" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_outside_band_is_exit_2(self, tmp_path, capsys):
        # the residual_probe column used to hold the band edge's residual
        out = tmp_path / "p"
        assert main(["sweep", "--out", str(out), *FAST_SIM,
                     "--fs-list", "80", "--windows", "cinf:4",
                     "--probe-freq", "1000"]) == 2
        assert "probe" in capsys.readouterr().err
        assert not out.exists()

    def test_underdetermined_is_nonzero(self, sim_dir, tmp_path):
        rc = main(["identify", "--out", str(tmp_path / "u"),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--window", "rect", "--np", "500"])
        assert rc in (2, 3)


def test_readme_cli_block_parses():
    # every freqwin line of README's CLI block, continuations joined, is a
    # valid command line, so a removed or renamed flag fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split()
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["freqwin"]]
    assert {argv[0] for argv in commands} == {
        "simulate", "identify", "window", "sweep", "montecarlo", "overlap"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
