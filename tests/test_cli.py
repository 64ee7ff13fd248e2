import csv
import json
import time

import numpy as np
import pytest

import freqwin.bench as bench
from freqwin import identify_from_signals
from freqwin.cli import main

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
                   "--truth", str(sim_dir / "truth.json"),
                   "--method", "corrected", "--window", "cinf:4"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "corrected"
        assert report["residual_l2"] < 1e-4
        assert (out / "residual.csv").exists()

    def test_naive_equals_ps_zero(self, sim_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv")]
        assert main(["identify", "--out", str(out_a), *base,
                     "--method", "naive"]) == 0
        assert main(["identify", "--out", str(out_b), *base,
                     "--method", "ps", "--np", "0"]) == 0
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["theta_hat"] == b["theta_hat"]

    def test_band_restriction(self, sim_dir, tmp_path):
        out = tmp_path / "band"
        rc = main(["identify", "--out", str(out),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--method", "corrected", "--window", "cinf:2",
                   "--f-min", "0", "--f-max", "30"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["band"]) < 80

    def test_endpoint_average_round_trip(self, sim_dir, tmp_path):
        out = tmp_path / "ea"
        rc = main(["identify", "--out", str(out),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--method", "corrected", "--window", "cinf:4",
                   "--endpoint-average"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        x, u = bench.reference_dataset(seed=3, fine_rate=23040).decimated(80.0)
        want = identify_from_signals(x, u, bench.REF_STRUCTURE,
                                     window_spec=bench.parse_window("cinf:4"),
                                     endpoint_average=True)
        got = report["theta_hat"]
        for m, entry in zip(want.theta_hat.A + want.theta_hat.B,
                            got["A"] + got["B"]):
            np.testing.assert_array_equal(
                np.array(entry["data"]).reshape(entry["shape"]), m)
        assert report["residual_l2"] == want.residual_l2

    def test_naive_records_rect_window(self, sim_dir, tmp_path):
        out = tmp_path / "nv"
        assert main(["identify", "--out", str(out),
                     "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                     "--method", "naive", "--window", "sin:3"]) == 0
        assert json.loads((out / "report.json").read_text())["window"] == "rect"
        assert "window = rect" in (out / "run_config.txt").read_text()

    def test_corrected_records_np_zero(self, sim_dir, tmp_path):
        out = tmp_path / "np"
        assert main(["identify", "--out", str(out),
                     "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                     "--method", "corrected", "--window", "cinf:4",
                     "--np", "10"]) == 0
        config = (out / "run_config.txt").read_text()
        assert "np = 0" in config and "window = cinf:4" in config
        assert json.loads((out / "report.json").read_text())["window"] == "cinf:4"

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

    def test_length_mismatch_is_exit_2(self, sim_dir, tmp_path):
        rc = main(["identify", "--out", str(tmp_path / "len"),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--method", "naive", "--length", "2"])
        assert rc == 2


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


class TestWorkerPool:
    def test_parallel_sweep_matches_serial(self, tmp_path, monkeypatch):
        out_s, out_p = tmp_path / "serial", tmp_path / "parallel"
        args = ["sweep", *FAST_SIM, "--fs-list", "96,192",
                "--windows", "sin:2"]
        assert main([*args, "--out", str(out_s)]) == 0
        monkeypatch.setenv("FREQWIN_WORKERS", "2")
        assert main([*args, "--out", str(out_p)]) == 0
        assert (out_p / "sweep.csv").read_text().splitlines()[0] == \
            (out_s / "sweep.csv").read_text().splitlines()[0]
        rows_s = read_rows(out_s / "sweep.csv")
        rows_p = read_rows(out_p / "sweep.csv")
        for a, b in zip(rows_s, rows_p):
            assert a["param_error"] == b["param_error"]


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


class TestConfigAndExitCodes:
    def test_config_file_applies_and_flags_win(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 4\nfine_rate = 23040\n")
        out1 = tmp_path / "o1"
        assert main(["simulate", "--out", str(out1), "--config", str(cfg)]) == 0
        assert "seed = 4" in (out1 / "run_config.txt").read_text()
        out2 = tmp_path / "o2"
        assert main(["simulate", "--out", str(out2), "--config", str(cfg),
                     "--seed", "9"]) == 0
        assert "seed = 9" in (out2 / "run_config.txt").read_text()

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

    def test_underdetermined_is_nonzero(self, sim_dir, tmp_path):
        rc = main(["identify", "--out", str(tmp_path / "u"),
                   "--x", str(sim_dir / "x.csv"), "--u", str(sim_dir / "u.csv"),
                   "--method", "ps", "--np", "500"])
        assert rc in (2, 3)
