"""Tests of the benchmark itself: its oracles against today's freqwin, the
span recorder's self time, the per-op work counts, and its contract.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(about half a minute; it simulates three reference datasets).
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import speed
import tracing
import workloads
from conftest import BENCH
from workloads import CheckError


def traced(workload, ops):
    """Run ops 0..ops-1 of a set-up workload under the tracer; per-layer totals."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(ops):
            inp = workload.make_input(i)
            tracer.op = i
            out = workload.run(inp)
            tracer.op = None
            workload.check(inp, out)
    finally:
        tracer.uninstall()
    return tracing.layer_totals(tracer.spans, range(ops))


@pytest.fixture(scope="module")
def rate_sweep():
    w = workloads.RateSweep(3)
    w.setup()
    return w


@pytest.fixture(scope="module")
def noise_ensemble():
    w = workloads.NoiseEnsemble(3)
    w.setup()
    return w


# ------------------------------------------------------------------ contract
def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert "setup_s" in run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_NAMES)
    units = {m[0]: m[-1] for m in run.PER_LAYER + run.SETUP_LAYER + run.TRACE_SUMMARY}
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ------------------------------------------------------------------- tracing
def test_self_time_of_synthetic_nesting():
    S = tracing.Span
    spans = [S("a", 0, None, 0.0, 10.0), S("b", 0, 0, 1.0, 4.0),
             S("c", 0, 0, 5.0, 9.0), S("d", 0, 2, 6.0, 7.0),
             S("e", 0, 0, 3.0, 6.0)]  # overlaps b and c: covered time counts once
    assert tracing.self_times(spans) == [10.0 - 8.0, 3.0, 3.0, 1.0, 3.0]


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    tracer.op = 0
    outer()
    # clock: outer 0..5, inner 1..2 and 3..4
    assert [(s.name, s.parent, s.start, s.end) for s in tracer.spans] == [
        ("m.outer", None, 0.0, 5.0), ("m.inner", 0, 1.0, 2.0), ("m.inner", 0, 3.0, 4.0)]
    totals = tracing.layer_totals(tracer.spans, [0])
    assert totals["m.outer"] == {"s": 5.0, "self_s": 3.0, "calls": 1}
    assert totals["m.inner"] == {"s": 2.0, "self_s": 2.0, "calls": 2}


def test_install_wraps_every_lookup_and_uninstall_restores():
    import freqwin.bench
    from freqwin import corrections, identify, simulate, spectral

    original = spectral.fft_spectrum
    evaluate = simulate.ForcingSpec.evaluate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = spectral.fft_spectrum
        assert wrapped is not original
        assert identify.fft_spectrum is wrapped and corrections.fft_spectrum is wrapped
        assert freqwin.fft_spectrum is wrapped
        assert simulate.ForcingSpec.evaluate is not evaluate
        assert freqwin.bench.estimate.__wrapped__.__module__ == "freqwin.bench"
    finally:
        tracer.uninstall()
    assert (spectral.fft_spectrum, identify.fft_spectrum, corrections.fft_spectrum,
            freqwin.fft_spectrum) == (original,) * 4
    assert simulate.ForcingSpec.evaluate is evaluate


def test_speed_scale_uses_the_bursts_around_an_op():
    probe = speed.SpeedProbe()
    probe.starts, probe.medians = [0.0, 10.0, 20.0], [1e-3, 2e-3, 4e-3]
    ref = speed.REFERENCE_S
    assert probe.scale(11.0, 19.0) == pytest.approx(ref / 3e-3)
    assert probe.scale(0.5, 5.0) == pytest.approx(ref / 1.5e-3)
    assert probe.scale(21.0, 22.0) == pytest.approx(ref / 4e-3)


# ------------------------------------------------------------------- oracles
def test_closed_form_oracle_agrees_with_the_simulator():
    from freqwin import bench

    ds = bench.reference_dataset(5)  # the full-rate reference experiment
    x, _ = ds.decimated(768)
    theta, forcing = ds.theta_true, ds.forcing
    exact = workloads.oracles.ode_solution(theta.A[0], theta.B[0], forcing.amplitudes,
                                           forcing.freqs, ds.x.values[:, 0],
                                           np.arange(768) / 768)
    assert np.abs(x.values - exact).max() / np.abs(exact).max() < 1e-12

    w = workloads.Simulate(5)
    w.setup()
    totals = traced(w, 1)
    assert totals["simulate.integrate_rk4"]["steps"] == workloads.SIM_FINE_RATE
    seed = w.make_input(0)
    ds, decimated = out = w.run(seed)
    assert w.check(seed, out) < workloads.SIM_TOL
    x, u = decimated[768]
    bad = dataclasses.replace(x, values=x.values * (1 + 1e-7))
    with pytest.raises(CheckError):
        w.check(seed, (ds, {**decimated, 768: (bad, u)}))


@pytest.mark.parametrize("order", [0.25, 2.5625, 4.0])
def test_mpmath_oracle_agrees_with_window_table(order):
    from freqwin import windows

    t = np.arange(768) / 768.0
    points = list(workloads.WindowDesign.POINTS)
    ref = workloads.oracles.cinf_derivatives(order, t[points], 4)
    table = windows.window_table(windows.WindowSpec("cinf", order), 768, 4)
    got = table.samples[:, points]
    floor = 1e-6 * np.abs(ref).max(axis=1, keepdims=True)
    assert (np.abs(got - ref) / np.maximum(np.abs(ref), floor)).max() < 1e-9


def test_window_design_checks_table_and_f_err():
    w = workloads.WindowDesign(4)
    w.setup()
    inp = w.make_input(0)
    table, ferr = out = w.run(inp)
    assert w.check(inp, out) < 1e-9
    key = (1, 1e-6)
    with pytest.raises(CheckError):
        w.check(inp, (table, {**ferr, key: ferr[key] + 1}))
    with pytest.raises(CheckError):
        w.check(inp, (table, {**ferr, key: ferr[key] - 1}))


# ------------------------------------------------------- counts and regression
def test_rate_sweep_counts_and_oracle(rate_sweep):
    ops = len(rate_sweep.combos)
    totals = traced(rate_sweep, ops)
    assert totals["spectral.fft_spectrum"]["calls"] == 6 * ops
    assert totals["identify.solve_ls"]["calls"] == ops
    inp = rate_sweep.make_input(ops)
    out = rate_sweep.run(inp)
    rate_sweep.check(inp, out)
    wrong = dataclasses.replace(out[0], param_error=out[0].param_error * 1.01 + 1e-8)
    with pytest.raises(CheckError):
        rate_sweep.check(inp, [wrong])


def test_noise_ensemble_counts_and_oracle(noise_ensemble):
    ops = len(noise_ensemble.combos)
    totals = traced(noise_ensemble, ops)
    assert totals["identify.solve_ls"]["calls"] == ops
    assert totals["simulate.add_noise"]["calls"] == 2 * ops
    inp = noise_ensemble.make_input(ops)
    report = noise_ensemble.run(inp)
    noise_ensemble.check(inp, report)
    theta = report.theta_hat
    shifted = dataclasses.replace(theta, A=(theta.A[0] * (1 + 1e-5),) + theta.A[1:])
    with pytest.raises(CheckError):
        noise_ensemble.check(inp, dataclasses.replace(report, theta_hat=shifted))


def test_inputs_do_not_repeat_within_a_run(rate_sweep, noise_ensemble):
    n = 3 * len(rate_sweep.combos)
    coeffs = {rate_sweep.make_input(i)[2].x.values[0, 0] for i in range(n)}
    assert len(coeffs) == n
    trials = {noise_ensemble.make_input(i)[1] for i in range(100)}
    assert len(trials) == 100
    design = workloads.WindowDesign(1)
    design.setup()
    orders = [design.order(i) for i in range(len(design.ORDERS))]
    assert sorted(orders) == sorted(design.ORDERS)
    assert all(0.25 <= o <= 8.0 and o != int(o) for o in orders)
