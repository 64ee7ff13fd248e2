"""freqwin benchmark: set-up time, latency, throughput, memory and accuracy
of the public pipeline, one workload per process.

Run from any directory of a source checkout (freqwin is imported from the
checkout's ``src``; nothing is installed or built):

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads are defined in ``workloads.py`` and listed in BENCHMARK.json.  A
single-workload run prints the environment, every metric with its unit and
sample count, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  It exits 1 if an op raised or an output failed its check.
``--workload all`` runs every workload untraced and traced, each in its own
process, prints all metrics and the measured tracing overhead, and exits 1 if
any check failed.

End-to-end metrics:
  setup_s      process start to the first timed op (imports, datasets,
               warm-up), as measured
  op_ms_p50    median op latency; op_ms_p90 when a run has >= 100 ops
  ops_per_s    ops per second of op time
  peak_rss_mb  peak resident memory of the process
  error_rate   ops that raised or failed their check, over ops attempted
  sim_rel_error / param_error_p50 / window_rel_error
               accuracy over the run's first ops, repeatable per seed
Op times are scaled to the reference speed of ``speed.py``, measured between
ops; ``*_wall`` entries give them as measured.  Set-up is not scaled: it is
one long phase of imports and large arrays, which the kernel does not track.
Only seed-independent, never-zero metrics go into the result line; error
rate and accuracy are reported beside it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads: with two threads on a 2-core x86
# machine the p90 of a 768 Hz ps estimate went from 11.4 ms to 20.5 ms.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("simulate", "rate_sweep", "noise_ensemble", "window_design")

# end-to-end metrics of the result line with --trace 0 (BENCHMARK.json lists
# the same); the report also carries op_ms_p90, error_rate and the accuracy
END_TO_END = ("setup_s", "op_ms_p50", "ops_per_s", "peak_rss_mb")
# per-layer metrics: (metric, layer, field, unit); fields are those of
# tracing.layer_totals, summed over the run's ops and divided by the op count
PER_LAYER = (
    ("simulate.forcing_eval.s", "simulate.forcing_eval", "s", "s"),
    ("simulate.forcing_eval.tone_samples", "simulate.forcing_eval", "tone_samples", "count"),
    ("simulate.integrate_rk4.self_s", "simulate.integrate_rk4", "self_s", "s"),
    ("simulate.integrate_rk4.steps", "simulate.integrate_rk4", "steps", "count"),
    ("simulate.sample_forcing.s", "simulate.sample_forcing", "s", "s"),
    ("simulate.resample.s", "simulate.resample", "s", "s"),
    ("simulate.add_noise.s", "simulate.add_noise", "s", "s"),
    ("simulate.add_noise.calls", "simulate.add_noise", "calls", "count"),
    ("windows.window_table.cold_s", "windows.window_table", "cold_s", "s"),
    ("windows.window_table.warm_s", "windows.window_table", "warm_s", "s"),
    ("windows.window_table.calls", "windows.window_table", "calls", "count"),
    ("windows.f_err.s", "windows.f_err", "s", "s"),
    ("windows.f_err.calls", "windows.f_err", "calls", "count"),
    ("spectral.apply_window.s", "spectral.apply_window", "s", "s"),
    ("spectral.apply_window.calls", "spectral.apply_window", "calls", "count"),
    ("spectral.fft_spectrum.s", "spectral.fft_spectrum", "s", "s"),
    ("spectral.fft_spectrum.calls", "spectral.fft_spectrum", "calls", "count"),
    ("spectral.fft_spectrum.points", "spectral.fft_spectrum", "points", "count"),
    ("corrections.correction_spectra.s", "corrections.correction_spectra", "s", "s"),
    ("corrections.correction_spectra.calls", "corrections.correction_spectra", "calls", "count"),
    ("identify.identify_from_signals.self_s", "identify.identify_from_signals", "self_s", "s"),
    ("identify.assemble_regression.s", "identify.assemble_regression", "s", "s"),
    ("identify.ps_baseline.self_s", "identify.ps_baseline", "self_s", "s"),
    ("identify.mixed_identify.self_s", "identify.mixed_identify", "self_s", "s"),
    ("identify.residual_spectrum.s", "identify.residual_spectrum", "s", "s"),
    ("identify.solve_ls.s", "identify.solve_ls", "s", "s"),
    ("identify.solve_ls.calls", "identify.solve_ls", "calls", "count"),
    ("identify.solve_ls.flops_computed", "identify.solve_ls", "flops_computed", "flop"),
    ("identify.rank_failures", "identify.solve_ls", "rank_failures", "count"),
    ("metrics.error_norms.s", "metrics.error_norms", "s", "s"),
    ("metrics.param_error.s", "metrics.param_error", "s", "s"),
    ("bench.reference_dataset.s", "bench.reference_dataset", "s", "s"),
    ("bench.sweep_rates.self_s", "bench.sweep_rates", "self_s", "s"),
    ("bench.estimate.self_s", "bench.estimate", "self_s", "s"),
)
# the same layers over the set-up phase (totals as measured, not per op)
SETUP_LAYER = (
    ("setup.bench.reference_dataset.s", "bench.reference_dataset", "s", "s"),
    ("setup.simulate.forcing_eval.s", "simulate.forcing_eval", "s", "s"),
    ("setup.simulate.integrate_rk4.self_s", "simulate.integrate_rk4", "self_s", "s"),
    ("setup.windows.window_table.cold_s", "windows.window_table", "cold_s", "s"),
)
TRACE_SUMMARY = (
    ("trace.op_s", "s"),  # traced op wall time
    ("trace.unattributed_s", "s"),  # op wall time outside every span
    ("trace.overhead_s", "s"),  # calibrated wrapper cost times spans per op
    ("trace.spans", "count"),
)

# calibration bursts: one at least every CALIBRATE_EVERY_S between ops, each
# lasting CALIBRATION_SHARE of the time since the previous one
CALIBRATE_EVERY_S = 0.05
CALIBRATION_SHARE = 0.05

PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER + SETUP_LAYER + TRACE_SUMMARY)


def import_program():
    """Import freqwin from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import freqwin
        import freqwin.bench  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import freqwin from {SRC}: {exc}")
    if not Path(freqwin.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: freqwin resolved outside {SRC}: {freqwin.__file__}")
    return freqwin


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    import sympy

    try:  # the checkout's own commit, not that of a repository around it
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10).stdout.split()
        sha = sha if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "freqwin").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__, "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def _aggregate(values, how):
    return {"max": max, "median": statistics.median}[how](values)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Set up and run one workload; returns (report, attempted, failed)."""
    import speed

    freqwin = import_program()
    import tracing
    from workloads import WORKLOADS, CheckError

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(freqwin.__name__)
        tracer.op = "setup"
    workload = WORKLOADS[name](seed)
    workload.setup()
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.op = None
    probe = speed.SpeedProbe()
    probe.burst()

    starts, latencies, accuracies, failed = [], [], [], 0
    phase_start = last_burst = time.perf_counter()
    i = 0
    while time.perf_counter() - phase_start < seconds:
        inp = workload.make_input(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:  # the op failed: count it, keep the loop going
            out = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        starts.append(t0)
        latencies.append(elapsed)
        if out is None:
            failed += 1
        else:
            try:
                acc = workload.check(inp, out)
                if i < workload.accuracy_ops:
                    accuracies.append(acc)
            except CheckError as exc:
                failed += 1
                print(f"check failed on op {i}: {exc}", file=sys.stderr)
        i += 1
        since = time.perf_counter() - last_burst
        if since >= CALIBRATE_EVERY_S:
            probe.burst(CALIBRATION_SHARE * since)
            last_burst = time.perf_counter()
    probe.burst(CALIBRATION_SHARE * (time.perf_counter() - last_burst))
    if tracer is not None:
        tracer.uninstall()

    ops = len(latencies)
    scales = [probe.scale(t0, t0 + dt) for t0, dt in zip(starts, latencies)]
    scaled = [dt * k for dt, k in zip(latencies, scales)]
    ms = sorted(x * 1e3 for x in scaled)
    report = {
        "setup_s": _metric(setup_s, "s", 1),
        "op_ms_p50": _metric(statistics.median(ms), "ms", ops),
        "ops_per_s": _metric(ops / sum(scaled), "1/s", ops),
        "error_rate": _metric(failed / ops, "1", ops),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    if ops >= 100:
        report["op_ms_p90"] = _metric(statistics.quantiles(ms, n=10)[-1], "ms", ops)
    acc_name, acc_unit, how = workload.accuracy
    if accuracies:
        report[acc_name] = _metric(_aggregate(accuracies, how), acc_unit, len(accuracies))
    # the same times as measured, before scaling to the reference speed
    report["op_ms_p50_wall"] = _metric(statistics.median(latencies) * 1e3, "ms", ops)
    report["ops_per_s_wall"] = _metric(ops / sum(latencies), "1/s", ops)
    report["kernel_ms"] = _metric(statistics.median(probe.medians) * 1e3, "ms",
                                  len(probe.medians))
    if tracer is not None:
        report.update(trace_metrics(tracer, scaled, dict(enumerate(scales))))
    return report, ops, failed


def trace_metrics(tracer, scaled, scales: dict) -> dict:
    import tracing

    ops = len(scaled)
    per_op = tracing.layer_totals(tracer.spans, scales)
    setup = tracing.layer_totals(tracer.spans, ["setup"])
    out = {}
    for metric, layer, fld, unit in PER_LAYER:
        out[metric] = _metric(per_op.get(layer, {}).get(fld, 0.0) / ops, unit, ops)
    for metric, layer, fld, unit in SETUP_LAYER:
        out[metric] = _metric(setup.get(layer, {}).get(fld, 0.0), unit, 1)
    spans = sum(1 for s in tracer.spans if isinstance(s.op, int))
    attributed = sum(t["self_s"] for t in per_op.values())
    op_s = sum(scaled) / ops
    mean_scale = statistics.fmean(scales.values())
    out["trace.op_s"] = _metric(op_s, "s", ops)
    out["trace.unattributed_s"] = _metric(op_s - attributed / ops, "s", ops)
    out["trace.overhead_s"] = _metric(tracing.wrapper_cost() * mean_scale * spans / ops,
                                      "s", ops)
    out["trace.spans"] = _metric(spans / ops, "count", ops)
    print("layer self time per op (traced, reference seconds):")
    for layer, t in sorted(per_op.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:36s} {t['self_s'] / ops * 1e3:12.4f} ms  {t['calls'] / ops:8.2f} calls")
    print(f"  {'(unattributed)':36s} {out['trace.unattributed_s']['value'] * 1e3:12.4f} ms")
    print(f"  {'(op wall time)':36s} {op_s * 1e3:12.4f} ms")
    absent = sorted({layer for _, layer, _, _ in PER_LAYER} - set(per_op))
    if absent:
        print("layers this workload does not call (reported as 0): " + ", ".join(absent))
    return out


def result_line(report: dict, trace: bool, attempted: int, failed: int) -> dict:
    names = PER_LAYER_NAMES if trace else END_TO_END
    metrics = {k: {"value": report[k]["value"], "unit": report[k]["unit"]} for k in names}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_report(name: str, report: dict) -> None:
    for metric, m in report.items():
        print(f"{name:15s} {metric:40s} {m['value']:16.6g} {m['unit']:6s} n={m['n']}")


def run_one(args) -> int:
    report, attempted, failed = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    print("env " + json.dumps(environment(args.seed)))
    print_report(args.workload, report)
    print("report " + json.dumps(report))
    result = result_line(report, bool(args.trace), attempted, failed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload untraced and traced, each in a process of its own."""
    import_program()
    print("env " + json.dumps(environment(args.seed)))
    ok = True
    for name in WORKLOAD_NAMES:
        reports = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            found = [json.loads(line[len("report "):]) for line in lines
                     if line.startswith("report ")]
            if proc.returncode != 0 or not found:
                ok = False
                print(f"{name} (trace {trace}) failed with exit code {proc.returncode}")
                sys.stderr.write(proc.stderr)
            if found:
                reports[trace] = found[0]
        if 0 in reports:
            print_report(name, reports[0])
        if 1 in reports:
            print_report(name, {k: v for k, v in reports[1].items() if k.startswith("trace.")})
        if 0 in reports and 1 in reports:
            untraced = 1.0 / reports[0]["ops_per_s"]["value"]
            traced = reports[1]["trace.op_s"]["value"]
            print(f"{name:15s} {'measured tracing overhead (traced - untraced op)':40s} "
                  f"{traced - untraced:16.6g} s      "
                  f"({(traced - untraced) / untraced:+.1%} of {untraced:.6g} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "freqwin" / "__init__.py").exists():
        raise SystemExit(f"perfbench: no freqwin sources under {SRC}")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
