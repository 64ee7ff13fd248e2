"""Command-line front end.

Subcommands: simulate | identify | window | sweep | montecarlo | overlap.
Every successful run writes its fully resolved options to run_config.txt
next to its outputs, and ``--config`` with that file alone replays the run.
A flat key = value config file's entries are parsed as flags placed before
the command line's own, so argparse checks them and explicit flags win; a
key that is not an option of the subcommand is an error.  The output
directory is created only once a command's work has succeeded.

Exit codes: 0 success, 2 configuration/usage errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, io, metrics
from .identify import ModelStructure, RankDeficiencyError, identify_from_signals
from .windows import f_err, overlap_variance, window_spectrum, window_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# points of an overlap tau grid: each costs one overlap_variance per window,
# 0.1-0.3 ms (timed on a 2-vCPU x86 VM), so the cap is about 20 s per window
MAX_TAU_POINTS = 100_000


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _CheckParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error as ValueError, to name the config key
        raise ValueError(message)


def _config_flags(args) -> list[str]:
    """The config file's entries for ``args.command`` as ``--key=value`` flags.

    A key that is not an option of the subcommand, or a bad value, raises
    ValueError naming the file and the key.
    """
    check = build_parser(_CheckParser)
    flags = []
    for key, value in io.read_config_file(args.config).items():
        try:
            if key == "command":
                if value != args.command:
                    raise ValueError(f"does not match subcommand {args.command}")
                continue
            if key == "func" or not hasattr(args, key):
                raise ValueError(f"not an option of {args.command}")
            flags.append(f"--{key.replace('_', '-')}={value}")
            check.parse_args([args.command, flags[-1]])
        except ValueError as exc:
            raise ValueError(f"{args.config}: {key} = {value}: {exc}") from None
    return flags


def _abs_path(text: str) -> str:
    """Input paths are kept absolute so run_config.txt replays anywhere."""
    return str(Path(text).resolve())


def _comma_list(text: str, flag: str) -> list[str]:
    """The non-empty entries of a comma-separated option; none is an error."""
    items = [v for v in text.split(",") if v]
    if not items:
        raise ValueError(f"{flag} needs at least one comma-separated value")
    return items


def _dataset_from_args(args, rates) -> bench.Dataset:
    for f_s in rates:  # before the simulation, which a bad rate would waste
        bench.check_rate(f_s, args.fine_rate)
    return bench.reference_dataset(seed=args.seed, length=args.length,
                                   fine_rate=args.fine_rate)


def cmd_simulate(args) -> int:
    dataset = _dataset_from_args(args, [args.fs])
    x, u = dataset.decimated(args.fs, args.sigma)
    out = _out_dir(args)
    io.write_signal_csv(out / "x.csv", x)
    io.write_signal_csv(out / "u.csv", u)
    io.write_truth_json(out / "truth.json", dataset.theta_true, dataset.forcing,
                        seeds={"root": dataset.seed})
    print(f"wrote x.csv, u.csv, truth.json to {out}")
    return EXIT_OK


def cmd_identify(args) -> int:
    if args.x is None or args.u is None:
        raise ValueError("identify needs --x and --u")
    x = io.read_signal_csv(args.x)
    u = io.read_signal_csv(args.u)
    truth = io.read_truth_json(args.truth) if args.truth else None
    window = bench.parse_window(args.window) if args.window else None
    structure = ModelStructure(n_x=x.num_channels, n_u=u.num_channels,
                               n_a=args.na, n_b=args.nb)
    band = None
    if args.f_min is not None or args.f_max is not None:
        freqs = np.fft.fftfreq(x.num_samples, d=x.length / x.num_samples)
        lo = args.f_min if args.f_min is not None else -np.inf
        hi = args.f_max if args.f_max is not None else np.inf
        band = np.where((np.abs(freqs) >= lo) & (np.abs(freqs) <= hi))[0]
    report = identify_from_signals(x, u, structure, window_spec=window, n_p=args.np,
                                   band=band)
    err = None if truth is None else metrics.param_error(truth, report.theta_hat)
    out = _out_dir(args)
    io.write_report_json(out / "report.json", report,
                         window=args.window, seeds={})
    res = report.per_frequency_residual
    io.write_csv(out / "residual.csv", ["f", "residual_norm"],
                  list(zip(res.freqs.tolist(), np.abs(res.coeffs[0]).tolist())))
    if err is not None:
        print(f"parameter error vs truth: {err:.6e}")
    print(f"method={report.method} residual_l2={report.residual_l2:.6e} "
          f"wall_time={report.wall_time:.4f}s -> {out}")
    return EXIT_OK


def cmd_window(args) -> int:
    if args.window is None:
        raise ValueError("window needs --window")
    spec = bench.parse_window(args.window)
    n = args.samples
    max_deriv = 0 if spec.family == "rectangular" else args.max_deriv
    try:
        table = window_table(spec, n, max_deriv)
        s = np.arange(n) / n
    except MemoryError:
        raise ValueError(f"--samples {n} needs {8.0 * (max_deriv + 2) * n:.3g} bytes "
                         "of window samples, more than memory holds") from None
    spectrum = window_spectrum(spec, 0, f_max=args.f_max)
    rows = []
    for k in range(max_deriv + 1):
        for p in (1e-3, 1e-6, 1e-12):
            val = f_err(spec, k, p)
            rows.append([k, p, val if np.isfinite(val) else ">10000"])
    out = _out_dir(args)
    header = ["t"] + [f"d{k}" for k in range(max_deriv + 1)]
    io.write_csv(out / "window.csv", header,
                  [[s[j]] + table.samples[:, j].tolist() for j in range(n)])
    io.write_spectrum_csv(out / "spectrum.csv", spectrum)
    io.write_csv(out / "ferr.csv", ["deriv", "p", "f_err_over_T"], rows)
    print(f"wrote window.csv, spectrum.csv, ferr.csv to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    rates = [float(v) for v in _comma_list(args.fs_list, "--fs-list")]
    windows = [bench.parse_window(w) for w in _comma_list(args.windows, "--windows")]
    dataset = _dataset_from_args(args, rates)
    results = [r for window in windows
               for r in bench.sweep_rates(dataset, rates, window=window, n_p=args.np,
                                          probe_freq=args.probe_freq)]
    out = _out_dir(args)
    io.write_csv(out / "sweep.csv",
                  ["fs", "method", "window", "residual_probe", "residual_l2",
                   "param_error", "wall_time"],
                  [[r.swept_value, r.method, r.window, r.residual_probe,
                    r.residual_l2, r.param_error, r.wall_time] for r in results])
    print(f"wrote sweep.csv ({len(results)} rows) to {out}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    windows = [bench.parse_window(w) for w in _comma_list(args.windows, "--windows")]
    if args.trials < 1:  # before the simulation, as the rate is
        raise ValueError(f"--trials {args.trials} must be at least 1")
    dataset = _dataset_from_args(args, [args.fs])
    truth = dataset.theta_true
    rows = []
    for window in windows:
        reports = bench.monte_carlo(dataset, args.fs, args.sigma, args.trials,
                                    window, n_p=args.np)
        err_curve, std_curve = metrics.ensemble_stats(reports, truth)
        rows += [[window.label, k + 1, err_curve[k], std_curve[k],
                  metrics.param_error(truth, report.theta_hat)]
                 for k, report in enumerate(reports)]
    out = _out_dir(args)
    io.write_csv(out / "ensemble.csv",
                  ["window", "k", "cummean_error", "param_std", "trial_error"],
                  rows)
    print(f"wrote ensemble.csv ({len(rows)} rows) to {out}")
    return EXIT_OK


def cmd_overlap(args) -> int:
    windows = _comma_list(args.windows, "--windows")
    if not (args.tau_step > 0 and 0 <= args.tau_min <= args.tau_max < 1):
        raise ValueError("overlap grid needs tau-step > 0 and "
                         "0 <= tau-min <= tau-max < 1")
    stop = args.tau_max + 1e-12
    points = (stop - args.tau_min) / args.tau_step  # inf for a subnormal step
    if points > MAX_TAU_POINTS:
        raise ValueError(f"--tau-step {args.tau_step:g} asks for {points:.3g} tau grid "
                         f"points, more than the {MAX_TAU_POINTS:.0e} allowed")
    taus = np.arange(args.tau_min, stop, args.tau_step)
    base_windows = args.num_windows  # windows at zero overlap = L / T
    rows = []
    for text in windows:
        spec = bench.parse_window(text)
        var0 = overlap_variance(spec, 0.0, base_windows)
        for tau in taus:
            # fixed data length L = base_windows * T; windows that fit
            k = int(np.floor((base_windows - 1) / (1.0 - tau))) + 1
            var = overlap_variance(spec, float(tau), k)
            rows.append([text, float(tau), k, var, var / var0])
    out = _out_dir(args)
    io.write_csv(out / "overlap.csv",
                  ["window", "tau", "num_windows", "variance", "normalized"],
                  rows)
    print(f"wrote overlap.csv ({len(rows)} rows) to {out}")
    return EXIT_OK


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The top-level parser and one subparser per subcommand, of ``parser_class``.

    Each option's name, type and default live only here; run_config.txt
    and config files use the option's destination name as key.
    """
    parser = parser_class(
        prog="freqwin",
        description="Frequency-domain ODE identification with windowing corrections")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, help="flat key = value config file")
        p.add_argument("--out", type=str, default="out", help="output directory")

    def dataset(p):  # the simulated reference experiment
        p.add_argument("--seed", type=int, default=bench.REF_SEED)
        p.add_argument("--length", type=float, default=bench.REF_LENGTH)
        p.add_argument("--fine-rate", type=int, default=bench.REF_FINE_RATE)

    p = sub.add_parser("simulate", help="generate the benchmark dataset")
    common(p)
    dataset(p)
    p.add_argument("--fs", type=float, default=bench.REF_FS)
    p.add_argument("--sigma", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="estimate parameters from CSV records")
    common(p)
    p.add_argument("--x", type=_abs_path, help="state record CSV (required)")
    p.add_argument("--u", type=_abs_path, help="input record CSV (required)")
    p.add_argument("--truth", type=_abs_path)
    p.add_argument("--window", type=str, default="cinf:4",
                   help="window name; rect for the rectangular route")
    p.add_argument("--np", type=int, default=0, help="polynomial transient order")
    p.add_argument("--na", type=int, default=1,
                   help="highest state-derivative order")
    p.add_argument("--nb", type=int, default=0,
                   help="highest input-derivative order")
    p.add_argument("--f-min", type=float)
    p.add_argument("--f-max", type=float)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("window", help="window samples, spectrum, f_err table")
    common(p)
    p.add_argument("--window", type=str, help="window name (required)")
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--max-deriv", type=int, default=3)
    p.add_argument("--f-max", type=float, default=128.0)
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("sweep", help="sampling-rate sweep")
    common(p)
    dataset(p)
    p.add_argument("--fs-list", type=str, default="128,192,256,384,512,768")
    p.add_argument("--windows", type=str, default="sin:1,sin:2,sin:3,sin:4")
    p.add_argument("--np", type=int, default=0)
    p.add_argument("--probe-freq", type=float, default=2.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("montecarlo", help="noise ensemble at fixed rate")
    common(p)
    dataset(p)
    p.add_argument("--fs", type=float, default=bench.REF_FS)
    p.add_argument("--sigma", type=float, default=1e-2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--windows", type=str, default="sin:1,cinf:4")
    p.add_argument("--np", type=int, default=0)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("overlap", help="overlap-variance curves")
    common(p)
    p.add_argument("--windows", type=str,
                   default="rect,sin:1,sin:2,sin:3,sin:4,poly:6")
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=0.95)
    p.add_argument("--tau-step", type=float, default=0.05,
                   help=f"tau grid step; at most {MAX_TAU_POINTS:.0e} grid points, "
                        "about 20 s per window at 0.1-0.3 ms per point")
    p.add_argument("--num-windows", type=int, default=20)
    p.set_defaults(func=cmd_overlap)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args([args.command, *_config_flags(args),
                                      *argv[1:]])
        rc = args.func(args)
        resolved = {k: v for k, v in vars(args).items()
                    if k not in ("config", "out", "func") and v is not None}
        io.write_resolved_config(Path(args.out) / "run_config.txt", resolved)
        return rc
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankDeficiencyError, RuntimeError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
