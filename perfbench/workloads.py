"""The four benchmark workloads.

Each is a closed loop with one client: ``make_input(i)`` builds op i's input
from the workload seed (untimed), ``run`` is the timed call into freqwin's
public functions, and ``check`` compares the output with an oracle from
``oracles`` (untimed) and returns the op's accuracy figure.  No input repeats
within a run, so memoising identical calls cannot pass for a speed-up.

freqwin functions are looked up on their module at call time
(``bench.estimate``, not a from-import), so the traced run sees every call.
"""

from __future__ import annotations

import numpy as np

import oracles
from freqwin import bench, simulate, spectral, windows

RATES = (80, 128, 192, 256, 384, 512, 768)
SWEEP_WINDOWS = ("sin:1", "sin:2", "sin:3", "sin:4", "cinf:4", "cinf:0.25")
NOISE_RATES = (80, 768)
NOISE_METHODS = (("corrected", "cinf:4", 0), ("ps", None, 50),
                 ("mixed", "cinf:4", 10), ("naive", None, 0))
NOISE_SIGMA = 1e-2
# the simulate workload integrates the reference experiment at 1/24 of its
# fine rate (7680 RK4 steps, ~0.1 s): every swept rate still divides it, and
# ops that short are bracketed well by the speed probe; the full-rate op
# (4 s on 0.5 GB arrays) is slowed less than the probe's kernel by the
# machine's contention and changes speed within the op, and it varied by
# +-20% between runs on a shared 2-vCPU x86 VM.  rate_sweep and
# noise_ensemble still simulate at the full rate in their set-up, so their
# setup_s and peak_rss_mb carry its cost.
SIM_FINE_RATE = bench.REF_FINE_RATE // 24
DESIGN_SAMPLES = 768
DESIGN_MAX_DERIV = 4
DESIGN_THRESHOLDS = (1e-3, 1e-6, 1e-12)

# tolerances of the output checks, far above the observed agreement
# (observed: 1.8e-11 for the simulator at SIM_FINE_RATE over 60 seeds,
# 1e-14 at the reference rate, 1e-13 for noise-free parameter errors,
# 5e-9 relative for the worst-conditioned ps fit, 2.2e-9 for window rows
# at the worst of the 117 cinf orders)
SIM_TOL = 1e-8
FORCING_TOL = 1e-12
PARAM_ATOL = 1e-9
RESIDUAL_FLOOR = 1e-10  # of the residual's term magnitude (cancellation)
FIT_RTOL = 1e-6
WINDOW_TOL = 1e-6
FERR_SLACK = 1e-2  # relative margin around the threshold p
FERR_REFINE = 16  # f_err's documented envelope grid: 16 points per 1/T bin


class CheckError(AssertionError):
    """An output disagreed with its oracle."""


def _close(name: str, got: float, want: float, rtol: float, atol: float = 0.0):
    if not abs(got - want) <= rtol * abs(want) + atol:
        raise CheckError(f"{name}: got {got!r}, oracle {want!r}")


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


class Workload:
    """Subclasses define setup(), make_input(i), run(inp) and
    check(inp, out) -> accuracy, which raises CheckError on a wrong output."""

    name = ""
    accuracy = ("", "1", "max")  # metric name, unit, aggregate over ops
    accuracy_ops = 1  # accuracy covers ops 0..accuracy_ops-1, so it repeats per seed
    combos: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def _combo(self, i: int):
        """Combination for op i: every combination once per cycle, the order
        shuffled per cycle from the seed."""
        cycle, pos = divmod(i, len(self.combos))
        return self.combos[_rng(self.seed, cycle).permutation(len(self.combos))[pos]]


class Simulate(Workload):
    name = "simulate"
    accuracy = ("sim_rel_error", "1", "max")
    accuracy_ops = 5

    def setup(self):
        ds = bench.reference_dataset(self.seed * 1000, fine_rate=SIM_FINE_RATE)
        ds.decimated(RATES[0])

    def make_input(self, i):
        return self.seed * 1000 + i + 1

    def run(self, seed):
        ds = bench.reference_dataset(seed, fine_rate=SIM_FINE_RATE)
        return ds, {f_s: ds.decimated(f_s) for f_s in RATES}

    def check(self, seed, out):
        ds, decimated = out
        theta, forcing = ds.theta_true, ds.forcing
        if not np.array_equal(theta.A[1], np.eye(theta.structure.n_x)):
            raise CheckError("A_1 is not the identity")
        eig = np.linalg.eigvals(-theta.A[0]).real
        if eig.min() < simulate.EIG_REAL_MIN or eig.max() > simulate.EIG_REAL_MAX:
            raise CheckError(f"dynamics eigenvalues outside the accepted window: {eig}")
        worst = 0.0
        for f_s, (x, u) in decimated.items():
            t = np.arange(f_s + 1) / f_s * ds.x.length
            stride = ds.x.num_samples // f_s
            if not np.array_equal(x.values, ds.x.values[:, ::stride]):
                raise CheckError(f"decimation to {f_s} Hz is not a stride-{stride} slice")
            got = np.hstack([x.values, x.terminal[:, None]])
            exact = oracles.ode_solution(theta.A[0], theta.B[0], forcing.amplitudes,
                                         forcing.freqs, ds.x.values[:, 0], t)
            worst = max(worst, float(np.abs(got - exact).max() / np.abs(exact).max()))
            got_u = np.hstack([u.values, u.terminal[:, None]])
            exact_u = oracles.multisine_values(forcing.amplitudes, forcing.freqs, t)
            err_u = float(np.abs(got_u - exact_u).max() / np.abs(exact_u).max())
            if err_u > FORCING_TOL:
                raise CheckError(f"forcing at {f_s} Hz off by {err_u:.3e}")
        if worst > SIM_TOL:
            raise CheckError(f"state record off the closed form by {worst:.3e}")
        return worst


def _combine(parts, coeffs, length: float) -> spectral.Signal:
    return spectral.Signal(
        length=length,
        values=sum(c * p.values for c, p in zip(coeffs, parts)),
        terminal=sum(c * p.terminal for c, p in zip(coeffs, parts)))


class RateSweep(Workload):
    name = "rate_sweep"
    accuracy = ("param_error_p50", "1", "median")
    combos = tuple((f_s, w) for f_s in RATES for w in SWEEP_WINDOWS)
    accuracy_ops = len(combos)

    def setup(self):
        # two responses of one system under different forcings and initial
        # states; the ODE is linear, so any complex combination of them is a
        # fresh noise-free record pair of the same system
        base = bench.reference_dataset(self.seed)
        other_seed = self.seed * 1000 + 999
        forcing = simulate.multisine(bench.REF_NUM_TONES, bench.REF_F_MIN, bench.REF_F_MAX,
                                     other_seed, n_channels=base.theta_true.structure.n_u)
        config = simulate.SimConfig(structure=base.theta_true.structure,
                                    dt=base.x.length / bench.REF_FINE_RATE,
                                    length=base.x.length, seed=other_seed)
        other = bench.Dataset(
            x=simulate.integrate_rk4(base.theta_true, forcing, config),
            u=simulate.sample_forcing(forcing, base.x.length, bench.REF_FINE_RATE),
            theta_true=base.theta_true, forcing=forcing, seed=other_seed)
        self.theta = base.theta_true
        self.forcings = (base.forcing, other.forcing)
        self.records = {f_s: (base.decimated(f_s), other.decimated(f_s)) for f_s in RATES}
        for f_s, w in self.combos:  # builds every window table once
            bench.sweep_rates(self._dataset(f_s, (1.0, 0.0)), [f_s], "corrected",
                              bench.parse_window(w))

    def _dataset(self, f_s, coeffs) -> bench.Dataset:
        (x0, u0), (x1, u1) = self.records[f_s]
        amps = sum(c * f.amplitudes for c, f in zip(coeffs, self.forcings))
        return bench.Dataset(
            x=_combine((x0, x1), coeffs, x0.length),
            u=_combine((u0, u1), coeffs, u0.length),
            theta_true=self.theta,
            forcing=simulate.ForcingSpec(amplitudes=amps, freqs=self.forcings[0].freqs),
            seed=self.seed)

    def make_input(self, i):
        f_s, w = self._combo(i)
        c = _rng(self.seed, 1 << 20, i).standard_normal((2, 2))
        return f_s, w, self._dataset(f_s, c[0] + 1j * c[1])

    def run(self, inp):
        f_s, w, ds = inp
        return bench.sweep_rates(ds, [f_s], "corrected", bench.parse_window(w))

    def check(self, inp, out):
        f_s, w, ds = inp
        if len(out) != 1:
            raise CheckError(f"expected one sweep row, got {len(out)}")
        row = out[0]
        label = w.replace(":", "_")
        if (row.swept_value, row.method, row.window) != (f_s, "corrected", label):
            raise CheckError(f"row labelled {row.swept_value, row.method, row.window}")
        A0, B0 = self.theta.A[0], self.theta.B[0]
        fit = oracles.first_order_fit(ds.x.values, ds.u.values, ds.x.length, w, 0)
        err = oracles.param_distance(fit["A0"], fit["B0"], A0, B0)
        _close("param_error", row.param_error, err, 1e-6, PARAM_ATOL)
        l2, probe = oracles.true_residual(fit, A0, B0, ds.x.length, 2.0)
        norms = np.sqrt((np.abs(fit["L1"]) ** 2).sum(axis=0))
        scale_l2 = float(np.sqrt((norms**2).sum() / ds.x.length))
        scale_probe = float(norms[np.argmin(np.abs(fit["freqs"] - 2.0))])
        _close("residual_l2", row.residual_l2, l2, 1e-6, RESIDUAL_FLOOR * scale_l2)
        _close("residual_probe", row.residual_probe, probe, 1e-6,
               RESIDUAL_FLOOR * scale_probe)
        return row.param_error


class NoiseEnsemble(Workload):
    name = "noise_ensemble"
    accuracy = ("param_error_p50", "1", "median")
    combos = tuple((f_s,) + m for f_s in NOISE_RATES for m in NOISE_METHODS)
    accuracy_ops = 5 * len(combos)

    def setup(self):
        self.dataset = bench.reference_dataset(self.seed)
        x, u = self.dataset.x, self.dataset.u
        # the oracle's noise-free records, decimated here rather than by freqwin
        self.records = {f_s: (x.values[:, ::x.num_samples // f_s],
                              u.values[:, ::u.num_samples // f_s]) for f_s in NOISE_RATES}
        for combo in self.combos:  # noise trial 0 is kept for the warm-up
            self.run((combo, 0))

    def make_input(self, i):
        return self._combo(i), i + 1

    def run(self, inp):
        (f_s, method, w, n_p), trial = inp
        window = bench.parse_window(w) if w else None
        return bench.estimate(self.dataset, f_s, method, window, n_p,
                              sigma=NOISE_SIGMA, noise_trial=trial)

    def check(self, inp, report):
        (f_s, method, w, n_p), trial = inp
        x, u = self.records[f_s]
        seed = self.dataset.seed
        xn = x + oracles.documented_noise(x.shape, NOISE_SIGMA, seed, trial)
        un = u + oracles.documented_noise(u.shape, NOISE_SIGMA, seed,
                                          trial + oracles.INPUT_TRIAL_OFFSET)
        fit = oracles.first_order_fit(xn, un, self.dataset.x.length, w, n_p)
        if report.method != method:
            raise CheckError(f"report labelled {report.method!r}")
        A0, B0 = report.theta_hat.A[0], report.theta_hat.B[0]
        scale = oracles.param_distance(fit["A0"], fit["B0"], 0 * A0, 0 * B0)
        _close("theta_hat", oracles.param_distance(A0, B0, fit["A0"], fit["B0"]), 0.0,
               0.0, FIT_RTOL * scale)
        _close("residual_l2", report.residual_l2, fit["fit_l2"], FIT_RTOL)
        _close("imag_norm", report.imag_norm, fit["imag_norm"], FIT_RTOL, FIT_RTOL * scale)
        truth = self.dataset.theta_true
        return oracles.param_distance(A0, B0, truth.A[0], truth.B[0])


class WindowDesign(Workload):
    name = "window_design"
    accuracy = ("window_rel_error", "1", "max")
    accuracy_ops = 3
    # fractional orders on a 1/16 grid in [0.25, 8]; integers are left out so
    # the warm-up order 1 never repeats
    ORDERS = tuple(m / 16 for m in range(4, 129) if m % 16)
    STRATA = 6
    # every 24th sample plus four near the edges, where the rational
    # prefactors lose the most digits
    POINTS = tuple(sorted({6, 12, 756, 762} | set(range(24, DESIGN_SAMPLES, 24))))

    def setup(self):
        # ops cycle through STRATA contiguous bands of orders, each band in a
        # seeded order, so every run samples the whole range evenly
        bands = np.array_split(np.array(self.ORDERS), self.STRATA)
        self.strata = [_rng(self.seed, j).permutation(b) for j, b in enumerate(bands)]
        self.times = np.arange(DESIGN_SAMPLES) * (1.0 / DESIGN_SAMPLES)
        spec = windows.WindowSpec(family="cinf", order=1.0)
        windows.window_table(spec, DESIGN_SAMPLES, DESIGN_MAX_DERIV)
        for k in (0, 1):
            windows.f_err(spec, k, DESIGN_THRESHOLDS[0])

    def order(self, i: int) -> float:
        band = self.strata[i % self.STRATA]
        return float(band[(i // self.STRATA) % len(band)])

    def make_input(self, i):
        order = self.order(i)
        t = self.times[list(self.POINTS)]
        return order, oracles.cinf_derivatives(order, t, DESIGN_MAX_DERIV)

    def run(self, inp):
        order, _ = inp
        spec = windows.WindowSpec(family="cinf", order=order)
        table = windows.window_table(spec, DESIGN_SAMPLES, DESIGN_MAX_DERIV)
        ferr = {(k, p): windows.f_err(spec, k, p) for k in (0, 1) for p in DESIGN_THRESHOLDS}
        return table, ferr

    def check(self, inp, out):
        order, ref = inp
        table, ferr = out
        got = table.samples[:, list(self.POINTS)]
        if got.shape != ref.shape:
            raise CheckError(f"table shape {table.samples.shape}")
        floor = 1e-6 * np.abs(ref).max(axis=1, keepdims=True)
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), floor)
        if rel.max() > WINDOW_TOL:
            raise CheckError(f"cinf_{order} table rows off by {rel.max():.3e}")
        for (k, p), f_e in ferr.items():
            self._check_ferr(order, k, p, f_e)
        return float(rel[1:].max())

    @staticmethod
    def _check_ferr(order, k, p, f_e):
        """f_err = m/T means the envelope sup_{f' >= f} |W_k(f')| / area,
        sampled on the 16x refined grid, first drops below p at bin m: some
        refined point in [m-1, m) reaches p, none from m on does.  "None"
        is checked over two bins: the transform's side lobes, about 1/T
        apart, decay with f, so an f_err set too low leaves a lobe >= p there.
        """
        if not np.isfinite(f_e) or f_e != int(f_e) or f_e < 1:
            raise CheckError(f"f_err(cinf_{order}, {k}, {p}) = {f_e}")
        m = int(f_e)
        freqs = (m - 1) + np.arange(3 * FERR_REFINE + 1) / FERR_REFINE
        mag, area = oracles.window_transform(order, k, freqs)
        before, after = mag[:FERR_REFINE] / area, mag[FERR_REFINE:] / area
        if after.max() >= p * (1 + FERR_SLACK) or (m > 1 and before.max() < p * (1 - FERR_SLACK)):
            raise CheckError(f"f_err(cinf_{order}, {k}, {p}) = {f_e}: envelope "
                             f"{before.max():.3e} before, {after.max():.3e} after")

WORKLOADS = {w.name: w for w in (Simulate, RateSweep, NoiseEnsemble, WindowDesign)}
