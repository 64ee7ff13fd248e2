import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import freqwin.bench as bench
from freqwin import (ForcingSpec, ModelParams, ModelStructure, SimConfig,
                     Signal, add_noise, fft_spectrum, integrate_rk4, multisine,
                     random_system, resample, sample_forcing)
from freqwin import simulate, spectral
from freqwin.simulate import COMPONENT_INIT, _phase_tables, rng_for

SCALAR = ModelStructure(n_x=1, n_u=1, n_a=1, n_b=0)


def scalar_system(a, b=0.0):
    return ModelParams(SCALAR, A=(np.array([[a]]), np.eye(1)),
                       B=(np.array([[b]]),))


def silent_forcing():
    return ForcingSpec(amplitudes=np.zeros((1, 1)), freqs=np.array([1.0]))


def rk4_step_loop(theta, forcing, config, chunk=8192):
    """Step-by-step RK4 oracle: z_{n+1} = phi z_n + G_n in complex long
    double, the drive sampled by ``ForcingSpec.evaluate`` on the half-step
    grid (chunk steps at a time)."""
    long = np.complex256 if hasattr(np, "complex256") else np.complex128
    s = theta.structure
    n_steps = config.num_steps
    h = np.longdouble(config.length) / np.longdouble(n_steps)
    dim = s.n_a * s.n_x
    A = np.eye(dim, k=s.n_x, dtype=long)  # companion form of z = [x, x', ..]
    A[dim - s.n_x:] = -np.hstack(theta.A[: s.n_a])
    if config.x0 is None:
        rng = rng_for(config.seed, COMPONENT_INIT)
        x0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        x0 = np.zeros(dim, dtype=complex)
        x0[: len(config.x0)] = config.x0
    A2 = A @ A
    A3 = A2 @ A
    eye = np.eye(dim, dtype=long)
    phi = eye + h * A + h**2 / 2 * A2 + h**3 / 6 * A3 + h**4 / 24 * A3 @ A
    psi_start = h / 6 * eye + h**2 / 6 * A + h**3 / 12 * A2 + h**4 / 24 * A3
    psi_mid = 2 * h / 3 * eye + h**2 / 3 * A + h**3 / 12 * A2
    psi_end = h / 6 * eye

    states = np.empty((dim, n_steps + 1), dtype=complex)
    states[:, 0] = x0
    z = states[:, 0].astype(long)
    for lo in range(0, n_steps, chunk):
        hi = min(lo + chunk, n_steps)
        t_half = np.arange(2 * lo, 2 * hi + 1) * (config.length / (2 * n_steps))
        C = np.zeros((dim, t_half.size), dtype=complex)
        for k in range(s.n_b + 1):
            C[(s.n_a - 1) * s.n_x:] += theta.B[k] @ forcing.evaluate(t_half, deriv=k)
        G = (psi_start @ C[:, 0:-2:2].astype(long)
             + psi_mid @ C[:, 1:-1:2].astype(long)
             + psi_end @ C[:, 2::2].astype(long))
        for n in range(lo, hi):
            z = phi @ z + G[:, n - lo]
            states[:, n + 1] = z.astype(complex)
    x = states[: s.n_x]
    return Signal(length=config.length, values=x[:, :n_steps], terminal=x[:, n_steps])


def with_terminal(sig):
    return np.hstack([sig.values, sig.terminal[:, None]])


def rel_dev(got, want):
    return np.abs(with_terminal(got) - with_terminal(want)).max() / np.abs(
        with_terminal(want)).max()


def exact_ode_record(theta, forcing, x0, t):
    """RK4-free oracle for x' + A_0 x = B_0 u (A_1 = I), u a multisine:
    x(t) = e^{-A_0 t}(x_0 - sum_j q_j) + sum_j q_j e^{i w_j t} with
    q_j = (i w_j I + A_0)^{-1} B_0 a_j."""
    A0, B0 = theta.A[0], theta.B[0]
    omega = 2 * np.pi * forcing.freqs
    q = np.stack([np.linalg.solve(1j * w * np.eye(len(A0)) + A0, B0 @ a)
                  for w, a in zip(omega, forcing.amplitudes.T)], axis=1)
    hom = expm(-A0[None] * t[:, None, None]) @ (x0 - q.sum(axis=1))
    return hom.T + q @ np.exp(1j * np.outer(omega, t))


class TestRandomSystem:
    def test_deterministic(self):
        s = ModelStructure(n_x=5, n_u=5, n_a=1, n_b=0)
        a = random_system(s, 11)
        b = random_system(s, 11)
        for m1, m2 in zip(a.A + a.B, b.A + b.B):
            np.testing.assert_array_equal(m1, m2)
        c = random_system(s, 12)
        assert not np.allclose(a.A[0], c.A[0])

    def test_benchmark_free_parameter_count(self):
        s = ModelStructure(n_x=5, n_u=5, n_a=1, n_b=0)
        theta = random_system(s, 0)
        assert theta.free_stack().size == 50
        np.testing.assert_array_equal(theta.A[1], np.eye(5))

    def test_draw_statistics(self):
        s = ModelStructure(n_x=10, n_u=10, n_a=1, n_b=0)
        entries = np.concatenate([
            random_system(s, seed).free_stack() for seed in range(50)
        ])
        assert abs(entries.mean()) < 0.05
        assert abs(entries.std() - 1.0) < 0.05

    def test_eigenvalues_within_bounds(self):
        for seed in range(20):
            theta = random_system(ModelStructure(5, 5, 1, 0), seed)
            ev = np.linalg.eigvals(-theta.A[0])
            assert ev.real.max() <= 5.0 and ev.real.min() >= -25.0


class TestMultisine:
    def test_benchmark_tone_grid(self):
        spec = multisine(85, 1.0, 20 * np.sqrt(2), seed=0)
        assert spec.num_tones == 85
        assert spec.freqs[0] == pytest.approx(1.0)
        assert spec.freqs[-1] == pytest.approx(28.284271247461902)
        assert np.diff(spec.freqs)[0] == pytest.approx((20 * np.sqrt(2) - 1) / 84)

    def test_single_tone(self):
        spec = multisine(1, 5.0, 5.0, seed=0)
        assert spec.freqs.tolist() == [5.0]

    def test_evaluate_matches_term_sum(self):
        spec = multisine(7, 1.0, 9.0, seed=3, n_channels=2)
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 1, 5)
        direct = np.zeros((2, 5), dtype=complex)
        for j in range(7):
            direct += spec.amplitudes[:, j:j + 1] * np.exp(2j * np.pi * spec.freqs[j] * t)[None, :]
        np.testing.assert_allclose(spec.evaluate(t), direct, rtol=1e-13)

    def test_derivative_evaluation(self):
        spec = multisine(3, 1.0, 3.0, seed=1)
        t = np.array([0.21])
        h = 1e-7
        fd = (spec.evaluate(t + h) - spec.evaluate(t - h)) / (2 * h)
        np.testing.assert_allclose(spec.evaluate(t, deriv=1), fd, rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            multisine(0, 1.0, 2.0, seed=0)
        with pytest.raises(ValueError):
            ForcingSpec(amplitudes=np.ones((1, 2)), freqs=np.array([2.0, 1.0]))

    # a NaN tone used to pass the increasing-grid check and fail in the SVD
    # of the resonance screen; an infinite amplitude as a state blow-up
    @pytest.mark.parametrize("freq", [np.nan, np.inf])
    def test_non_finite_frequency_rejected(self, freq):
        with pytest.raises(ValueError, match="frequencies and amplitudes must be finite"):
            ForcingSpec(amplitudes=np.ones((1, 2)), freqs=np.array([1.0, freq]))

    @pytest.mark.parametrize("amp", [np.inf, complex(1.0, np.nan)])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="frequencies and amplitudes must be finite"):
            ForcingSpec(amplitudes=np.array([[1.0, amp]]), freqs=np.array([1.0, 2.0]))


class TestIntegrateRK4:
    def test_scalar_exponential(self):
        cfg = SimConfig(structure=SCALAR, dt=1e-4, length=1.0,
                        x0=np.array([1.0]))
        out = integrate_rk4(scalar_system(1.0), silent_forcing(), cfg)
        assert abs(out.terminal[0] - np.exp(-1.0)) < 1e-10

    def test_forced_scalar_matches_analytic_solution(self):
        # dx/dt + a x = exp(2 pi i f0 t): particular + homogeneous, exact
        a, f0 = 8.0, 4.0
        theta = scalar_system(a, b=1.0)
        forcing = ForcingSpec(amplitudes=np.array([[1.0 + 0j]]),
                              freqs=np.array([f0]))
        x0 = 0.3 - 0.1j
        cfg = SimConfig(structure=SCALAR, dt=1.0 / 8192, length=3.0,
                        x0=np.array([x0]))
        out = integrate_rk4(theta, forcing, cfg)
        gain = 1.0 / (a + 2j * np.pi * f0)
        t = out.times
        exact = gain * np.exp(2j * np.pi * f0 * t) + (x0 - gain) * np.exp(-a * t)
        assert np.abs(out.values[0] - exact).max() < 1e-9
        # steady response amplitude once the transient has decayed (a t > 20)
        late = t > 2.5
        assert np.abs(np.abs(out.values[0][late]) - abs(gain)).max() < 1e-7

    def test_convergence_order_four(self):
        theta = scalar_system(1.0)
        errs, dts = [], [0.1, 0.05, 0.025, 0.0125, 0.00625]
        for dt in dts:
            cfg = SimConfig(structure=SCALAR, dt=dt, length=1.0,
                            x0=np.array([1.0]))
            out = integrate_rk4(theta, silent_forcing(), cfg)
            errs.append(abs(out.terminal[0] - np.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_companion_second_order(self):
        # x'' + x = 0 with x(0) = 1, x'(0) = 0: cosine
        s = ModelStructure(n_x=1, n_u=1, n_a=2, n_b=0)
        w = 2 * np.pi  # use x'' + w^2 x = 0 scaled: A_0 = w^2
        theta = ModelParams(s, A=(np.array([[w**2]]), np.zeros((1, 1)), np.eye(1)),
                            B=(np.zeros((1, 1)),))
        cfg = SimConfig(structure=s, dt=1e-4, length=1.0,
                        x0=np.array([1.0, 0.0]))
        out = integrate_rk4(theta, ForcingSpec(np.zeros((1, 1)), np.array([1.0])), cfg)
        exact = np.cos(w * out.times)
        assert np.abs(out.values[0] - exact).max() < 1e-9

    def test_decimated_output(self):
        cfg = SimConfig(structure=SCALAR, dt=1e-3, length=1.0,
                        x0=np.array([1.0]))
        out = resample(integrate_rk4(scalar_system(1.0), silent_forcing(), cfg), 100)
        assert out.num_samples == 100

    @pytest.mark.parametrize("x0", [[np.nan], [complex(0.0, np.inf)]])
    def test_non_finite_x0_rejected(self, x0):
        # used to be reported as a blow-up at t = 0
        with pytest.raises(ValueError, match="x0 must be finite"):
            SimConfig(structure=SCALAR, dt=1.0 / 64, length=1.0, x0=np.array(x0))

    def test_config_structure_must_be_the_models(self):
        # the integrator reads the model's structure; a config naming
        # another one used to be ignored
        other = ModelStructure(n_x=1, n_u=1, n_a=2, n_b=0)
        cfg = SimConfig(structure=other, dt=1e-3, length=1.0)
        with pytest.raises(ValueError, match="structure"):
            integrate_rk4(scalar_system(1.0), silent_forcing(), cfg)

    def test_blow_up_reported_with_time(self):
        theta = scalar_system(-40.0)  # growth exp(40 t): overflows within 20 units
        cfg = SimConfig(structure=SCALAR, dt=1e-3, length=20.0,
                        x0=np.array([1.0]))
        with pytest.raises(RuntimeError, match="t ="):
            integrate_rk4(theta, silent_forcing(), cfg)

    @pytest.mark.slow
    def test_benchmark_config_dt_halving(self):
        import freqwin.bench as bench

        ds1 = bench.reference_dataset(seed=5, fine_rate=bench.REF_FINE_RATE // 2)
        ds2 = bench.reference_dataset(seed=5, fine_rate=bench.REF_FINE_RATE)
        x1 = ds1.x.values
        x2 = ds2.x.values[:, ::2]
        assert np.abs(x1 - x2).max() < 1e-9


class TestClosedFormAgainstStepLoop:
    """The closed-form record against the step-by-step recurrence."""

    @staticmethod
    def loop_record(ds, fine_rate):
        cfg = SimConfig(structure=ds.theta_true.structure, dt=1.0 / fine_rate,
                        length=1.0, seed=ds.seed)
        return rk4_step_loop(ds.theta_true, ds.forcing, cfg)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_reference_dataset_structure(self, seed):
        fine_rate = bench.REF_FINE_RATE // 24
        ds = bench.reference_dataset(seed, fine_rate=fine_rate)
        assert ds.x.num_samples == fine_rate
        assert rel_dev(ds.x, self.loop_record(ds, fine_rate)) <= 1e-12

    @pytest.mark.slow
    def test_reference_dataset_full_rate(self):
        ds = bench.reference_dataset(5)
        assert rel_dev(ds.x, self.loop_record(ds, bench.REF_FINE_RATE)) <= 1e-12

    def test_input_derivative_drive_with_companion_x0(self):
        s = ModelStructure(n_x=2, n_u=2, n_a=2, n_b=1)
        theta = random_system(s, 3)
        forcing = multisine(9, 1.0, 9.0, seed=3, n_channels=2)
        x0 = np.array([0.5 - 0.2j, -1.0, 0.3j, 0.7 + 0.1j])
        cfg = SimConfig(structure=s, dt=1.0 / 2048, length=1.0, x0=x0)
        out = integrate_rk4(theta, forcing, cfg)
        np.testing.assert_array_equal(out.values[:, 0], x0[:2])
        assert rel_dev(out, rk4_step_loop(theta, forcing, cfg)) <= 1e-12

    def test_decimated_run(self):
        theta = random_system(ModelStructure(3, 2, 1, 0), 8)
        forcing = multisine(5, 2.0, 12.0, seed=8, n_channels=2)
        cfg = SimConfig(structure=theta.structure, dt=1.0 / 4096, length=1.0,
                        seed=8)
        out = resample(integrate_rk4(theta, forcing, cfg), 256)
        assert out.num_samples == 256
        assert rel_dev(out, resample(rk4_step_loop(theta, forcing, cfg), 256)) <= 1e-12


class TestPhaseTables:
    """Phase tables shared by every dataset on one tone grid and step."""

    def test_built_once_per_grid_and_step(self):
        fine_rate = 2560  # a grid no other test simulates
        before = _phase_tables.cache_info()
        first = bench.reference_dataset(3, fine_rate=fine_rate)
        second = bench.reference_dataset(4, fine_rate=fine_rate)
        after = _phase_tables.cache_info()
        # one build for the first dataset's state and input records, none
        # for the second: multisine frequencies do not depend on the seed
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 3
        np.testing.assert_array_equal(first.forcing.freqs, second.forcing.freqs)

    def test_long_record_builds_its_tables_once(self):
        # T = 4 s at the reference rate: the state and input records share
        # 4.3 MB of tables, where each record once built its own above 4 MiB
        _phase_tables.cache_clear()
        ds = bench.reference_dataset(7, length=4.0)
        info = _phase_tables.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 1, 1)
        n_blocks = -(-(ds.x.num_samples + 1) // simulate._BLOCK)
        assert ds.forcing.num_tones * (simulate._BLOCK + n_blocks) * 16 > 1 << 22

    def test_tables_are_read_only(self):
        omega = 2 * np.pi * np.array([1.0, 2.5])
        for table in _phase_tables(omega.tobytes(), 1.0 / 512, 3):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_partially_driven_after_fully_driven(self):
        # the undriven tone leaves the key, so the second run gets tables of
        # its own driven tones rather than the full grid's
        theta = random_system(ModelStructure(2, 2, 1, 0), 6)
        full = multisine(6, 1.0, 11.0, seed=6, n_channels=2)
        amps = full.amplitudes.copy()
        amps[:, 2] = 0.0
        partial = ForcingSpec(amplitudes=amps, freqs=full.freqs)
        cfg = SimConfig(structure=theta.structure, dt=1.0 / 2048, length=1.0, seed=6)
        for forcing in (full, partial):
            out = integrate_rk4(theta, forcing, cfg)
            assert rel_dev(out, rk4_step_loop(theta, forcing, cfg)) <= 1e-12

    @pytest.mark.parametrize("num_samples", [7680, 1000])
    def test_sample_forcing_whole_grid(self, num_samples):
        spec = multisine(bench.REF_NUM_TONES, bench.REF_F_MIN, bench.REF_F_MAX,
                         seed=9, n_channels=2)
        got = with_terminal(sample_forcing(spec, 1.0, num_samples))
        want = spec.evaluate(np.arange(num_samples + 1) / num_samples)
        # both round phases of up to 180 rad; observed 1.0e-14 to 1.4e-14
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-13

    def test_step_count_not_a_block_multiple(self):
        theta = random_system(ModelStructure(3, 2, 1, 0), 10)
        forcing = multisine(7, 1.0, 13.0, seed=10, n_channels=2)
        cfg = SimConfig(structure=theta.structure, dt=1.0 / 1000, length=1.0, seed=10)
        out = integrate_rk4(theta, forcing, cfg)
        assert out.num_samples == 1000
        assert rel_dev(out, rk4_step_loop(theta, forcing, cfg)) <= 1e-12


def one_product_tone_sum(coeffs, omega, h, n_blocks):
    """The tone sum as one product of the whole per-block operand and the
    in-block phases."""
    in_block, per_block = _phase_tables.__wrapped__(omega.tobytes(), h, n_blocks)
    rows = coeffs.shape[0]
    scaled = (coeffs[:, None, :] * per_block.T).reshape(rows * n_blocks, omega.size)
    return (scaled @ in_block).reshape(rows, n_blocks, simulate._BLOCK)


class TestSlicedToneSum:
    """Tone sums written slice by slice equal one whole product, bit for bit."""

    @pytest.mark.parametrize("dims", [(5, 5, 1, 0), (2, 1, 1, 0), (3, 3, 2, 1)])
    @pytest.mark.parametrize("fine_rate, length, runs_per_row", [
        (7680, 1.0, 0), (184320, 1.0, 1), (184320, 4.0, 3)])
    @pytest.mark.parametrize("driven", ["all", "partial"])
    def test_records_equal_one_product(self, dims, fine_rate, length, runs_per_row,
                                       driven, monkeypatch):
        structure = ModelStructure(*dims)
        theta = random_system(structure, 5)
        forcing = multisine(bench.REF_NUM_TONES, bench.REF_F_MIN, bench.REF_F_MAX, 5,
                            n_channels=structure.n_u)
        if driven == "partial":  # the undriven tones leave the state's tone sum
            amps = forcing.amplitudes.copy()
            amps[:, 10:40] = 0.0
            forcing = ForcingSpec(amplitudes=amps, freqs=forcing.freqs)
        steps = int(fine_rate * length)
        cfg = SimConfig(structure=structure, dt=length / steps, length=length, seed=5)
        n_blocks = -(-(steps + 1) // simulate._BLOCK)
        # one product for all rows at 7680 steps, else runs_per_row per row
        slices = simulate._block_slices(structure.n_x, n_blocks)
        assert len(slices) == (runs_per_row * structure.n_x or 1)

        got = integrate_rk4(theta, forcing, cfg), sample_forcing(forcing, length, steps)
        monkeypatch.setattr(simulate, "_grid_tone_sum", one_product_tone_sum)
        monkeypatch.setattr(simulate, "_PRODUCT_ROWS", 2**62)  # whole rows in _block_slices
        want = integrate_rk4(theta, forcing, cfg), sample_forcing(forcing, length, steps)
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
            assert np.array_equal(g.terminal, w.terminal)

    def test_slices_tile_the_grid(self):
        for rows, n_blocks in ((5, 31), (5, 721), (1, 1024), (2, 1025), (3, 2881)):
            hits = np.zeros((rows, n_blocks), dtype=int)
            for a, q in simulate._block_slices(rows, n_blocks):
                assert hits[a, q].size <= simulate._PRODUCT_ROWS
                hits[a, q] += 1
            assert (hits == 1).all()


class TestResonance:
    @staticmethod
    def undamped_oscillator():
        # x'' + (2 pi)^2 x = u: poles at +-2 pi i, resonant with a 1 Hz tone
        s = ModelStructure(n_x=1, n_u=1, n_a=2, n_b=0)
        return ModelParams(s, A=(np.array([[(2 * np.pi) ** 2]]), np.zeros((1, 1)),
                                 np.eye(1)), B=(np.eye(1),))

    def test_resonant_tone_raises(self):
        theta = self.undamped_oscillator()
        cfg = SimConfig(structure=theta.structure, dt=1e-4, length=1.0,
                        x0=np.array([1.0, 0.0]))
        forcing = ForcingSpec(np.array([[1.0 + 0j, 1.0]]), np.array([1.0, 3.0]))
        with pytest.raises(RuntimeError, match="tone f = 1 Hz"):
            integrate_rk4(theta, forcing, cfg)

    def test_off_resonance_tone_is_fine(self):
        theta = self.undamped_oscillator()
        cfg = SimConfig(structure=theta.structure, dt=1.0 / 1024, length=1.0,
                        x0=np.array([1.0, 0.0]))
        forcing = ForcingSpec(np.array([[1.0 + 0j]]), np.array([3.0]))
        out = integrate_rk4(theta, forcing, cfg)
        assert rel_dev(out, rk4_step_loop(theta, forcing, cfg)) <= 1e-12


class _Screened(Exception):
    """Stops integrate_rk4 once the resonance screen has run."""


def spy_on_screen(monkeypatch, stop=False):
    """Record (resolvent, near, cond) of every resonance screen."""
    calls = []
    screen = simulate._near_resonance

    def spy(resolvent, r_minus_one, step_minus_eye):
        near, cond = screen(resolvent, r_minus_one, step_minus_eye)
        calls.append((resolvent, near, cond))
        if stop:
            raise _Screened
        return near, cond

    monkeypatch.setattr(simulate, "_near_resonance", spy)
    return calls


def assert_screen_is_exact(resolvent, near, cond):
    """The screened per-tone decisions are those of the exact condition
    number of every resolvent, and the values it computed are exact."""
    full = np.linalg.cond(resolvent)
    passed = np.ones(full.size, dtype=bool)
    passed[near] = cond < simulate._RESONANCE_COND
    np.testing.assert_array_equal(passed, full < simulate._RESONANCE_COND)
    np.testing.assert_array_equal(cond, full[near])


class TestResonanceScreen:
    """Only tones Weyl's bound cannot clear get an exact condition number."""

    @pytest.mark.parametrize("n_steps", [7680, 184320])
    @pytest.mark.parametrize("dims", [(5, 5, 1, 0), (3, 3, 2, 1)])
    def test_screen_matches_exact_condition(self, dims, n_steps, monkeypatch):
        s = ModelStructure(*dims)
        calls = spy_on_screen(monkeypatch, stop=True)
        for seed in range(20):
            forcing = multisine(bench.REF_NUM_TONES, bench.REF_F_MIN, bench.REF_F_MAX,
                                seed, n_channels=s.n_u)
            cfg = SimConfig(structure=s, dt=1.0 / n_steps, length=1.0, seed=seed)
            with pytest.raises(_Screened):
                integrate_rk4(random_system(s, seed), forcing, cfg)
        for resolvent, near, cond in calls:
            assert_screen_is_exact(resolvent, near, cond)
        # the bound clears most tones: the screen is not a no-op
        assert sum(near.size for _, near, _ in calls) < sum(r.shape[0] for r, _, _ in calls) / 2

    @staticmethod
    def rotation():
        # x' = R x + u with R a rotation generator at 2 pi rad/s: normal
        # dynamics, so |r_j - 1| of the +-1 Hz tones is within 1e-7 of
        # ||phi - I||_2 while their resolvents are near-singular
        s = ModelStructure(n_x=2, n_u=2, n_a=1, n_b=0)
        w = 2 * np.pi
        return ModelParams(s, A=(np.array([[0.0, -w], [w, 0.0]]), np.eye(2)),
                           B=(np.eye(2),))

    @pytest.mark.parametrize("system, freqs, steps", [
        # the 1 Hz tone's condition grows like n^4 and crosses
        # _RESONANCE_COND near n = 73 (oscillator) and n = 131 (rotation);
        # the 20 Hz tone is cleared by the bound at every n here
        ("undamped_oscillator", [1.0, 3.0, 20.0], range(60, 90, 2)),
        ("rotation", [-1.0, 1.0, 20.0], range(110, 160, 4)),
    ])
    def test_decisions_straddling_the_threshold(self, system, freqs, steps, monkeypatch):
        theta = (TestResonance.undamped_oscillator() if system == "undamped_oscillator"
                 else self.rotation())
        freqs = np.array(freqs)
        forcing = ForcingSpec(np.ones((theta.structure.n_u, 3), dtype=complex), freqs)
        calls = spy_on_screen(monkeypatch)
        outcomes = set()
        for n in steps:
            cfg = SimConfig(structure=theta.structure, dt=1.0 / n, length=1.0,
                            x0=np.array([1.0, 0.0]))
            try:
                integrate_rk4(theta, forcing, cfg)
                message = None
            except RuntimeError as exc:
                message = str(exc)
            resolvent, near, cond = calls[-1]
            assert_screen_is_exact(resolvent, near, cond)
            assert 2 not in near
            full = np.linalg.cond(resolvent)
            failed = ~(full < simulate._RESONANCE_COND)
            want = None
            if failed.any():
                j = np.argmax(failed)
                want = (f"tone f = {freqs[j]:.6g} Hz is resonant with the RK4 step "
                        f"(resolvent condition {full[j]:.3g})")
            assert message == want
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_zero_drift_dc_tone_is_not_cleared(self):
        # phi = I and r = 1 make the resolvent 0; |r - 1| = 2 ||phi - I|| = 0
        # must go to the exact check, not pass the bound
        theta = scalar_system(0.0, 1.0)
        forcing = ForcingSpec(np.ones((1, 1), dtype=complex), np.array([0.0]))
        cfg = SimConfig(structure=SCALAR, dt=1.0 / 64, length=1.0, x0=np.array([1.0]))
        with pytest.raises(RuntimeError, match="tone f = 0 Hz is resonant.*condition inf"):
            integrate_rk4(theta, forcing, cfg)


class TestRecordBuffers:
    """One record-sized buffer per record, each scanned for blow-up once."""

    @staticmethod
    def full_rate_peak(function, length):
        """tracemalloc peak of one call at the reference rate over the bytes
        of the record it returns, the phase tables built inside."""
        theta = random_system(bench.REF_STRUCTURE, 7)
        forcing = multisine(bench.REF_NUM_TONES, bench.REF_F_MIN, bench.REF_F_MAX, 7,
                            n_channels=bench.REF_STRUCTURE.n_u)
        cfg = SimConfig(structure=bench.REF_STRUCTURE, dt=1.0 / bench.REF_FINE_RATE,
                        length=length, seed=7)
        run = {"integrate_rk4": lambda: integrate_rk4(theta, forcing, cfg),
               "sample_forcing": lambda: sample_forcing(forcing, length, cfg.num_steps)}
        _phase_tables.cache_clear()
        tracemalloc.start()
        try:
            out = run[function]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / out.values.nbytes

    def test_full_rate_peak_memory(self):
        # observed 1.31 (the homogeneous product of one state row adds 0.2);
        # 1.43 with the whole per-block operand (0.33) beside the record,
        # 2.44 with a record-sized tone sum added into the state record
        assert self.full_rate_peak("integrate_rk4", 1.0) <= 1.35

    @pytest.mark.parametrize("function, length", [
        ("integrate_rk4", 4.0), ("sample_forcing", 1.0), ("sample_forcing", 4.0)])
    def test_sliced_tone_sum_peak_memory(self, function, length):
        # observed 1.15 (integrate_rk4, T = 4), 1.18 and 1.14 (sample_forcing,
        # T = 1 and 4), the kept phase tables included; 1.41-1.42 with the
        # whole per-block operand, 1.21 with a record-sized blow-up mask
        assert self.full_rate_peak(function, length) <= 1.2

    def test_state_record_and_slices_not_rescanned(self, monkeypatch):
        scans = []
        post_init = Signal.__post_init__
        monkeypatch.setattr(Signal, "__post_init__",
                            lambda sig: (sig._scan and scans.append(sig)) or post_init(sig))
        ds = bench.reference_dataset(3, fine_rate=bench.REF_FINE_RATE // 24)
        assert [sig.values is ds.u.values for sig in scans] == [True]
        x, u = ds.decimated(80)
        assert scans[1:] == []
        np.testing.assert_array_equal(x.values, ds.x.values[:, ::96])
        np.testing.assert_array_equal(u.terminal, ds.u.terminal)

    def test_unscanned_records_keep_the_other_checks(self):
        finite = spectral._finite_signal(2.0, np.arange(4.0), terminal=np.array([4.0]))
        scanned = Signal(2.0, np.arange(4.0), terminal=np.array([4.0]))
        assert finite.length == scanned.length and vars(finite).keys() == vars(scanned).keys()
        assert spectral._finite_signal(1.0, np.ones(4)).terminal is None
        for got, want in ((finite.values, scanned.values), (finite.terminal, scanned.terminal)):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="2 samples"):
            spectral._finite_signal(1.0, np.ones((2, 1)))
        with pytest.raises(ValueError, match="finite and positive"):
            spectral._finite_signal(np.inf, np.ones(4))
        with pytest.raises(ValueError, match="3 terminal entries, not n_channels = 1"):
            spectral._finite_signal(1.0, np.ones(4), terminal=np.ones(3))


def test_reference_dataset_matches_exact_ode():
    # RK4-free oracle: separates integrator error from windowing/aliasing
    ds = bench.reference_dataset(11)
    x0 = ds.x.values[:, 0]
    for f_s in (80, 768):
        x, _ = ds.decimated(f_s)
        t = np.arange(f_s + 1) / f_s
        exact = exact_ode_record(ds.theta_true, ds.forcing, x0, t)
        got = with_terminal(x)
        assert np.abs(got - exact).max() / np.abs(exact).max() <= 1e-12


def test_seed_range():
    rng_for(2**96 - 1, COMPONENT_INIT)  # the largest seed that keys Philox
    # a numpy integer seed used to wrap in seed * 2**32: another stream
    assert (rng_for(np.int64(2**40), COMPONENT_INIT).standard_normal()
            == rng_for(2**40, COMPONENT_INIT).standard_normal())
    for seed in (-1, 2**96):
        with pytest.raises(ValueError, match=rf"^seed {seed} must be in \[0, 2\*\*96\)$"):
            rng_for(seed, COMPONENT_INIT)


class TestAddNoise:
    def test_zero_sigma_identity(self):
        sig = Signal(length=1.0, values=np.ones(64))
        assert add_noise(sig, 0.0, seed=0) is sig

    def test_variance_within_one_percent(self):
        sig = Signal(length=1.0, values=np.zeros(10**6))
        out = add_noise(sig, 0.1, seed=1)
        assert out.values.real.std() == pytest.approx(0.1, rel=0.01)
        assert out.values.imag.std() == pytest.approx(0.1, rel=0.01)

    def test_seeds_and_trials_differ(self):
        sig = Signal(length=1.0, values=np.zeros(128))
        a = add_noise(sig, 1.0, seed=0, trial=0)
        b = add_noise(sig, 1.0, seed=0, trial=1)
        c = add_noise(sig, 1.0, seed=1, trial=0)
        assert not np.allclose(a.values, b.values)
        assert not np.allclose(a.values, c.values)
        a2 = add_noise(sig, 1.0, seed=0, trial=0)
        np.testing.assert_array_equal(a.values, a2.values)


class TestResample:
    def test_identity_stride(self):
        sig = Signal(length=1.0, values=np.arange(64, dtype=complex))
        assert resample(sig, 64) is sig

    def test_tone_below_new_nyquist_keeps_coefficients(self):
        n = 256
        t = np.arange(n) / n
        sig = Signal(length=1.0, values=np.exp(2j * np.pi * 5 * t))
        dec = resample(sig, 64)
        c_full = fft_spectrum(sig).coeffs[0, 5]
        c_dec = fft_spectrum(dec).coeffs[0, 5]
        assert c_dec == pytest.approx(c_full, abs=1e-12)

    def test_aliased_tone_folds_per_dft_prediction(self):
        # tone above the new Nyquist lands on the folded bin
        n = 256
        t = np.arange(n) / n
        f_true = 70.0
        sig = Signal(length=1.0, values=np.exp(2j * np.pi * f_true * t))
        dec = resample(sig, 64)  # new rate 64, tone aliases to 70 - 64 = 6
        spec = fft_spectrum(dec)
        k = np.where(np.isclose(spec.freqs, 6.0))[0][0]
        assert spec.coeffs[0, k] == pytest.approx(1.0, abs=1e-12)

    def test_non_integer_stride_rejected(self):
        sig = Signal(length=1.0, values=np.ones(100))
        with pytest.raises(ValueError, match="stride"):
            resample(sig, 33)


def test_sample_forcing_carries_terminal():
    spec = multisine(3, 1.5, 3.5, seed=2)
    sig = sample_forcing(spec, 1.0, 64)
    assert sig.terminal is not None
    np.testing.assert_allclose(sig.terminal, spec.evaluate(np.array([1.0]))[:, 0])
