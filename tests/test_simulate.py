"""Time-domain simulation checked against frequency-domain oracles.

The dq circuit blocks all have the rotationally symmetric form a*I + b*J,
so the whole state-space model collapses to complex scalars (d + jq).  The
oracles below rebuild the nominal model that way and predict the periodic
steady-state response through DFT multiplication — a path that shares no
matrix code with the integrator under test.
"""

import importlib
import math

import numpy as np
import pytest

from gridarx.circuit import CircuitParams, full_circuit_model
from gridarx.pipeline import identify
from gridarx.simulate import (
    DisturbanceSpec,
    SimResult,
    _discretize,
    _map_state,
    _solve,
    equilibrium,
    simulate,
    simulate_blocks,
)
from gridarx.signals import RbsConfig, rbs_generate
from oracles import matvec_fixed, residual_ratio

# the module itself: the package re-exports its `simulate` function under
# the module's name
simulate_module = importlib.import_module("gridarx.simulate")


def scalar_nominal_model(params):
    """Complex-scalar (A, B, C) of the nominal circuit in seconds."""
    wb = params.omega_base
    r1, c1 = params.r1, params.c1
    r23 = params.r2 + params.r3
    l23 = params.l2 + params.l3
    A = wb * np.array(
        [
            [-1.0 / (r1 * c1) - 1j, -1.0 / c1],
            [1.0 / l23, -r23 / l23 - 1j],
        ]
    )
    B = wb * np.array([1.0 / c1, 0.0])
    C = np.array([1.0, 0.0])
    return A, B, C


def scalar_discrete_tf(params, ts, z):
    """H_d(z) of the trapezoidal step, derived via the bilinear identity
    H_d(z) = 2/(z+1) * C (s'I - A)^-1 B with s' = (2/ts)(z-1)/(z+1)."""
    A, B, C = scalar_nominal_model(params)
    s = (2.0 / ts) * (z - 1.0) / (z + 1.0)
    resolvent = np.linalg.solve(s * np.eye(2) - A, B)
    return (2.0 / (z + 1.0)) * (C @ resolvent)


class TestDisturbanceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DisturbanceSpec("fault", 1.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            DisturbanceSpec("fault", 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            DisturbanceSpec("breaker", 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["value_pu", "t_start", "t_end"])
    def test_non_finite_field_named(self, name, value):
        """Else a nan value ran as a non-finite trajectory, and an infinite
        t_end failed converting to a sample index."""
        args = dict(kind="fault", value_pu=0.3, t_start=1.0, t_end=2.0)
        with pytest.raises(ValueError) as err:
            DisturbanceSpec(**{**args, name: value})
        assert str(err.value) == f"{name} must be finite, got {value!r}"

    def test_unit_conversions(self, params):
        d = DisturbanceSpec("fault", params.ohms_to_pu(600.0), 1.0, 2.0)
        assert d.value_pu == pytest.approx(600.0 / params.z_base)
        lh = 0.35 * params.z_base / params.omega_base
        d = DisturbanceSpec("load", params.henries_to_pu(lh), 1.0, 2.0)
        assert d.value_pu == pytest.approx(0.35)


class TestEquilibrium:
    def test_satisfies_balance(self, params):
        m = full_circuit_model(params, None)
        x = equilibrium(m, (1.0, 0.0), (1.0, 0.0))
        rhs = m.A @ x + m.B @ [1.0, 0.0] + m.E @ [1.0, 0.0]
        assert np.linalg.norm(rhs) < 1e-12

    def test_quiet_run_is_flat(self, params):
        sim = simulate(params, None, None, 0.1, noise_std=0.0)
        assert np.all(np.abs(np.diff(sim.v_dq, axis=0)) < 1e-9)
        assert np.all(np.abs(np.diff(sim.i_dq, axis=0)) < 1e-15)

    def test_quiet_run_matches_equilibrium_value(self, params):
        sim = simulate(params, None, None, 0.05, noise_std=0.0)
        m = full_circuit_model(params, None)
        x = equilibrium(m, (1.0, 0.0), (1.0, 0.0))
        assert np.allclose(sim.v_dq[0], m.C @ x, atol=1e-12)


class TestSolve:
    """`_solve`, the elimination of the simulator's set-up, against
    numpy's LAPACK solve."""

    def test_near_lapack_solve(self, params):
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(100):
            A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
            B = rng.standard_normal((6, 3))
            np.testing.assert_allclose(_solve(A, B), np.linalg.solve(A, B),
                                       rtol=1e-12, atol=1e-12)

    def test_zero_leading_entry_pivots(self):
        A = np.array([[0.0, 2.0], [3.0, 1.0]])
        assert np.array_equal(_solve(A, np.array([[2.0], [4.0]])),
                              [[1.0], [1.0]])

    def test_singular_matrix_rejected(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 1)))


class TestValidation:
    def test_bad_duration_and_step(self, params):
        with pytest.raises(ValueError):
            simulate(params, None, None, 0.0)
        with pytest.raises(ValueError):
            simulate(params, None, None, 1.0, ts=-1e-4)

    @pytest.mark.parametrize("name, value", [
        ("duration", math.inf), ("duration", math.nan), ("ts", math.inf),
        ("ts", math.nan), ("noise_std", -1.0), ("noise_std", math.inf),
        ("noise_std", math.nan)])
    @pytest.mark.parametrize("call", [simulate, simulate_blocks])
    def test_bad_argument_named(self, params, call, name, value):
        """A negative noise_std used to give the noiseless run, an infinite
        duration an OverflowError and a NaN duration or ts an unnamed
        ValueError; each is now rejected at the call, by name."""
        kwargs = dict(duration=0.2, ts=2e-4, noise_std=1e-4)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            call(params, None, RbsConfig(seed=3), **kwargs)


class TestDeterminism:
    def test_identical_seeds_identical_output(self, params):
        kw = dict(duration=0.5, noise_std=1e-4, noise_seed=4)
        a = simulate(params, None, RbsConfig(seed=2), **kw)
        b = simulate(params, None, RbsConfig(seed=2), **kw)
        assert np.array_equal(a.v_dq, b.v_dq)
        assert np.array_equal(a.i_dq, b.i_dq)

    def test_noise_seed_changes_output(self, params):
        a = simulate(params, None, None, 0.2, noise_seed=1)
        b = simulate(params, None, None, 0.2, noise_seed=2)
        assert not np.array_equal(a.v_dq, b.v_dq)


class TestFrequencyDomainOracle:
    def test_square_wave_periodic_steady_state(self, params):
        """Drive the integrator with a periodic square-wave current
        perturbation; the settled final period must match the DFT
        prediction from the complex-scalar transfer function within 1%."""
        ts = 2e-4
        period = 250  # 50 ms
        n_periods = 40
        u_per = np.where(np.arange(period) < period // 2, 1.0, -1.0) * 0.1

        m = full_circuit_model(params, None)
        F, Gb, _ = _discretize(m, ts)
        x = np.zeros(m.A.shape[0])
        v = np.empty(period * n_periods, dtype=complex)
        for k in range(v.size):
            y = m.C @ x
            v[k] = y[0] + 1j * y[1]
            x = F @ x + Gb @ [u_per[k % period], 0.0]

        last = v[-period:]
        U = np.fft.fft(u_per)
        z = np.exp(2j * np.pi * np.arange(period) / period)
        H = np.array([scalar_discrete_tf(params, ts, zk) for zk in z])
        expect = np.fft.ifft(H * U)
        err = np.max(np.abs(last - expect)) / np.max(np.abs(expect))
        assert err < 0.01

    def test_discretization_matches_continuous_at_low_frequency(self, params):
        """At frequencies well below Nyquist the trapezoidal transfer must
        track the continuous-time impedance, up to the half-sample delay of
        the held input."""
        ts = 2e-4
        A, B, C = scalar_nominal_model(params)
        for f in [1.0, 10.0, 50.0]:
            s = 2j * np.pi * f
            h_ct = C @ np.linalg.solve(s * np.eye(2) - A, B)
            h_dt = scalar_discrete_tf(params, ts, np.exp(s * ts))
            h_dt *= np.exp(0.5 * s * ts)  # undo the input-hold delay
            assert abs(h_dt - h_ct) / abs(h_ct) < 2e-3


class TestIdentifiedTransferFunction:
    def test_arx_matches_circuit_up_to_tenth_nyquist(self, noiseless_run,
                                                     params):
        """The converged lattice of lag matrices must reproduce the discrete
        circuit transfer function across the identification band."""
        sim, run = noiseless_run
        theta = run.final_state.theta
        order = 3
        m = full_circuit_model(params, None)
        F, Gb, _ = _discretize(m, sim.ts)
        nx = F.shape[0]

        fs = 1.0 / sim.ts
        for f in np.linspace(2.0, fs / 20.0, 15):
            z = np.exp(2j * np.pi * f * sim.ts)
            h_true = m.C @ np.linalg.solve(z * np.eye(nx) - F, Gb)
            a_sum = np.zeros((2, 2), dtype=complex)
            b_sum = np.zeros((2, 2), dtype=complex)
            for lag in range(1, order + 1):
                zl = z ** (-lag)
                a_sum += theta[:, 2 * (lag - 1) : 2 * lag] * zl
                cols = 2 * order + 2 * (lag - 1)
                b_sum += theta[:, cols : cols + 2] * zl
            h_arx = np.linalg.solve(np.eye(2) - a_sum, b_sum)
            err = np.linalg.norm(h_arx - h_true) / np.linalg.norm(h_true)
            assert err < 0.02


class TestTopologySwitch:
    def test_vanishing_fault_leaves_trajectory_unchanged(self, params):
        """A near-open fault branch exercises the switch path without
        physics: trajectories must agree with the undisturbed run."""
        exc = RbsConfig(seed=3)
        base = simulate(params, None, exc, 1.0, noise_std=0.0)
        dist = DisturbanceSpec("fault", 1e9, 0.3, 0.7)
        switched = simulate(params, dist, exc, 1.0, noise_std=0.0)
        assert np.max(np.abs(switched.v_dq - base.v_dq)) < 1e-6

    def test_window_under_half_a_step_never_switches(self, params):
        """t_start and t_end round to one sample: the branch is never
        connected, so the run is the undisturbed one (it used to map the
        nominal state as if it were the disturbed one and fail)."""
        exc = RbsConfig(seed=3)
        base = simulate(params, None, exc, 0.2, noise_std=0.0)
        dist = DisturbanceSpec("fault", 0.3, 0.05, 0.05 + 0.4 * 2e-4)
        switched = simulate(params, dist, exc, 0.2, noise_std=0.0)
        assert np.allclose(switched.v_dq, base.v_dq, rtol=0.0, atol=1e-12)

    def test_fault_window_deviation_and_recovery(self, params):
        dist = DisturbanceSpec("fault", params.ohms_to_pu(20.0), 0.5, 1.0)
        sim = simulate(params, dist, None, 1.5, noise_std=0.0)
        pre = sim.v_dq[sim.t < 0.5]
        during = sim.v_dq[(sim.t >= 0.6) & (sim.t < 1.0)]
        post = sim.v_dq[sim.t > 1.4]
        assert np.max(np.abs(during - pre[-1])) > 0.1
        assert np.max(np.abs(post - pre[-1])) < 1e-3

    def test_load_window_deviation(self, params):
        dist = DisturbanceSpec("load", 0.35, 0.5, 1.0)
        sim = simulate(params, dist, None, 1.5, noise_std=0.0)
        during = sim.v_dq[(sim.t >= 0.9) & (sim.t < 1.0)]
        assert np.max(np.abs(during - sim.v_dq[0])) > 0.05


def oracle_voltage(params, disturbance, excitation, duration, ts=2e-4,
                   i_op=(1.0, 0.0), vg=(1.0, 0.0), matmul=False):
    """Noiseless PCC voltage by the step loop written out with fresh arrays
    every step: per topology segment (the window's end clipped to the
    run's), the forcing Gb u + Ge vg of all its steps, then v[k] = C x and
    x = F x + drive[k]. The forcing sums its
    terms in order and the step's products are `matvec_fixed`, all over
    Python floats; with `matmul`, both are numpy's matrix products
    instead, whose summation order is the BLAS library's."""
    n = int(round(duration / ts)) + 1
    i_inj = np.asarray(i_op, float) + rbs_generate(excitation, n, fs=1.0 / ts)
    vg = np.asarray(vg, float)
    nominal = full_circuit_model(params, None)
    disturbed = full_circuit_model(params, (disturbance.kind,
                                            disturbance.value_pu))
    k_on = int(round(disturbance.t_start / ts))
    k_off = min(n, int(round(disturbance.t_end / ts)))
    x = equilibrium(nominal, np.asarray(i_op, float), vg)
    v = np.empty((n, 2))
    prev = nominal
    product = np.dot if matmul else matvec_fixed
    for k0, k1, model in ((0, k_on, nominal), (k_on, k_off, disturbed),
                          (k_off, n, nominal)):
        if model is not prev:
            x = _map_state(x, prev, model, params)
        F, Gb, Ge = _discretize(model, ts)
        if matmul:
            drive = i_inj[k0:k1] @ Gb.T + vg @ Ge.T
        else:
            vg0, vg1 = vg.tolist()
            vg_forcing = [e0 * vg0 + e1 * vg1 for e0, e1 in Ge.tolist()]
            drive = np.array([[u0 * g0 + u1 * g1 + f
                               for (g0, g1), f in zip(Gb.tolist(), vg_forcing)]
                              for u0, u1 in i_inj[k0:k1].tolist()],
                             float).reshape(k1 - k0, len(vg_forcing))
        for k in range(k0, k1):
            v[k] = product(model.C, x)
            x = product(F, x) + drive[k - k0]
        prev = model
    return v


class TestStepLoopExactness:
    @pytest.mark.parametrize("kind, value", [("fault", 0.3), ("load", 0.35)])
    def test_bitwise_equal_to_fresh_array_loop(self, params, kind, value):
        exc = RbsConfig(seed=4)
        dist = DisturbanceSpec(kind, value, 0.05, 0.12)
        sim = simulate(params, dist, exc, 0.2, noise_std=0.0)
        want = oracle_voltage(params, dist, exc, 0.2)
        assert np.array_equal(sim.v_dq.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind, value", [("fault", 0.3), ("load", 0.35)])
    def test_near_matrix_product_loop(self, params, kind, value):
        """Against the loop with numpy's matrix products: within 1e-12."""
        exc = RbsConfig(seed=4)
        dist = DisturbanceSpec(kind, value, 0.05, 0.12)
        sim = simulate(params, dist, exc, 0.2, noise_std=0.0)
        want = oracle_voltage(params, dist, exc, 0.2, matmul=True)
        np.testing.assert_allclose(sim.v_dq, want, rtol=0, atol=1e-12)


def joined(blocks):
    """The blocks of `simulate_blocks` as (t, v_dq, i_dq)."""
    blocks = list(blocks)
    return (np.concatenate([b.t for b in blocks]),
            np.concatenate([b.v_dq for b in blocks]),
            np.concatenate([b.i_dq for b in blocks]))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockSimulator:
    """The simulator streams in blocks and carries its state, its segment,
    the excitation and both noise generators from block to block: every
    block size gives the bits of one call."""

    exc = RbsConfig(seed=4)
    # 0.2 s at 2e-4: samples 0..1000, disturbance on at 250, off at 600
    dist = DisturbanceSpec("fault", 0.3, 0.05, 0.12)

    # 250 and 50 put edges on k_on and k_off; 1000 leaves a 1-sample final
    # block; 349 leaves a 1-sample piece at the end of a block inside a
    # segment, 251 one at the start of the last segment's first block
    @pytest.mark.parametrize("block", [1, 2, 50, 250, 251, 349, 1000, 8192])
    @pytest.mark.parametrize("noise_std", [0.0, 1e-4])
    def test_blocks_join_into_one_call(self, params, block, noise_std):
        t, v, i = joined(simulate_blocks(
            params, self.dist, self.exc, 0.2, 2e-4, noise_std, 3,
            block=block))
        want = simulate(params, self.dist, self.exc, 0.2, 2e-4, noise_std, 3)
        assert np.array_equal(t, want.t)
        assert np.array_equal(bits(v), bits(want.v_dq))
        assert np.array_equal(bits(i), bits(want.i_dq))
        if noise_std == 0.0:  # against the whole-segment fresh-array loop
            assert np.array_equal(bits(v), bits(oracle_voltage(
                params, self.dist, self.exc, 0.2)))

    @pytest.mark.parametrize("rows", [8192, 8191, 1, 3])
    def test_philox_normals_in_chunks(self, rows):
        """numpy property: standard normals drawn in chunks are the draws
        of one call, and a second generator that first discards the n x 2
        voltage normals, in chunks, draws the current normals."""
        n = 2 * 8192 + 7
        rng = np.random.Generator(np.random.Philox(2))
        v_noise = rng.standard_normal((n, 2))
        i_noise = rng.standard_normal((n, 2))
        gen_v = np.random.Generator(np.random.Philox(2))
        gen_i = np.random.Generator(np.random.Philox(2))
        for lo in range(0, 2 * n, 2 * rows):
            gen_i.standard_normal(min(2 * rows, 2 * n - lo))
        got_v = np.concatenate([gen_v.standard_normal((min(rows, n - lo), 2))
                                for lo in range(0, n, rows)])
        got_i = np.concatenate([gen_i.standard_normal((min(rows, n - lo), 2))
                                for lo in range(0, n, rows)])
        assert np.array_equal(bits(got_v), bits(v_noise))
        assert np.array_equal(bits(got_i), bits(i_noise))

    def test_noise_start_memo_changes_no_bit(self, params):
        """A run whose current noise starts from the kept state
        (`_noise_start`) gives the bits of a run that works it out afresh,
        and so does a later run of that seed after a run of another seed:
        no run changes the state kept for the others."""
        memo = simulate_module._noise_start
        memo.cache_clear()
        runs = [simulate(params, self.dist, self.exc, 0.2, 2e-4, 1e-4, seed)
                for seed in (3, 3, 4, 3)]
        assert memo.cache_info().hits == 2
        cold, warm, other, again = runs
        assert not np.array_equal(other.i_dq, cold.i_dq)
        for run in (warm, again):
            assert np.array_equal(bits(run.v_dq), bits(cold.v_dq))
            assert np.array_equal(bits(run.i_dq), bits(cold.i_dq))

    @pytest.mark.parametrize("name, value", [
        ("block", 0), ("block", 2.5), ("block", np.float64(4.0)),
        ("noise_seed", -1), ("noise_seed", 1.5), ("noise_seed", None)])
    def test_bad_block_rejected(self, params, name, value):
        """At the call, before the first block is asked for, with a
        ValueError naming the argument."""
        least = {"block": 1, "noise_seed": 0}[name]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer "
                                             rf">= {least}, got"):
            simulate_blocks(params, None, self.exc, 0.2, **{name: value})

    def test_numpy_integers_accepted(self, params):
        whole = simulate(params, None, self.exc, 0.2, noise_seed=3)
        parts = list(simulate_blocks(params, None, self.exc, 0.2,
                                     noise_seed=np.int64(3),
                                     block=np.int32(300)))
        assert [p.t.size for p in parts] == [300, 300, 300, 101]
        assert np.array_equal(np.concatenate([p.v_dq for p in parts]),
                              whole.v_dq)

    def test_non_finite_block_raises(self, params, monkeypatch):
        def blow_up(*args):
            args[-1][:] = np.inf  # the voltage rows

        monkeypatch.setattr(simulate_module._kernels, "sim_rows", blow_up)
        blocks = simulate_blocks(params, None, self.exc, 0.2, block=100)
        with pytest.raises(simulate_module.IntegrationError):
            next(blocks)


class TestSegmentWalk:
    """The edges of the simulator's topology segments, at blocks of one
    sample, of 7 and 250 and of the whole run, with noise off and on: each
    block size gives the bits of the one-call run and, noiseless, those of
    the fresh-array loop."""

    exc = RbsConfig(seed=4)
    # 0.2 s at 2e-4: samples 0..1000
    edges = {
        # on at sample 0, so the nominal segment before it is empty
        "from_t0": DisturbanceSpec("fault", 0.3, 0.0, 0.12),
        # off at the run's last sample, and past its end: k_off is clipped
        # to n, and the last nominal segment is empty
        "to_last_sample": DisturbanceSpec("load", 0.35, 0.05, 0.2),
        "past_the_end": DisturbanceSpec("fault", 0.3, 0.05, 0.5),
    }
    blocks = [1, 7, 250, 4096]

    @pytest.mark.parametrize("block", blocks)
    @pytest.mark.parametrize("noise_std", [0.0, 1e-4])
    @pytest.mark.parametrize("edge", sorted(edges))
    def test_edge_segments(self, params, edge, block, noise_std):
        dist = self.edges[edge]
        t, v, i = joined(simulate_blocks(
            params, dist, self.exc, 0.2, 2e-4, noise_std, 3, block=block))
        want = simulate(params, dist, self.exc, 0.2, 2e-4, noise_std, 3)
        assert np.array_equal(t, want.t)
        assert np.array_equal(bits(v), bits(want.v_dq))
        assert np.array_equal(bits(i), bits(want.i_dq))
        if noise_std == 0.0:
            assert np.array_equal(bits(v), bits(oracle_voltage(
                params, dist, self.exc, 0.2)))

    @pytest.mark.parametrize("block", blocks)
    @pytest.mark.parametrize("noise_std", [0.0, 1e-4])
    @pytest.mark.parametrize("t_start", [0.0, 0.05])
    def test_window_under_half_a_step_is_the_undisturbed_run(
            self, params, t_start, block, noise_std):
        """t_start and t_end round to one sample: the disturbed segment is
        empty and the run is bitwise the one without a disturbance."""
        dist = DisturbanceSpec("fault", 0.3, t_start, t_start + 0.4 * 2e-4)
        t, v, i = joined(simulate_blocks(
            params, dist, self.exc, 0.2, 2e-4, noise_std, 3, block=block))
        want = simulate(params, None, self.exc, 0.2, 2e-4, noise_std, 3)
        assert np.array_equal(t, want.t)
        assert np.array_equal(bits(v), bits(want.v_dq))
        assert np.array_equal(bits(i), bits(want.i_dq))


class TestIdentificationResidual:
    def test_noiseless_residual_under_five_percent(self, noiseless_run):
        _, run = noiseless_run
        assert residual_ratio(run, run.final_state.theta) < 0.05
