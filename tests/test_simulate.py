"""Time-domain simulation checked against frequency-domain oracles.

The dq circuit blocks all have the rotationally symmetric form a*I + b*J,
so the whole state-space model collapses to complex scalars (d + jq).  The
oracles below rebuild the nominal model that way and predict the periodic
steady-state response through DFT multiplication — a path that shares no
matrix code with the integrator under test.
"""

import importlib

import numpy as np
import pytest

from gridarx.circuit import CircuitParams, full_circuit_model
from gridarx.pipeline import identify
from gridarx.simulate import (
    DisturbanceSpec,
    SimResult,
    _discretize,
    _map_state,
    equilibrium,
    simulate,
    simulate_blocks,
)
from gridarx.signals import RbsConfig, rbs_generate

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


class TestValidation:
    def test_bad_duration_and_step(self, params):
        with pytest.raises(ValueError):
            simulate(params, None, None, 0.0)
        with pytest.raises(ValueError):
            simulate(params, None, None, 1.0, ts=-1e-4)


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
                   i_op=(1.0, 0.0), vg=(1.0, 0.0)):
    """Noiseless PCC voltage by the step loop written out with fresh arrays
    every step: per topology segment, the forcing of all its steps, then
    v[k] = C x and x = F x + drive[k]."""
    n = int(round(duration / ts)) + 1
    i_inj = np.asarray(i_op, float) + rbs_generate(excitation, n, fs=1.0 / ts)
    vg = np.asarray(vg, float)
    nominal = full_circuit_model(params, None)
    disturbed = full_circuit_model(params, (disturbance.kind,
                                            disturbance.value_pu))
    k_on = int(round(disturbance.t_start / ts))
    k_off = int(round(disturbance.t_end / ts))
    x = equilibrium(nominal, np.asarray(i_op, float), vg)
    v = np.empty((n, 2))
    prev = nominal
    for k0, k1, model in ((0, k_on, nominal), (k_on, k_off, disturbed),
                          (k_off, n, nominal)):
        if model is not prev:
            x = _map_state(x, prev, model, params)
        F, Gb, Ge = _discretize(model, ts)
        drive = i_inj[k0:k1] @ Gb.T + vg @ Ge.T
        for k in range(k0, k1):
            v[k] = model.C @ x
            x = F @ x + drive[k - k0]
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


class TestResumeFromPrefix:
    """A run resumed from another run's prefix is bitwise the run simulated
    from its equilibrium."""

    exc = RbsConfig(seed=4)
    first = DisturbanceSpec("fault", 0.3, 0.05, 0.12)

    @pytest.mark.parametrize("dist", [
        DisturbanceSpec("load", 0.35, 0.05, 0.12),  # another kind
        DisturbanceSpec("fault", 0.9, 0.05, 0.3),  # value; ends after the run
        DisturbanceSpec("fault", 0.3, 0.05, 0.05 + 0.4 * 2e-4),  # empty
    ])
    @pytest.mark.parametrize("noise_std", [0.0, 1e-4])
    def test_bitwise_equal_to_a_fresh_run(self, params, dist, noise_std):
        args = (self.exc, 0.2, 2e-4, noise_std, 3)
        prefix = simulate(params, self.first, *args).prefix
        _, v, i, marked = joined(simulate_blocks(params, dist, *args,
                                                 prefix=prefix))
        want = simulate(params, dist, *args)
        for a, b in ((v, want.v_dq), (i, want.i_dq)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert len(marked) == 1 and marked[0] is prefix
        assert np.array_equal(want.prefix.v, prefix.v)
        assert np.array_equal(want.prefix.x, prefix.x)

    def test_prefix_is_the_noiseless_start(self, params):
        sim = simulate(params, self.first, self.exc, 0.2, noise_std=0.0)
        k_on = int(round(self.first.t_start / sim.ts))
        assert sim.prefix.v.shape == (k_on, 2)
        assert np.array_equal(sim.prefix.v, sim.v_dq[:k_on])
        assert not np.shares_memory(sim.prefix.v, sim.v_dq)
        noisy = simulate(params, self.first, self.exc, 0.2)
        assert np.array_equal(noisy.prefix.v, sim.prefix.v)

    @pytest.mark.parametrize("dist", [
        None, DisturbanceSpec("fault", 0.3, 0.3, 0.4)])  # starts after end
    def test_no_prefix_without_a_disturbance_inside(self, params, dist):
        assert simulate(params, dist, self.exc, 0.2).prefix is None

    @pytest.mark.parametrize("dist, where", [
        (DisturbanceSpec("fault", 0.3, 0.06, 0.12), "at sample 300"),
        (None, "nowhere inside the run"),
    ])
    def test_prefix_of_another_start_rejected(self, params, dist, where):
        prefix = simulate(params, self.first, self.exc, 0.2).prefix
        with pytest.raises(ValueError, match=f"prefix of 250 samples .*"
                                             f"{where}"):
            simulate_blocks(params, dist, self.exc, 0.2, prefix=prefix)


def joined(blocks):
    """The blocks of `simulate_blocks` as (t, v_dq, i_dq, [SimPrefix of
    each block that carries one])."""
    blocks = list(blocks)
    return (np.concatenate([b.t for b in blocks]),
            np.concatenate([b.v_dq for b in blocks]),
            np.concatenate([b.i_dq for b in blocks]),
            [b.prefix for b in blocks if b.prefix is not None])


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
        t, v, i, prefixes = joined(simulate_blocks(
            params, self.dist, self.exc, 0.2, 2e-4, noise_std, 3,
            block=block))
        want = simulate(params, self.dist, self.exc, 0.2, 2e-4, noise_std, 3)
        assert np.array_equal(t, want.t)
        assert np.array_equal(bits(v), bits(want.v_dq))
        assert np.array_equal(bits(i), bits(want.i_dq))
        assert len(prefixes) == 1
        assert np.array_equal(prefixes[0].v, want.prefix.v)
        assert np.array_equal(prefixes[0].x, want.prefix.x)
        if noise_std == 0.0:  # against the whole-segment fresh-array loop
            assert np.array_equal(bits(v), bits(oracle_voltage(
                params, self.dist, self.exc, 0.2)))

    @pytest.mark.parametrize("block", [1, 250, 251, 1000])
    def test_prefix_on_the_block_holding_the_start(self, params, block):
        blocks = list(simulate_blocks(params, self.dist, self.exc, 0.2,
                                      block=block))
        k_on = 250
        marked = [b.t.size and round(b.t[0] / 2e-4) for b in blocks
                  if b.prefix is not None]
        assert marked == [k_on // block * block]

    @pytest.mark.parametrize("block", [1, 7, 250, 999])
    def test_resumed_blocks_join_into_one_call(self, params, block):
        prefix = simulate(params, self.dist, self.exc, 0.2).prefix
        other = DisturbanceSpec("load", 0.35, 0.05, 0.2)
        _, v, i, marked = joined(simulate_blocks(
            params, other, self.exc, 0.2, prefix=prefix, block=block))
        want = simulate(params, other, self.exc, 0.2)
        assert np.array_equal(bits(v), bits(want.v_dq))
        assert np.array_equal(bits(i), bits(want.i_dq))
        assert len(marked) == 1 and marked[0] is prefix

    @pytest.mark.parametrize("dist", [
        DisturbanceSpec("fault", 0.3, 0.05, 0.12),
        DisturbanceSpec("load", 0.35, 0.0, 0.15),  # from the first sample
        DisturbanceSpec("fault", 0.3, 0.1, 0.1 + 2e-4),  # 1-sample window
    ])
    # 1001 samples: each size leaves a 1-sample final block
    @pytest.mark.parametrize("block", [1, 2, 250])
    def test_no_one_row_forcing_product(self, params, monkeypatch, dist,
                                        block):
        """Each block size here cuts a 1-row piece out of a longer segment;
        its forcing still has the bits of the whole-segment product."""
        calls = []
        forcing = simulate_module._forcing

        def recorded(i_inj, Gb, vg_forcing, segment_rows):
            calls.append((i_inj.shape[0], segment_rows))
            return forcing(i_inj, Gb, vg_forcing, segment_rows)

        monkeypatch.setattr(simulate_module, "_forcing", recorded)
        _, v, _, _ = joined(simulate_blocks(params, dist, self.exc, 0.2,
                                            noise_std=0.0, block=block))
        assert any(rows == 1 and seg > 1 for rows, seg in calls)
        assert np.array_equal(bits(v), bits(oracle_voltage(
            params, dist, self.exc, 0.2)))

    def test_forcing_pads_a_lone_row(self, params, monkeypatch):
        """What _forcing hands BLAS: never a 1-row matrix for a row of a
        longer segment."""
        shapes = []

        class Recorded(np.ndarray):
            def __matmul__(self, other):
                shapes.append(self.shape)
                return np.asarray(self) @ other

        model = full_circuit_model(params, None)
        _, Gb, Ge = _discretize(model, 2e-4)
        row = np.array([[1.1, -0.1]]).view(Recorded)
        simulate_module._forcing(row, Gb, Ge @ np.ones(2), 5)
        simulate_module._forcing(row, Gb, Ge @ np.ones(2), 1)
        assert shapes == [(2, 2), (1, 2)]

    @pytest.mark.parametrize("dist", [None, ("fault", 0.3)])
    def test_matrix_product_rows_independent_of_row_count(self, params,
                                                          dist):
        """The numpy/BLAS property the forcing relies on, for the 4-state
        and the 6-state model: each row of a product of two or more rows
        is bitwise that row of the whole-segment product. (A 1-row product
        takes another path and may differ; it is not asserted here.)"""
        model = full_circuit_model(params, dist)
        _, Gb, _ = _discretize(model, 2e-4)
        rng = np.random.Generator(np.random.Philox(5))
        i_inj = 1.0 + 0.1 * rng.choice([-1.0, 1.0], size=(20001, 2))
        whole = i_inj @ Gb.T
        for rows in (2, 3, 7, 64, 999, 8191, 8192):
            cuts = list(range(0, 20001, rows))
            if 20001 - cuts[-1] == 1:  # no 1-row tail
                cuts.pop()
            parts = [i_inj[a:b] @ Gb.T
                     for a, b in zip(cuts, cuts[1:] + [20001])]
            assert np.array_equal(bits(np.concatenate(parts)), bits(whole))
        padded = [(np.repeat(i_inj[k:k + 1], 2, axis=0) @ Gb.T)[0]
                  for k in range(300)]
        assert np.array_equal(bits(np.array(padded)), bits(whole[:300]))

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

    def test_bad_block_rejected(self, params):
        with pytest.raises(ValueError, match="block must be >= 1"):
            simulate_blocks(params, None, self.exc, 0.2, block=0)

    def test_non_finite_block_raises(self, params, monkeypatch):
        def blow_up(v, x, FC, drive):
            v[:] = np.inf
            return x

        monkeypatch.setattr(simulate_module, "_step", blow_up)
        blocks = simulate_blocks(params, None, self.exc, 0.2, block=100)
        with pytest.raises(simulate_module.IntegrationError):
            next(blocks)


class TestIdentificationResidual:
    def test_noiseless_residual_under_five_percent(self, noiseless_run):
        _, run = noiseless_run
        assert run.residual_ratio(run.final_state.theta) < 0.05
