"""Identification pipeline: bitwise parity of the block RLS kernel with a
per-sample transcription of the textbook update, block-split invariance,
and the block error path."""

import importlib

import numpy as np
import pytest

from gridarx import rls as rls_module
from gridarx.circuit import CircuitParams
from gridarx.pipeline import build_lagged_regressors, identify
from gridarx.rls import (
    COV_CLAMP_INTERVAL,
    ArxConfig,
    IdentifierState,
    UpdateRejectedError,
    init_identifier,
    rls_run,
)
from gridarx.signals import RbsConfig
from gridarx.simulate import DisturbanceSpec, SimResult, simulate

# the module, which the package's `simulate` function shadows
simulate_module = importlib.import_module("gridarx.simulate")


def oracle_identify(sim, config, state=None, stats=None):
    """Per-sample reference for `identify`: the regressors of the stream,
    then `oracle_rls` over them."""
    dv = np.diff(np.asarray(sim.v_dq, float), axis=0)
    di = np.diff(np.asarray(sim.i_dq, float), axis=0)
    phi_all, y_all = build_lagged_regressors(dv, di, config.order)
    return oracle_rls(y_all, phi_all, config, state, stats)


def oracle_rls(y_all, phi_all, config, state=None, stats=None):
    """Per-sample reference: the step formulas written out with fresh arrays
    every step, as a plain loop. Returns (theta trajectory, innovations,
    calibrated flags, final theta, final P, final count, clamps fired).
    When a `stats` dict is given, it counts in "negative_zero_terms" the
    -0.0 entries of the outer products."""
    if state is None:
        state = init_identifier(config)
    theta, P, count = state.theta, state.P, state.sample_count
    lam = config.forgetting
    ceiling = config.covariance_ceiling
    thetas, innovations, calibrated, clamps = [], [], [], 0
    for y, phi in zip(y_all, phi_all):
        P_phi = P @ phi
        denom = lam + phi @ P_phi
        assert denom > 1e-12
        K = P_phi / denom
        innovation = y - theta @ phi
        eK, KP = np.outer(innovation, K), np.outer(K, P_phi)
        if stats is not None:
            stats["negative_zero_terms"] = stats.get(
                "negative_zero_terms", 0) + sum(
                int(np.count_nonzero((a == 0.0) & np.signbit(a)))
                for a in (eK, KP))
        theta = theta + eK
        P = (P - KP) / lam
        P = (P + P.T) / 2.0
        count += 1
        if count % COV_CLAMP_INTERVAL == 0:
            eigvals, eigvecs = np.linalg.eigh(P)
            if eigvals[-1] > ceiling * (1.0 + 1e-9):
                clamps += 1
                P = (eigvecs * np.minimum(eigvals, ceiling)) @ eigvecs.T
                P = (P + P.T) / 2.0
        thetas.append(theta)
        innovations.append(innovation)
        calibrated.append(count >= config.burn_in)
    return (np.array(thetas), np.array(innovations), np.array(calibrated),
            theta, P, count, clamps)


def windup_stream(n_excited=600, n_still=600, seed=5):
    """Random dq stream with a constant (unexcited) stretch in the middle:
    every difference there is exactly zero, so the regressor vanishes and
    forgetting inflates P until the ceiling clamp fires."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = 2 * n_excited + n_still
    v = 1.0 + 0.01 * rng.standard_normal((n, 2))
    i = 1.0 + 0.01 * rng.standard_normal((n, 2))
    still = slice(n_excited, n_excited + n_still)
    v[still] = v[n_excited - 1]
    i[still] = i[n_excited - 1]
    ts = 2e-4
    return SimResult(t=np.arange(n) * ts, v_dq=v, i_dq=i, ts=ts)


WINDUP_CONFIG = ArxConfig(order=2, forgetting=0.95, p0_scale=1e2, p_max=1e3)


def assert_run_matches_oracle(run, ref):
    thetas, innovations, calibrated, theta, P, count, _ = ref
    assert np.array_equal(run.theta, thetas)
    assert np.array_equal(run.innovation, innovations)
    assert np.array_equal(run.calibrated, calibrated)
    assert np.array_equal(run.final_state.theta, theta)
    assert np.array_equal(run.final_state.P, P)
    assert run.final_state.sample_count == count


def blocks(sim, size, overlap):
    """Split a stream into blocks of `size` new samples, each prefixed with
    the `overlap` samples before it, as a streaming caller feeds them."""
    n = sim.t.size
    for lo in range(0, n, size):
        k0 = max(0, lo - overlap)
        hi = min(n, lo + size)
        yield SimResult(t=sim.t[k0:hi], v_dq=sim.v_dq[k0:hi],
                        i_dq=sim.i_dq[k0:hi], ts=sim.ts)


def identify_in_blocks(sim, config, size):
    state, thetas = None, []
    for block in blocks(sim, size, config.order + 1):
        run = identify(block, config, state)
        state = run.final_state
        thetas.append(run.theta)
    return np.concatenate(thetas), state


@pytest.fixture(scope="module")
def simulated():
    """Two seconds of the default circuit with excitation and noise."""
    return simulate(CircuitParams(), None,
                    RbsConfig(amplitude=0.1, chip_rate=5000.0, seed=1), 2.0)


class TestOracleParity:
    def test_simulated_stream_bitwise(self, simulated):
        config = ArxConfig()
        run = identify(simulated, config)
        assert run.theta.shape[0] > 10 * COV_CLAMP_INTERVAL
        assert_run_matches_oracle(run, oracle_identify(simulated, config))

    def test_windup_stretch_clamp_fires_bitwise(self):
        sim = windup_stream()
        ref = oracle_identify(sim, WINDUP_CONFIG)
        assert ref[-1] >= 5  # the ceiling clamp really fired
        run = identify(sim, WINDUP_CONFIG)
        assert_run_matches_oracle(run, ref)
        # P came back under the ceiling after the unexcited stretch
        assert np.max(np.linalg.eigvalsh(run.final_state.P)) <= \
            WINDUP_CONFIG.covariance_ceiling / WINDUP_CONFIG.forgetting ** \
            COV_CLAMP_INTERVAL

    def test_resumed_state_bitwise(self, simulated):
        config = ArxConfig()
        half = simulated.t.size // 2
        first = identify(SimResult(t=simulated.t[:half],
                                   v_dq=simulated.v_dq[:half],
                                   i_dq=simulated.i_dq[:half],
                                   ts=simulated.ts), config)
        rest = SimResult(t=simulated.t[half:], v_dq=simulated.v_dq[half:],
                         i_dq=simulated.i_dq[half:], ts=simulated.ts)
        run = identify(rest, config, first.final_state)
        assert_run_matches_oracle(
            run, oracle_identify(rest, config, first.final_state))


class TestBlockSplit:
    @pytest.mark.parametrize("size", [1, 7, 10**6])  # 10**6: one block
    def test_blocks_match_whole_run(self, size):
        sim = windup_stream()  # the clamp fires, off the block boundaries
        whole = identify(sim, WINDUP_CONFIG)
        thetas, state = identify_in_blocks(sim, WINDUP_CONFIG, size)
        assert np.array_equal(thetas, whole.theta)
        assert np.array_equal(state.P, whole.final_state.P)
        assert state.sample_count == whole.final_state.sample_count

    def test_calibrated_follows_sample_count(self):
        sim = windup_stream(n_excited=20, n_still=0)
        config = WINDUP_CONFIG
        first = identify(SimResult(t=sim.t[:10], v_dq=sim.v_dq[:10],
                                   i_dq=sim.i_dq[:10], ts=sim.ts), config)
        assert not first.calibrated.any()
        run = identify(SimResult(t=sim.t[7:], v_dq=sim.v_dq[7:],
                                 i_dq=sim.i_dq[7:], ts=sim.ts),
                       config, first.final_state)
        counts = first.final_state.sample_count + np.arange(1, run.t.size + 1)
        assert np.array_equal(run.calibrated, counts >= config.burn_in)
        assert run.calibrated[-1] == run.final_state.calibrated


def snapshot(state):
    return state.theta.copy(), state.P.copy(), state.sample_count


def assert_unchanged(state, snap):
    assert np.array_equal(state.theta, snap[0])
    assert np.array_equal(state.P, snap[1])
    assert state.sample_count == snap[2]


class TestStateHandling:
    def test_input_state_not_modified(self, simulated):
        config = ArxConfig()
        state = identify(simulated, config).final_state
        snap = snapshot(state)
        run = identify(simulated, config, state)
        assert_unchanged(state, snap)
        assert run.final_state is not state
        assert not np.shares_memory(run.final_state.P, state.P)
        assert not np.shares_memory(run.final_state.theta, state.theta)
        assert not np.shares_memory(run.final_state.theta, run.theta)

    def test_empty_block(self):
        sim = windup_stream(n_excited=2, n_still=0)
        n = WINDUP_CONFIG.order + 1  # too short for one complete regressor
        short = SimResult(t=sim.t[:n], v_dq=sim.v_dq[:n], i_dq=sim.i_dq[:n],
                          ts=sim.ts)
        state = init_identifier(WINDUP_CONFIG)
        run = identify(short, WINDUP_CONFIG, state)
        assert run.theta.shape == (0, 2, WINDUP_CONFIG.regressor_len)
        assert run.final_state.sample_count == 0
        assert np.array_equal(run.final_state.P, state.P)


class TestBlockErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejects_whole_block(self, bad):
        config = WINDUP_CONFIG
        sim = windup_stream(n_excited=100, n_still=0)
        state = identify(sim, config).final_state
        snap = snapshot(state)
        j = 60  # raw sample: first enters the output difference v[j] - v[j-1]
        sim.v_dq[j, 1] = bad
        first_bad_update = j - 1 - config.order
        with pytest.raises(UpdateRejectedError,
                           match=f"at sample {first_bad_update} of"):
            identify(sim, config, state)
        assert_unchanged(state, snap)

    def test_config_dims_mismatch_rejected(self):
        sim = windup_stream(n_excited=50, n_still=0)
        config = ArxConfig(order=2, input_dim=3)
        state = init_identifier(config)
        snap = snapshot(state)
        with pytest.raises(UpdateRejectedError, match="regressor has length"):
            identify(sim, config, state)
        assert_unchanged(state, snap)

    def test_mid_block_gain_failure_leaves_state(self):
        # A covariance that is not positive definite: the first step (zero
        # regressor) passes, the second has a non-positive gain denominator.
        config = ArxConfig(order=1, input_dim=1, output_dim=1)
        state = IdentifierState(config=config, theta=np.zeros((1, 2)),
                                P=-np.eye(2), sample_count=3)
        snap = snapshot(state)
        Y = np.zeros((3, 1))
        Phi = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
        with pytest.raises(UpdateRejectedError, match="at sample 1 of"):
            rls_run(state, Y, Phi)
        assert_unchanged(state, snap)


def assert_bits_equal(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def assert_run_bits_match_oracle(run, ref):
    thetas, innovations, _, theta, P, count, _ = ref
    assert_bits_equal(run.theta, thetas)
    assert_bits_equal(run.innovation, innovations)
    assert_bits_equal(run.final_state.theta, theta)
    assert_bits_equal(run.final_state.P, P)
    assert run.final_state.sample_count == count


class EighCalls:
    """Counts np.linalg.eigh calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            self.calls += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)


class TestBitPatterns:
    """The kernel against the multiply-form oracle, compared as uint64 bit
    patterns, so that a +0.0/-0.0 difference fails too."""

    def test_exact_zero_regressor_column(self):
        sim = windup_stream(n_still=0)
        sim.i_dq[:, 1] = 1.0  # di_q == 0: its lags are exact-zero columns
        config = ArxConfig()
        stats = {}
        ref = oracle_identify(sim, config, stats=stats)
        # the multiply form does produce -0.0 terms on this stream
        assert stats["negative_zero_terms"] > 0
        assert_run_bits_match_oracle(identify(sim, config), ref)

    def test_windup_clamp_stretch(self):
        sim = windup_stream()
        ref = oracle_identify(sim, WINDUP_CONFIG)
        assert ref[-1] >= 5
        assert_run_bits_match_oracle(identify(sim, WINDUP_CONFIG), ref)

    def test_frobenius_above_ceiling_runs_eigh_without_clamp(self,
                                                            monkeypatch):
        # ||P||_F = 0.9 c sqrt(8) > c >= lambda_max = 0.9 c: the pre-check
        # cannot rule the clamp out, eigh runs and finds nothing to clamp.
        config = WINDUP_CONFIG
        ceiling = config.covariance_ceiling
        n = config.regressor_len
        state = IdentifierState(
            config=config, theta=np.zeros((2, n)),
            P=0.9 * ceiling * np.eye(n),
            sample_count=COV_CLAMP_INTERVAL - 1)
        assert np.linalg.norm(state.P) > ceiling
        sim = windup_stream(n_excited=10, n_still=0)
        ref = oracle_identify(sim, config, state)
        assert ref[-1] == 0  # no clamp
        eigh = EighCalls(monkeypatch)
        run = identify(sim, config, state)
        assert eigh.calls == 1  # the check at sample count 50
        assert_run_bits_match_oracle(run, ref)

    @pytest.mark.parametrize("input_dim, output_dim, order",
                             [(1, 1, 1), (3, 1, 2), (2, 3, 1)])
    def test_other_shapes_with_clamp(self, input_dim, output_dim, order):
        """The stacked [P; theta] layout depends on the output count and
        the regressor length: other shapes than the shipped 2 x 12, each
        through an unexcited stretch where the ceiling clamp fires."""
        config = ArxConfig(order=order, input_dim=input_dim,
                           output_dim=output_dim, forgetting=0.95,
                           p0_scale=1e2, p_max=1e3)
        n = config.regressor_len
        rng = np.random.Generator(np.random.Philox(order))
        theta_true = rng.standard_normal((output_dim, n))
        Phi = 0.01 * rng.standard_normal((1000, n))
        Phi[300:700] = 0.0
        Y = Phi @ theta_true.T + 1e-4 * rng.standard_normal((1000,
                                                             output_dim))
        ref = oracle_rls(Y, Phi, config)
        assert ref[-1] >= 1  # the ceiling clamp really fired
        thetas, innovations, final = rls_run(init_identifier(config), Y, Phi)
        assert_bits_equal(thetas, ref[0])
        assert_bits_equal(innovations, ref[1])
        assert_bits_equal(final.theta, ref[3])
        assert_bits_equal(final.P, ref[4])
        assert final.sample_count == ref[5]

    def test_eigh_skipped_on_excited_stream(self, simulated, monkeypatch):
        config = ArxConfig()
        eigh = EighCalls(monkeypatch)
        run = identify(simulated, config)
        assert run.final_state.sample_count >= 10 * COV_CLAMP_INTERVAL
        assert eigh.calls == 0


class TestDotDispatch:
    def test_np_dot_in_place_of_raw_dot_keeps_every_bit(self, monkeypatch):
        """`rls.raw_dot`, which `rls_run` and the simulator's step loop
        call, is np.dot's own C function without numpy's dispatch layer:
        with np.dot itself in its place, across both topology switches and
        the covariance clamp checks, the voltages and the predictors keep
        their bits."""
        args = (CircuitParams(), DisturbanceSpec("fault", 0.2077, 0.4, 0.7),
                RbsConfig(amplitude=0.1, chip_rate=5000.0, seed=1), 1.0)
        config = ArxConfig()
        sim = simulate(*args)
        run = identify(sim, config)
        monkeypatch.setattr(rls_module, "raw_dot", np.dot)
        monkeypatch.setattr(simulate_module, "raw_dot", np.dot)
        sim_np = simulate(*args)
        run_np = identify(sim_np, config)
        assert np.array_equal(sim.v_dq.view(np.uint64),
                              sim_np.v_dq.view(np.uint64))
        assert np.array_equal(run.theta.view(np.uint64),
                              run_np.theta.view(np.uint64))
        assert np.array_equal(run.final_state.P.view(np.uint64),
                              run_np.final_state.P.view(np.uint64))


class TestStackedProducts:
    """The BLAS property behind the stacked per-sample products: each row of
    a matrix-vector product is bitwise that row in the product of its own
    block of two or more rows, without the rows stacked above or below it.
    Pinned over random inputs at the shipped shapes: [P; theta], 14 x 12,
    in `rls_run`; [F; Cv], 6 x 4 and 8 x 6, in the simulator's step loop
    for the 4- and 6-state models. A BLAS whose row results depend on the
    row count fails here by name. (A block of one row is another case:
    numpy computes it as a dot product, which `rls_run` repeats on its
    own; `test_other_shapes_with_clamp` covers it.)"""

    @pytest.mark.parametrize("n", [12, 4, 6])
    def test_stacked_gemv_rows_equal_separate_products(self, n):
        rng = np.random.Generator(np.random.Philox(n))
        out = np.empty(n + 2)
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-6, 6, size=(n + 2, 1))
            stack = scale * rng.standard_normal((n + 2, n))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
            top, bottom = stack[:n].copy(), stack[n:].copy()
            rls_module.raw_dot(stack, x, out)
            assert_bits_equal(out[:n], rls_module.raw_dot(top, x))
            assert_bits_equal(out[n:], rls_module.raw_dot(bottom, x))
