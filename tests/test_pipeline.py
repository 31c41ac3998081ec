"""Identification pipeline: bitwise parity of the block RLS kernel with a
per-sample transcription of the textbook update, block-split invariance,
and the block error path."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gridarx import _kernels
from gridarx import rls as rls_module
from gridarx.circuit import CircuitParams
from gridarx.pipeline import identify
from gridarx.rls import (
    COV_CLAMP_INTERVAL,
    MIN_GAIN_DENOMINATOR,
    ArxConfig,
    IdentifierState,
    UpdateRejectedError,
    init_identifier,
    run_block,
)
from gridarx.signals import RbsConfig
from gridarx.simulate import SimResult, simulate
from oracles import identify_numpy, matvec_fixed


def oracle_identify(sim, config, state=None, stats=None):
    """Per-sample reference for `identify`: the regressors of the stream,
    then `oracle_rls` over them."""
    y_all, phi_all = identify_numpy(sim, config.order)
    return oracle_rls(y_all, phi_all, config, state, stats)


def oracle_rls(y_all, phi_all, config, state=None, stats=None,
               matvec=matvec_fixed):
    """Per-sample reference: the step formulas written out with fresh arrays
    every step, as a plain loop, each matrix-vector product by `matvec`:
    by default summed left to right over Python floats, the kernel's
    order. Returns (theta trajectory, innovations, calibrated flags, final
    theta, final P, final count, clamps fired). When a `stats` dict is
    given, it counts in "negative_zero_terms" the -0.0 entries of the outer
    products."""
    if state is None:
        state = init_identifier(config)
    theta, P, count = state.theta, state.P, state.sample_count
    lam = config.forgetting
    ceiling = config.covariance_ceiling
    thetas, innovations, calibrated, clamps = [], [], [], 0
    for y, phi in zip(y_all, phi_all):
        P_phi = matvec(P, phi)
        denom = lam + matvec(phi[None], P_phi)[0]
        assert denom > 1e-12
        K = P_phi / denom
        innovation = y - matvec(theta, phi)
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

    def test_simulated_stream_near_np_dot_form(self, simulated):
        """Against the formulas with np.dot's products, whose summation
        order is the BLAS library's and may depend on the CPU: within 1e-9
        of each array's largest magnitude."""
        config = ArxConfig()
        y, phi = identify_numpy(simulated, config.order)
        ref = oracle_rls(y, phi, config, matvec=np.dot)
        run = identify(simulated, config)
        for got, want in ((run.theta, ref[0]), (run.innovation, ref[1]),
                          (run.final_state.P, ref[4])):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-9 * np.abs(want).max())

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


@pytest.fixture(scope="module")
def simulated_reference(simulated):
    """(y, phi) of the whole `simulated` stream in numpy, and `oracle_rls`
    over them."""
    y, phi = identify_numpy(simulated, ArxConfig().order)
    return y, phi, oracle_rls(y, phi, ArxConfig())


class TestIdentifyBlocks:
    """`identify` streamed in blocks of B samples, its one kernel call per
    block filling y and phi and stepping them, against the numpy forms as
    uint64 bit patterns: y and phi of the first differences and
    `build_lagged_regressors`, theta, the innovations and the final P of
    the per-sample formulas over them. The first blocks of B = 1 and 3
    hold no update."""

    @pytest.mark.parametrize("size", [1, 3, 100, 8192])
    def test_blocks_match_numpy_forms(self, simulated, simulated_reference,
                                      size):
        config = ArxConfig()
        y, phi, ref = simulated_reference
        state, runs = None, []
        for block in blocks(simulated, size, config.order + 1):
            run = identify(block, config, state)
            state = run.final_state
            runs.append(run)
        assert sum(run.y.shape[0] == 0 for run in runs) == \
            (config.order + 1) // size
        for name, want in (("y", y), ("phi", phi), ("theta", ref[0]),
                           ("innovation", ref[1])):
            assert_bits_equal(np.concatenate([getattr(run, name)
                                              for run in runs]), want)
        assert_bits_equal(state.theta, ref[3])
        assert_bits_equal(state.P, ref[4])
        assert state.sample_count == ref[5]


def kernel_rows(v, i, order):
    """(y, phi) of the updates of streams v and i, as the kernel's row fill
    makes them, one subtraction per entry: update k predicts difference
    d = order + k, y = v[d + 1] - v[d], and its regressor holds v[d] -
    v[d - 1], ..., v[d - order + 1] - v[d - order], then the same of i."""
    v, i = np.ascontiguousarray(v, float), np.ascontiguousarray(i, float)
    d = np.arange(order, max(v.shape[0] - 1, order))
    lags = [x[d - lag + 1] - x[d - lag] for x in (v, i)
            for lag in range(1, order + 1)]
    return v[d + 1] - v[d], np.concatenate(lags, axis=1)


class TestOnReadArrays:
    """`IdentRun`'s y, phi, index and calibrated, made from the stream, the
    order and the sample count when read, against the rows the kernel
    steps and the flags of the sample count, with their dtypes: for orders
    1 to 5, over a stream cut into blocks of each of TestBlockSize's sizes
    in test_scenario.py."""

    SIZES = [3, 4, 999, 8001, 24004, 10**6]

    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.Generator(np.random.Philox(21))
        n, ts = 25_000, 2e-4
        return SimResult(t=np.arange(n) * ts,
                         v_dq=1.0 + 0.01 * rng.standard_normal((n, 2)),
                         i_dq=1.0 + 0.01 * rng.standard_normal((n, 2)), ts=ts)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_arrays_equal_the_kernels_rows_and_flags(self, stream, order):
        config = ArxConfig(order=order)
        y, phi = kernel_rows(stream.v_dq, stream.i_dq, order)
        calibrated = np.arange(1, y.shape[0] + 1) >= config.burn_in
        for size in self.SIZES:
            state, got = None, {"y": [], "phi": [], "calibrated": [],
                                "t": [], "indexed": []}
            for block in blocks(stream, size, order + 1):
                run = identify(block, config, state)
                state = run.final_state
                for name in ("y", "phi", "calibrated", "t"):
                    got[name].append(getattr(run, name))
                assert run.index.dtype == np.intp
                got["indexed"].append(block.t[run.index])
            got = {name: np.concatenate(arrays)
                   for name, arrays in got.items()}
            assert got["y"].dtype == got["phi"].dtype == np.float64
            assert_bits_equal(got["y"], y)
            assert_bits_equal(got["phi"], phi)
            assert got["calibrated"].dtype == np.bool_
            assert np.array_equal(got["calibrated"], calibrated)
            assert np.array_equal(got["indexed"], got["t"])
            assert np.array_equal(got["t"], stream.t[order + 1:])

    def test_rows_mode_over_the_runs_rows_equals_stream_mode(self):
        """`run_block` over the rows (run.y, run.phi) steps the trajectory
        that the stream gave, bit for bit, windup clamps included."""
        sim = windup_stream()
        run = identify(sim, WINDUP_CONFIG)
        thetas, innovations, final, t = run_block(
            init_identifier(WINDUP_CONFIG), run.y, run.phi)
        assert t is None
        assert_bits_equal(thetas, run.theta)
        assert_bits_equal(innovations, run.innovation)
        assert_bits_equal(final.P, run.final_state.P)
        assert_bits_equal(final.theta, run.final_state.theta)
        assert final.sample_count == run.final_state.sample_count


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
            run_block(state, Y, Phi)
        assert_unchanged(state, snap)

    def test_gain_rejection_before_a_non_finite_row_names_the_rejection(
            self):
        """Each row is checked as it is stepped: a rejected gain
        denominator at row 1 stops the block before row 2's NaN is seen."""
        config = ArxConfig(order=1, input_dim=1, output_dim=1)
        state = IdentifierState(config=config, theta=np.zeros((1, 2)),
                                P=-np.eye(2), sample_count=3)
        snap = snapshot(state)
        Y = np.zeros((3, 1))
        Phi = np.array([[0.0, 0.0], [3.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(UpdateRejectedError, match=r"^gain denominator "
                           r"-8\.010e\+00 is not positive at sample 1 of"):
            run_block(state, Y, Phi)
        assert_unchanged(state, snap)

    def test_non_finite_P_and_row_name_P(self):
        """P is checked before the first step, so a non-finite P is named
        even when a row is non-finite too."""
        config = ArxConfig(order=1, input_dim=1, output_dim=1)
        P = np.eye(2)
        P[1, 1] = np.inf
        state = IdentifierState(config=config, theta=np.zeros((1, 2)), P=P)
        Phi = np.array([[np.nan, 0.0], [1.0, 0.0]])
        with pytest.raises(UpdateRejectedError, match="^covariance P holds "
                           "a non-finite value$"):
            run_block(state, np.zeros((2, 1)), Phi)


class ClampBroke(Exception):
    pass


class TestClampCallback:
    """The kernel calls the spectral clamp of P, `rls._clamp` bound to the
    ceiling in `ArxConfig.kernel_params`, back in Python. Patching
    `rls._clamp` before a config computes its params injects a clamp."""

    @staticmethod
    def broken_clamp(monkeypatch):
        """Installs a clamp that raises; returns the exception it raises."""
        error = ClampBroke("clamp broke")

        def broken(ceiling, P):
            raise error

        monkeypatch.setattr(rls_module, "_clamp", broken)
        return error

    def test_identify_raises_the_clamps_exception(self, monkeypatch):
        warm = identify(windup_stream(n_excited=50, n_still=0),
                        WINDUP_CONFIG).final_state
        error = self.broken_clamp(monkeypatch)
        config = ArxConfig(order=2, forgetting=0.95, p0_scale=1e2, p_max=1e3)
        state = IdentifierState(config=config, theta=warm.theta, P=warm.P,
                                sample_count=warm.sample_count)
        snap = snapshot(state)
        with pytest.raises(ClampBroke) as err:
            identify(windup_stream(), config, state)
        assert err.value is error
        assert_unchanged(state, snap)

    def test_row_block_raises_the_clamps_exception(self, monkeypatch):
        error = self.broken_clamp(monkeypatch)
        config = ArxConfig(order=1, input_dim=1, output_dim=1,
                           forgetting=0.95, p0_scale=1e2, p_max=1e3)
        state = IdentifierState(config=config, theta=np.ones((1, 2)),
                                P=3.0 * config.covariance_ceiling * np.eye(2),
                                sample_count=COV_CLAMP_INTERVAL - 2)
        snap = snapshot(state)
        with pytest.raises(ClampBroke) as err:
            run_block(state, np.zeros((5, 1)), np.zeros((5, 2)))
        assert err.value is error
        assert_unchanged(state, snap)

    @pytest.mark.parametrize("bad", [
        list, lambda params: params[:6], lambda params: params[:6] + (None,)],
        ids=["list", "six-tuple", "clamp-not-callable"])
    def test_rls_block_refuses_params_without_a_clamp(self, bad):
        config = ArxConfig(order=1, input_dim=1, output_dim=1)
        state = init_identifier(config)
        Y, Phi = np.zeros((3, 1)), np.zeros((3, 2))
        good = config.kernel_params
        _kernels.rls_block(good, 0, state.P, state.theta, Y, Phi, None, 0)
        with pytest.raises(TypeError, match="^rls_block: params must be a "
                           "7-tuple ending in a callable$"):
            _kernels.rls_block(bad(good), 0, state.P, state.theta, Y, Phi,
                               None, 0)

    def test_clamp_rewrites_the_blocks_own_P(self, monkeypatch):
        """The clamp gets the P that the block steps: a writable,
        C-contiguous view that the input state does not share. What it
        writes there is what the rows after it step from, as if the block
        had been split at the clamp and P rewritten between the halves."""
        seen = []

        def halve(ceiling, P):
            seen.append(P)
            P *= 0.5  # exact, and keeps P symmetric

        config = ArxConfig(order=1, input_dim=1, output_dim=1,
                           forgetting=0.95, p0_scale=1e2, p_max=1e3)
        state = IdentifierState(config=config, theta=np.ones((1, 2)),
                                P=3.0 * config.covariance_ceiling * np.eye(2),
                                sample_count=COV_CLAMP_INTERVAL - 1)
        snap = snapshot(state)
        rng = np.random.Generator(np.random.Philox(7))
        Y, Phi = rng.standard_normal((4, 1)), rng.standard_normal((4, 2))

        # the reference: row 0 alone (the kernel calls a clamp but this
        # one does nothing), P halved, then rows 1-3 (no clamp falls there)
        monkeypatch.setattr(rls_module, "_clamp", lambda ceiling, P: None)
        noop = ArxConfig(order=1, input_dim=1, output_dim=1,
                         forgetting=0.95, p0_scale=1e2, p_max=1e3)
        first = run_block(IdentifierState(config=noop, theta=state.theta,
                                          P=state.P, sample_count=snap[2]),
                          Y[:1], Phi[:1])
        halfway = first[2]
        halfway.P *= 0.5
        rest = run_block(halfway, Y[1:], Phi[1:])

        monkeypatch.setattr(rls_module, "_clamp", halve)
        thetas, innovations, final = run_block(state, Y, Phi)[:3]
        assert len(seen) == 1
        P = seen[0]
        assert P.dtype == np.float64 and P.shape == (2, 2)
        assert P.flags.c_contiguous and P.flags.writeable
        assert np.shares_memory(P, final.P)
        assert not np.shares_memory(P, state.P)
        assert_unchanged(state, snap)
        assert_bits_equal(thetas, np.concatenate([first[0], rest[0]]))
        assert_bits_equal(innovations, np.concatenate([first[1], rest[1]]))
        assert_bits_equal(final.theta, rest[2].theta)
        assert_bits_equal(final.P, rest[2].P)
        assert final.sample_count == rest[2].sample_count

    def test_rejection_after_a_clamp_names_its_row(self, monkeypatch):
        """The steps resume at the row where the clamp stopped them: a
        clamp that leaves P negative definite makes the next row's gain
        denominator negative, and the error names that row."""
        calls = 0

        def negate(ceiling, P):
            nonlocal calls
            calls += 1
            P *= -1.0

        monkeypatch.setattr(rls_module, "_clamp", negate)
        config = ArxConfig(order=1, input_dim=1, output_dim=1,
                           forgetting=0.95, p0_scale=1e2, p_max=1e3)
        state = IdentifierState(config=config, theta=np.zeros((1, 2)),
                                P=3.0 * config.covariance_ceiling * np.eye(2),
                                sample_count=COV_CLAMP_INTERVAL - 2)
        snap = snapshot(state)
        Y, Phi = np.zeros((4, 1)), np.zeros((4, 2))
        Phi[2:, 0] = 1.0  # rows 0 and 1 (the clamp after 1) have no gain
        with pytest.raises(UpdateRejectedError,
                           match="is not positive at sample 2 of"):
            run_block(state, Y, Phi)
        assert calls == 1
        assert_unchanged(state, snap)

    def test_non_finite_last_row_after_a_clamp_keeps_the_input_state(
            self, monkeypatch):
        """A block that fails at its last row, after the clamp rewrote its
        P, raises naming that row and leaves the input state's P and theta
        with their bits: the steps and the clamp worked on the block's own
        copy."""
        calls = 0
        clamp = rls_module._clamp

        def counted(ceiling, P):
            nonlocal calls
            calls += 1
            clamp(ceiling, P)

        monkeypatch.setattr(rls_module, "_clamp", counted)
        config = ArxConfig(order=1, input_dim=1, output_dim=1,
                           forgetting=0.95, p0_scale=1e2, p_max=1e3)
        rng = np.random.Generator(np.random.Philox(13))
        state = IdentifierState(config=config,
                                theta=rng.standard_normal((1, 2)),
                                P=3.0 * config.covariance_ceiling * np.eye(2),
                                sample_count=COV_CLAMP_INTERVAL - 2)
        bits = state.P.tobytes(), state.theta.tobytes()
        # regressors this small leave P above the ceiling at the check
        Y, Phi = rng.standard_normal((4, 1)), 1e-3 * rng.standard_normal(
            (4, 2))
        Phi[3, 1] = np.nan
        with pytest.raises(UpdateRejectedError, match="^non-finite value in "
                           "update input at sample 3 of the block$"):
            run_block(state, Y, Phi)
        assert calls == 1  # after row 1, at sample count 50
        assert (state.P.tobytes(), state.theta.tobytes()) == bits
        assert state.sample_count == COV_CLAMP_INTERVAL - 2

    @pytest.mark.parametrize("size", [1, 7, COV_CLAMP_INTERVAL, 10**6])
    def test_clamp_called_on_the_sample_count_cadence(self, monkeypatch,
                                                      size):
        """With ||P||_F above the ceiling, the kernel calls the clamp once
        at each multiple of COV_CLAMP_INTERVAL of the absolute sample
        count, on the same P wherever the block boundaries fall."""
        seen = []
        clamp = rls_module._clamp

        def recorded(ceiling, P):
            seen.append(P.copy())
            clamp(ceiling, P)

        monkeypatch.setattr(rls_module, "_clamp", recorded)
        config = ArxConfig(order=1, input_dim=1, output_dim=1,
                           forgetting=0.95, p0_scale=1e2, p_max=1e3)
        m = 4 * COV_CLAMP_INTERVAL
        rng = np.random.Generator(np.random.Philox(11))
        Phi = np.zeros((m, 2))
        Phi[:COV_CLAMP_INTERVAL // 2] = 0.01 * rng.standard_normal(
            (COV_CLAMP_INTERVAL // 2, 2))
        Y = (Phi @ np.array([0.5, -0.25]))[:, None]
        start = IdentifierState(
            config=config, theta=np.zeros((1, 2)),
            P=3.0 * config.covariance_ceiling * np.eye(2), sample_count=3)
        whole = run_block(start, Y, Phi)[2]
        want, seen[:] = list(seen), []
        assert len(want) == 4  # at 50, 100, 150 and 200

        state = start
        for lo in range(0, m, size):
            state = run_block(state, Y[lo:lo + size], Phi[lo:lo + size])[2]
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert_bits_equal(got, ref)
        assert_bits_equal(state.P, whole.P)
        assert_bits_equal(state.theta, whole.theta)

    def test_clamp_loop_holds_its_peak_memory(self, monkeypatch):
        """10,000 blocks, each firing the clamp once, after 1000 to warm
        up: the traced peak of the Python and numpy heaps stays that of
        one block, so no block leaves a reference to its arrays behind
        (one leaked P view per block would hold about 3 MB here). The
        process's peak RSS cannot show this: numpy's import sets it higher
        than such a leak reaches."""
        calls = 0
        clamp = rls_module._clamp

        def counted(ceiling, P):
            nonlocal calls
            calls += 1
            clamp(ceiling, P)

        monkeypatch.setattr(rls_module, "_clamp", counted)
        config = ArxConfig(order=1, input_dim=1, output_dim=1,
                           forgetting=0.95, p0_scale=1e2, p_max=1e3)
        state = IdentifierState(config=config, theta=np.zeros((1, 2)),
                                P=3.0 * config.covariance_ceiling * np.eye(2))
        Y, Phi = np.zeros((COV_CLAMP_INTERVAL, 1)), np.zeros(
            (COV_CLAMP_INTERVAL, 2))
        for _ in range(1000):
            run_block(state, Y, Phi)
        tracemalloc.start()
        try:
            for _ in range(10_000):
                run_block(state, Y, Phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == 11_000
        assert peak <= 64 * 1024, peak


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
        """P's and theta's extents depend on the output count and the
        regressor length: other shapes than the shipped 2 x 12, each
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
        thetas, innovations, final = run_block(init_identifier(config), Y,
                                               Phi)[:3]
        assert_bits_equal(thetas, ref[0])
        assert_bits_equal(innovations, ref[1])
        assert_bits_equal(final.theta, ref[3])
        assert_bits_equal(final.P, ref[4])
        assert final.sample_count == ref[5]

    @staticmethod
    def signed_zero_stream(config, m, rng):
        """(Y, Phi) of a random stream with an unexcited stretch, an
        exact-zero and a -0.0 regressor column."""
        n, r = config.regressor_len, config.output_dim
        Phi = rng.standard_normal((m, n))
        Phi[m // 3:m // 2] = 0.0
        Phi[:, 1] = 0.0
        Phi[:, 4] = -0.0
        Y = Phi @ rng.standard_normal((r, n)).T + \
            1e-3 * rng.standard_normal((m, r))
        return Y, Phi

    def assert_row_block_bits_match(self, state, Y, Phi):
        ref = oracle_rls(Y, Phi, state.config, state)
        thetas, innovations, final = run_block(state, Y, Phi)[:3]
        assert np.isfinite(thetas).all() and np.isfinite(final.P).all()
        assert_bits_equal(thetas, ref[0])
        assert_bits_equal(innovations, ref[1])
        assert_bits_equal(final.theta, ref[3])
        assert_bits_equal(final.P, ref[4])
        assert final.sample_count == ref[5]
        return ref

    @pytest.mark.parametrize("output_dim", [1, 2, 3])
    @pytest.mark.parametrize("forgetting", [0.95, 0.999, 1.0])
    def test_signed_zero_columns_with_clamp(self, forgetting, output_dim):
        """From a P above the ceiling, so that the clamp fires at every
        forgetting factor."""
        config = ArxConfig(order=2, output_dim=output_dim,
                           forgetting=forgetting, p0_scale=1e2, p_max=1e3)
        rng = np.random.Generator(np.random.Philox(output_dim))
        Y, Phi = self.signed_zero_stream(config, 600, rng)
        assert np.signbit(Phi[:, 4]).all()
        state = IdentifierState(
            config=config, theta=np.zeros((output_dim, config.regressor_len)),
            P=3.0 * config.covariance_ceiling * np.eye(config.regressor_len))
        ref = self.assert_row_block_bits_match(state, Y, Phi)
        assert ref[-1] >= 1  # the ceiling clamp really fired

    @pytest.mark.parametrize("output_dim", [1, 2, 3])
    @pytest.mark.parametrize("forgetting", [0.95, 0.999, 1.0])
    def test_mixed_scales(self, forgetting, output_dim):
        """Regressor columns scaled from 1e-150 to 1e150, from a prior P
        scaled to match (P_jj = 1/s_j**2), so that every step's terms span
        the float range without leaving it; the ceiling is out of reach."""
        config = ArxConfig(order=2, output_dim=output_dim,
                           forgetting=forgetting, p0_scale=1.0, p_max=1e308)
        n = config.regressor_len
        rng = np.random.Generator(np.random.Philox(10 + output_dim))
        Y, Phi = self.signed_zero_stream(config, 300, rng)
        scale = 10.0 ** rng.permutation(np.linspace(-150.0, 150.0, n))
        Phi = Phi * scale
        state = IdentifierState(config=config, theta=np.zeros((output_dim, n)),
                                P=np.diag(1.0 / scale ** 2))
        # run_block's finiteness check looks at each value, so no sum of
        # squares overflows on these finite values and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref = self.assert_row_block_bits_match(state, Y, Phi)
        assert ref[-1] == 0
        assert np.abs(ref[4]).max() > 1e280 and np.abs(ref[4]).min() < 1e-280

    def test_eigh_skipped_on_excited_stream(self, simulated, monkeypatch):
        config = ArxConfig()
        eigh = EighCalls(monkeypatch)
        run = identify(simulated, config)
        assert run.final_state.sample_count >= 10 * COV_CLAMP_INTERVAL
        assert eigh.calls == 0


def never_clamp(P):
    raise AssertionError("the spectral clamp was called")


class TestKernelSteps:
    """The C step loops of `rls.run_block` and `_kernels.sim_rows`, which the
    simulator's segment walk calls, sum each product left to right, so
    that a step has the bits of the formulas written with `matvec_fixed`
    on any CPU."""

    @pytest.mark.parametrize("n, r", [(12, 2), (12, 1)],
                             ids=["2x12", "1x12"])
    def test_rls_steps_equal_numpy_formulas(self, n, r):
        """One kernel step on random P and theta against the step written
        with numpy's elementwise operations and `matvec_fixed`."""
        rng = np.random.Generator(np.random.Philox(n + r))
        lam = 0.99
        h = n // 2
        for trial in range(300):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            B = A @ A.T + np.eye(n)
            P = B + B.T
            theta = rng.standard_normal((r, n))
            scale = 10.0 ** rng.uniform(-6, 6)
            phi = scale * rng.standard_normal(n)
            phi[rng.integers(n)] = -0.0
            y = scale * rng.standard_normal(r)
            if trial % 2:
                # signed zeros where the rank-1 terms are zeros: P phi and
                # K vanish in their second half, where theta holds -0.0 and
                # the off-diagonal blocks of P hold mirrored zeros of
                # opposite sign, +0.0 above the diagonal and -0.0 below it
                # or the reverse (P == P' compares them as numbers)
                upper = 0.0 if trial % 4 == 1 else -0.0
                P[:h, h:] = upper
                P[h:, :h] = -upper
                theta[:, h:] = -0.0
                phi[h:] = np.where(rng.random(n - h) < 0.5, 0.0, -0.0)

            Pphi = matvec_fixed(P, phi)
            d = lam + matvec_fixed(phi[None], Pphi)[0]
            K = Pphi / d
            e = y - matvec_fixed(theta, phi)
            want_theta = theta + np.outer(e, K)
            A = (P - np.outer(Pphi, K)) / (2.0 * lam)
            want_P = A + A.T.copy()

            params = (r, n, lam, MIN_GAIN_DENOMINATOR, COV_CLAMP_INTERVAL,
                      np.inf, never_clamp)
            got_P, got_theta, theta_traj, innovation, _ = \
                _kernels.rls_block(params, 0, P, theta, y[None], phi[None],
                                   None, 0)
            assert_bits_equal(got_P, want_P)
            assert_bits_equal(got_theta, want_theta)
            assert_bits_equal(theta_traj[0], want_theta)
            assert_bits_equal(innovation[0], e)

    @pytest.mark.parametrize("nx", [4, 6], ids=["6x4", "8x6"])
    def test_simulator_steps_equal_numpy_formulas(self, nx):
        """Kernel steps of random [F; Cv] stacks and input products
        against the steps written with `matvec_fixed`, each input product
        summed from its first term as `simulate._matvec` sums it."""
        rng = np.random.Generator(np.random.Philox(nx))
        m, nu = 40, 2
        for _ in range(50):
            FC = rng.standard_normal((nx + 2, nx)) / nx
            Gb = rng.standard_normal((nx, nu))
            f = rng.standard_normal(nx) * 10.0 ** rng.uniform(-6, 6)
            x0 = rng.standard_normal(nx) * 10.0 ** rng.uniform(-6, 6)
            u = rng.standard_normal((m, nu)) * \
                10.0 ** rng.uniform(-6, 6, size=(m, 1))
            want_v = np.empty((m, 2))
            x = x0
            for k in range(m):
                FCx = matvec_fixed(FC, x)
                drive = u[k, 0] * Gb[:, 0]
                for c in range(1, nu):
                    drive = drive + u[k, c] * Gb[:, c]
                x = FCx[:nx] + (drive + f)
                want_v[k] = FCx[nx:]
            got_x, got_v = x0.copy(), np.empty((m, 2))
            _kernels.sim_rows(FC, Gb, f, got_x, u, got_v)
            assert_bits_equal(got_x, x)
            assert_bits_equal(got_v, want_v)


def contract_calls():
    """The good call of each entry point that takes arrays as they are:
    (name, the arguments before its checked arrays, the checked arrays by
    argument name in call order, those it writes, the arguments after)."""
    n, r, m = 12, 2, 3
    rng = np.random.Generator(np.random.Philox(3))
    yield ("sim_rows", (),
           {"FC": rng.standard_normal((6, 4)) / 4,
            "Gb": rng.standard_normal((4, 2)), "f": np.ones(4),
            "x": np.ones(4), "u": rng.standard_normal((m, 2)),
            "v": np.empty((m, 2))},
           {"x", "v"}, ())
    star = rng.standard_normal((r, n))
    yield ("classify_block",
           (star + rng.standard_normal((m, r, n)), star),
           {"matrix": rng.standard_normal((2, r * n)),
            "norms": np.ones(2), "sig_codes": np.array([1, 2])},
           set(), (0.1, 10.0, 0.8))
    yield ("add_rows", (), {"total": np.zeros((r, n))}, {"total"},
           (rng.standard_normal((m, r, n)),))
    yield ("cycle_average", (rng.standard_normal((m, 2)),),
           {"history": np.zeros((5, 2)), "total": np.zeros(2)},
           {"history", "total"}, (0,))


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# Arrays that break the contract: each keeps the values it can.
DEFECTS = {
    "float32": lambda a: a.astype(np.float32 if a.dtype.kind == "f"
                                  else np.int32),
    "non-contiguous": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "read-only": read_only,
    "wrongly shaped": lambda a: a[None],
}


class TestEntryPointContract:
    """The arrays an entry point takes as they are must be aligned,
    C-contiguous ndarrays of its dtype and shape, writable where it writes
    them; the block entry points convert their streams and snapshots
    instead, and allocate fresh outputs."""

    @pytest.mark.parametrize("func, name, defect", [
        (func, name, defect)
        for func, _, arrays, written, _ in contract_calls()
        for name in arrays for defect in DEFECTS
        if defect != "read-only" or name in written])
    def test_bad_array_refused_by_name(self, func, name, defect):
        _, before, arrays, _, after = next(
            call for call in contract_calls() if call[0] == func)
        entry = getattr(_kernels, func)
        entry(*before, *arrays.values(), *after)
        arrays[name] = DEFECTS[defect](arrays[name])
        with pytest.raises(ValueError, match=f"^{func}: argument {name}: "):
            entry(*before, *arrays.values(), *after)

    @pytest.mark.parametrize("func, name", [
        ("cycle_average", "count"), ("rls_block", "order"),
        ("rls_block", "count0"), ("rls_block", "output_dim"),
        ("rls_block", "regressor_len"), ("rls_block", "interval")])
    def test_huge_integer_refused_by_name(self, func, name):
        """An integer argument beyond a C ssize_t raises ValueError naming
        its entry point and itself, not a bare OverflowError; an item of
        rls_block's params tuple is named as the tuple orders them."""
        config = ArxConfig()
        state = init_identifier(config)
        v, i = np.zeros((8, 2)), np.zeros((8, 2))
        # each call's arguments, and where each integer argument sits: its
        # position, or its position in the params tuple as (0, item)
        args, where = {
            "cycle_average": ([np.zeros((3, 2)), np.zeros((5, 2)),
                               np.zeros(2), 0], {"count": 3}),
            "rls_block": ([config.kernel_params, 0, state.P, state.theta, v,
                           i, np.arange(8.0), config.order],
                          {"count0": 1, "order": 7, "output_dim": (0, 0),
                           "regressor_len": (0, 1), "interval": (0, 4)}),
        }[func]
        entry = getattr(_kernels, func)
        entry(*args)
        at = where[name]
        if isinstance(at, tuple):
            params = list(args[0])
            params[at[1]] = 10**20
            args[0] = tuple(params)
        else:
            args[at] = 10**20
        with pytest.raises(ValueError, match=f"^{func}: argument {name}: "
                           "100000000000000000000 is outside the range of "
                           "a C ssize_t$"):
            entry(*args)

    @pytest.mark.parametrize("convert", [
        lambda x: x.tolist(), lambda x: x.astype(np.float32),
        np.asfortranarray, lambda x: np.repeat(x, 2, axis=0)[::2]],
        ids=["list", "float32", "fortran", "strided"])
    def test_identify_converts_streams(self, simulated, convert):
        """As np.ascontiguousarray(x, float) converts them."""
        config = ArxConfig()
        v, i = convert(simulated.v_dq[:600]), convert(simulated.i_dq[:600])
        got = identify(SimResult(t=simulated.t[:600], v_dq=v, i_dq=i,
                                 ts=simulated.ts), config)
        want = identify(SimResult(
            t=simulated.t[:600], v_dq=np.ascontiguousarray(v, float),
            i_dq=np.ascontiguousarray(i, float), ts=simulated.ts), config)
        for name in ("theta", "y", "phi", "innovation"):
            assert_bits_equal(getattr(got, name), getattr(want, name))
        assert_bits_equal(got.final_state.P, want.final_state.P)

    def test_identify_outputs_are_fresh(self, simulated):
        """Each block's arrays are its own, writable, and kept intact by
        the calls after it (a stream keeps every block's theta)."""
        config = ArxConfig()
        names = ("theta", "y", "phi", "innovation", "index", "calibrated")
        parts = blocks(simulated, 100, config.order + 1)
        first = identify(next(parts), config)
        kept = {name: getattr(first, name).copy() for name in names}
        state, later = first.final_state, []
        for _ in range(3):
            later.append(identify(next(parts), config, state))
            state = later[-1].final_state
        for name in names:
            array = getattr(first, name)
            assert array.flags.owndata and array.flags.writeable, name
            assert np.array_equal(array, kept[name]), name
            for run in later:
                assert not np.shares_memory(array, getattr(run, name))
        for run in later:
            assert not np.shares_memory(first.final_state.P,
                                        run.final_state.P)
