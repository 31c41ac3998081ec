"""Signal preparation: Park transforms, difference streams, regressor
assembly, and random binary excitation. The difference streams are those
of `pipeline.identify`; the regressor layouts pin
`oracles.build_lagged_regressors`, the numpy form that
`test_pipeline.TestIdentifyBlocks` holds `identify`'s regressors to."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridarx.pipeline import identify
from gridarx.rls import ArxConfig
from gridarx.scenario import ScenarioConfig
from gridarx.signals import RbsConfig, RbsStream, rbs_generate
from gridarx.simulate import SimResult, simulate
from oracles import abc_to_dq, build_lagged_regressors, dq_to_abc


def balanced_cosine(peak, omega_t, phase=0.0):
    shifts = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])
    return peak * np.cos(omega_t + shifts + phase)


class TestPark:
    def test_aligned_cosine_maps_to_d_axis(self):
        for omega_t in np.linspace(0.0, 7.0, 17):
            dq = abc_to_dq(balanced_cosine(1.0, omega_t), omega_t)
            assert np.allclose(dq, [1.0, 0.0], atol=1e-12)

    def test_zero_input(self):
        assert np.allclose(abc_to_dq(np.zeros(3), 0.3), [0.0, 0.0])

    def test_quarter_cycle_lag_maps_to_negative_q(self):
        # waveform lagging the reference angle by 90 degrees
        for omega_t in np.linspace(0.0, 7.0, 17):
            abc = balanced_cosine(1.0, omega_t, phase=-np.pi / 2)
            dq = abc_to_dq(abc, omega_t)
            assert np.allclose(dq, [0.0, -1.0], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            abc_to_dq([np.inf, 0.0, 0.0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.floats(-10, 10),
        q=st.floats(-10, 10),
        angle=st.floats(-50, 50),
    )
    def test_round_trip_identity(self, d, q, angle):
        dq = np.array([d, q])
        back = abc_to_dq(dq_to_abc(dq, angle), angle)
        assert np.allclose(back, dq, atol=1e-12)


def identify_samples(v, i, order=1):
    v = np.asarray(v, float)
    i = np.asarray(i, float)
    t = np.arange(v.shape[0]) * 1e-3
    return identify(SimResult(t=t, v_dq=v, i_dq=i, ts=1e-3),
                    ArxConfig(order=order))


class TestDifferenceStream:
    """`identify` regresses first differences of consecutive samples."""

    def test_arithmetic(self):
        v = [[1.00, 0.00], [1.01, -0.02], [1.04, -0.02]]
        i = [[0.5, 0.1], [0.5, 0.1], [0.7, 0.0]]
        run = identify_samples(v, i)
        assert np.allclose(run.y, [[0.03, 0.0]])
        assert np.allclose(run.phi, [[0.01, -0.02, 0.0, 0.0]])
        assert np.array_equal(run.index, [2])

    def test_identical_samples_zero(self):
        run = identify_samples(np.ones((6, 2)), np.ones((6, 2)), order=2)
        assert run.y.shape == (3, 2)
        assert np.array_equal(run.y, np.zeros((3, 2)))
        assert np.array_equal(run.phi, np.zeros((3, 8)))

    def test_summed_diffs_recover_signal(self, rng):
        v = rng.normal(size=(50, 2))
        i = rng.normal(size=(50, 2))
        run = identify_samples(v, i, order=3)
        assert np.allclose(run.y.sum(axis=0), v[-1] - v[3], atol=1e-10)
        # output m is the difference ending at sample index[m]
        assert np.array_equal(run.y, v[run.index] - v[run.index - 1])


class TestRegressorBuilder:
    """`build_lagged_regressors` against hand-written layouts: newest lag
    first, voltages before currents."""

    def test_not_ready_until_full(self):
        for n_d in range(4):
            phi, y = build_lagged_regressors(np.ones((n_d, 2)),
                                             np.ones((n_d, 2)), 3)
            assert phi.shape == (0, 12) and y.shape == (0, 2)
        phi, y = build_lagged_regressors(np.ones((4, 2)), np.ones((4, 2)), 3)
        assert phi.shape == (1, 12) and y.shape == (1, 2)

    def test_order_one_layout(self):
        dv = np.array([[1.0, 2.0], [5.0, 6.0]])
        di = np.array([[3.0, 4.0], [7.0, 8.0]])
        phi, y = build_lagged_regressors(dv, di, 1)
        assert np.array_equal(phi, [[1.0, 2.0, 3.0, 4.0]])
        assert np.array_equal(y, [[5.0, 6.0]])

    def test_order_three_layout_newest_first(self):
        k = np.arange(1.0, 6.0)[:, None]
        dv = np.hstack([10.0 * k, 10.0 * k + 1])  # difference k at row k-1
        di = np.hstack([20.0 * k, 20.0 * k + 1])
        phi, y = build_lagged_regressors(dv, di, 3)
        assert np.array_equal(phi, [
            [30, 31, 20, 21, 10, 11, 60, 61, 40, 41, 20, 21],
            [40, 41, 30, 31, 20, 21, 80, 81, 60, 61, 40, 41],
        ])
        assert np.array_equal(y, [[40, 41], [50, 51]])

    def test_bad_order(self):
        with pytest.raises(ValueError):
            build_lagged_regressors(np.ones((4, 2)), np.ones((4, 2)), 0)


class TestRbs:
    def test_values_are_plus_minus_amplitude(self):
        seq = rbs_generate(RbsConfig(amplitude=0.1, seed=3), 1000)
        assert set(np.unique(seq)) == {-0.1, 0.1}
        assert seq.shape == (1000, 2)

    def test_deterministic(self):
        a = rbs_generate(RbsConfig(seed=5), 500)
        b = rbs_generate(RbsConfig(seed=5), 500)
        assert np.array_equal(a, b)
        c = rbs_generate(RbsConfig(seed=6), 500)
        assert not np.array_equal(a, c)

    def test_mean_vanishes(self):
        seq = rbs_generate(RbsConfig(amplitude=0.1, seed=11), 100_000)
        assert np.all(np.abs(seq.mean(axis=0)) < 0.01 * 0.1)

    def test_channels_uncorrelated(self):
        seq = rbs_generate(RbsConfig(amplitude=1.0, seed=12), 10_000)
        corr = np.corrcoef(seq[:, 0], seq[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_chip_holding(self):
        cfg = RbsConfig(amplitude=0.1, chip_rate=1000.0, seed=1)
        seq = rbs_generate(cfg, 100, fs=5000.0)
        # five samples per chip
        for c in range(20):
            chunk = seq[5 * c : 5 * c + 5]
            assert np.all(chunk == chunk[0])

    def test_chip_rate_above_sampling_rejected(self):
        with pytest.raises(ValueError):
            rbs_generate(RbsConfig(chip_rate=10_000.0), 10, fs=5000.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RbsConfig(amplitude=0.0)
        with pytest.raises(ValueError):
            RbsConfig(chip_rate=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["amplitude", "chip_rate"])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ValueError) as err:
            RbsConfig(**{name: value})
        assert str(err.value) == f"{name} must be finite, got {value!r}"

    def test_zero_length(self):
        assert rbs_generate(RbsConfig(), 0).shape == (0, 2)

    @pytest.mark.parametrize("rows", [8192, 8191, 1, 3])
    def test_philox_choice_in_chunks_is_one_draw(self, rows):
        """A numpy property the excitation stream relies on: each row of
        `choice([-1, 1])` takes the same draws however the rows are cut
        into calls."""
        n = 3 * 8192 + 5
        whole = np.random.Generator(np.random.Philox(1)).choice(
            [-1.0, 1.0], size=(n, 2))
        rng = np.random.Generator(np.random.Philox(1))
        parts = [rng.choice([-1.0, 1.0], size=(min(rows, n - lo), 2))
                 for lo in range(0, n, rows)]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("chip_rate", [5000.0, 1250.0, 3000.0])
    def test_stream_pieces_join_into_one_call(self, chip_rate):
        """Pieces of any length, chips straddling them, give the bits of
        one call."""
        config = RbsConfig(amplitude=0.2, chip_rate=chip_rate, seed=9)
        sizes = [1, 3, 4, 0, 7, 8192, 1, 2, 999]
        stream = RbsStream(config, 5000.0)
        got = np.concatenate([stream.take(k) for k in sizes])
        want = rbs_generate(config, sum(sizes), 5000.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_regressor_covariance_full_rank(params):
    """Excitation-driven measured regressors span the whole space."""
    config = ScenarioConfig(duration=0.1)
    sim = simulate(params, None, config.excitation, config.duration,
                   config.ts, config.noise_std, config.noise_seed)
    n = 100 * 3
    phi = identify(sim, config.identifier).phi[:n]
    cov = phi.T @ phi / n
    s = np.linalg.svd(cov, compute_uv=False)
    assert s.min() > 0.0
    assert np.isfinite(s.max() / s.min())
