"""Recursive estimator: configuration, single updates, oracle agreement,
and covariance health."""

import numpy as np
import pytest

from gridarx.rls import (
    ArxConfig,
    ConfigError,
    SingularDataError,
    UpdateRejectedError,
    batch_weighted_ls,
    init_identifier,
    rls_update,
)


def random_arx_stream(rng, order, input_dim, output_dim, n, noise=0.0):
    """Simulate a stable random ARX system; returns (theta_true, pairs)."""
    nphi = (input_dim + output_dim) * order
    theta = rng.normal(size=(output_dim, nphi))
    # damp the output-feedback blocks so the recursion stays bounded
    theta[:, : output_dim * order] *= 0.3 / max(order, 1)
    y_hist = [np.zeros(output_dim) for _ in range(order)]
    u_hist = [np.zeros(input_dim) for _ in range(order)]
    pairs = []
    for _ in range(n):
        u = rng.normal(size=input_dim)
        phi = np.concatenate(y_hist + u_hist)
        y = theta @ phi + noise * rng.normal(size=output_dim)
        pairs.append((y, phi))
        y_hist.insert(0, y)
        del y_hist[order:]
        u_hist.insert(0, u)
        del u_hist[order:]
    return theta, pairs


class TestConfig:
    def test_default_shapes(self):
        cfg = ArxConfig(order=3, input_dim=2, output_dim=2, p0_scale=1e4)
        state = init_identifier(cfg)
        assert state.theta.shape == (2, 12)
        assert np.array_equal(state.P, 1e4 * np.eye(12))
        assert state.sample_count == 0

    def test_scalar_dims(self):
        cfg = ArxConfig(order=1, input_dim=1, output_dim=1)
        state = init_identifier(cfg)
        assert state.theta.shape == (1, 2)

    def test_forgetting_out_of_range(self):
        with pytest.raises(ConfigError):
            ArxConfig(forgetting=1.5)
        with pytest.raises(ConfigError):
            ArxConfig(forgetting=0.0)

    def test_bad_order(self):
        with pytest.raises(ConfigError):
            ArxConfig(order=0)

    def test_bad_p0(self):
        with pytest.raises(ConfigError):
            ArxConfig(p0_scale=0.0)

    def test_p_max_below_p0_rejected(self):
        with pytest.raises(ConfigError):
            ArxConfig(p0_scale=1e6, p_max=1e4)

    def test_regressor_len_and_burn_in(self):
        cfg = ArxConfig(order=3, input_dim=2, output_dim=2)
        assert cfg.regressor_len == 12
        assert cfg.burn_in == 24


class TestUpdate:
    def test_single_scalar_sample_diffuse_prior(self):
        cfg = ArxConfig(order=1, input_dim=1, output_dim=1, forgetting=1.0,
                        p0_scale=1e6, p_max=1e6)
        state = init_identifier(cfg)
        # regressor [y(k-1), u(k-1)] = [1, 0]: effectively scalar LS on the
        # first component
        state = rls_update(state, [2.0], [1.0, 0.0])
        assert abs(state.theta[0, 0] - 2.0) < 1e-5
        assert state.sample_count == 1

    def test_dimension_mismatch_rejected(self):
        state = init_identifier(ArxConfig())
        with pytest.raises(UpdateRejectedError):
            rls_update(state, np.zeros(3), np.zeros(12))
        with pytest.raises(UpdateRejectedError):
            rls_update(state, np.zeros(2), np.zeros(11))

    def test_non_finite_rejected_state_unchanged(self):
        state = init_identifier(ArxConfig())
        before = state.theta.copy()
        with pytest.raises(UpdateRejectedError):
            rls_update(state, [np.nan, 0.0], np.zeros(12))
        assert np.array_equal(state.theta, before)
        assert state.sample_count == 0

    @pytest.mark.parametrize("y, phi", [
        ([0.0, np.inf], np.zeros(12)),
        (np.zeros(2), np.r_[np.zeros(11), np.nan]),
    ])
    def test_non_finite_message_names_sample(self, y, phi):
        state = rls_update(init_identifier(ArxConfig()), np.ones(2),
                           np.ones(12))
        before = state.theta.copy(), state.P.copy()
        with pytest.raises(UpdateRejectedError, match="at sample 0 of"):
            rls_update(state, y, phi)
        assert np.array_equal(state.theta, before[0])
        assert np.array_equal(state.P, before[1])
        assert state.sample_count == 1

    def test_config_dims_mismatch_state_unchanged(self):
        state = init_identifier(ArxConfig(order=3, input_dim=3))
        P = state.P.copy()
        with pytest.raises(UpdateRejectedError, match="regressor has length"):
            rls_update(state, np.zeros(2), np.zeros(12))
        assert np.array_equal(state.P, P)
        assert state.sample_count == 0

    def test_update_is_functional(self):
        state = init_identifier(ArxConfig())
        out = rls_update(state, np.ones(2), np.ones(12))
        assert out is not state
        assert state.sample_count == 0
        assert out.sample_count == 1

    def test_determinism(self, rng):
        _, pairs = random_arx_stream(rng, 2, 2, 2, 100)
        results = []
        for _ in range(2):
            state = init_identifier(ArxConfig(order=2))
            for y, phi in pairs:
                state = rls_update(state, y, phi)
            results.append(state.theta.copy())
        assert np.array_equal(results[0], results[1])


class TestOracleAgreement:
    def test_no_forgetting_matches_batch_ls(self, rng):
        theta_true, pairs = random_arx_stream(rng, 2, 1, 1, 200)
        cfg = ArxConfig(order=2, input_dim=1, output_dim=1, forgetting=1.0,
                        p0_scale=1e8, p_max=1e12)
        state = init_identifier(cfg)
        for y, phi in pairs:
            state = rls_update(state, y, phi)
        batch = batch_weighted_ls(pairs, 1.0)
        err = np.linalg.norm(state.theta - batch) / np.linalg.norm(batch)
        assert err < 1e-8
        assert np.linalg.norm(state.theta - theta_true) < 1e-6

    def test_forgetting_matches_weighted_batch(self, rng):
        _, pairs = random_arx_stream(rng, 2, 1, 1, 200)
        cfg = ArxConfig(order=2, input_dim=1, output_dim=1, forgetting=0.99,
                        p0_scale=1e8, p_max=1e12)
        state = init_identifier(cfg)
        for y, phi in pairs:
            state = rls_update(state, y, phi)
        batch = batch_weighted_ls(pairs, 0.99)
        err = np.linalg.norm(state.theta - batch) / np.linalg.norm(batch)
        assert err < 1e-6

    def test_noiseless_convergence_monotone_after_burn_in(self, rng):
        theta_true, pairs = random_arx_stream(rng, 3, 2, 2, 400)
        cfg = ArxConfig(order=3, forgetting=1.0, p0_scale=1e8, p_max=1e12)
        state = init_identifier(cfg)
        errors = []
        for y, phi in pairs:
            state = rls_update(state, y, phi)
            errors.append(np.linalg.norm(state.theta - theta_true))
        errors = np.asarray(errors)
        assert errors[-1] < 1e-6
        tail = errors[cfg.burn_in:]
        # allow tiny floating-point wiggle on an otherwise decreasing error
        assert np.all(np.diff(tail) < 1e-9)


class TestBatchOracle:
    def test_exact_interpolation(self, rng):
        theta_true, pairs = random_arx_stream(rng, 2, 2, 2, 80)
        batch = batch_weighted_ls(pairs, 1.0)
        assert np.linalg.norm(batch - theta_true) < 1e-10

    def test_rank_deficiency_raises(self):
        pairs = [([1.0], [1.0, 1.0])] * 30
        with pytest.raises(SingularDataError):
            batch_weighted_ls(pairs, 1.0)

    def test_too_few_samples_raises(self, rng):
        _, pairs = random_arx_stream(rng, 3, 2, 2, 5)
        with pytest.raises(SingularDataError):
            batch_weighted_ls(pairs, 1.0)

    def test_weighted_scalar_mean_closed_form(self):
        pairs = [([1.0], [1.0]), ([3.0], [1.0])]
        batch = batch_weighted_ls(pairs, 0.9)
        assert abs(batch[0, 0] - 3.9 / 1.9) < 1e-12

    def test_bad_forgetting(self):
        with pytest.raises(ConfigError):
            batch_weighted_ls([([1.0], [1.0])], 0.0)


class TestCovarianceHealth:
    def test_symmetry_after_updates(self, rng):
        _, pairs = random_arx_stream(rng, 2, 2, 2, 300)
        state = init_identifier(ArxConfig(order=2, forgetting=0.99))
        for y, phi in pairs:
            state = rls_update(state, y, phi)
            P = state.P
            assert np.linalg.norm(P - P.T) <= 1e-10 * np.linalg.norm(P)

    def test_positive_definite_under_weak_excitation(self):
        # a stream that never excites half the regressor space would blow
        # the covariance up without the ceiling; it must stay Cholesky-able
        cfg = ArxConfig(order=1, input_dim=1, output_dim=1, forgetting=0.99,
                        p0_scale=1e4)
        state = init_identifier(cfg)
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(5000):
            phi = np.array([rng.normal(), 0.0])
            state = rls_update(state, [phi[0] * 0.5], phi)
            np.linalg.cholesky(state.P)
        # between ceiling checks P can overshoot by at most 1/lambda**50
        assert np.max(np.linalg.eigvalsh(state.P)) <= \
            cfg.covariance_ceiling / 0.99**50 * 1.01
