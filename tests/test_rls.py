"""Recursive estimator: configuration, single updates, oracle agreement,
and covariance health."""

import numpy as np
import pytest

from gridarx.rls import (
    ArxConfig,
    ConfigError,
    UpdateRejectedError,
    init_identifier,
    run_block,
    rls_update,
)
from oracles import SingularDataError, batch_weighted_ls


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


@pytest.mark.parametrize("case", [1, 2])
def test_rng_fixture_starts_at_its_seed(rng, case):
    """Each test's `rng` draws what a fresh Philox(1234) generator draws,
    the second test as well as the first."""
    fresh = np.random.Generator(np.random.Philox(1234))
    assert rng.standard_normal() == fresh.standard_normal()


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["forgetting", "p0_scale", "p_max"])
    def test_non_finite_field_named(self, name, value):
        """Else a nan p_max was accepted silently, and a nan p0_scale
        failed in the first update as a non-finite covariance."""
        with pytest.raises(ConfigError) as err:
            ArxConfig(**{name: value})
        assert str(err.value) == f"{name} must be finite, got {value!r}"

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

    def test_asymmetric_covariance_rejected_state_unchanged(self):
        """The stacked update needs P == P' exactly; a P whose one
        off-diagonal pair is 1 ulp apart is refused before any step."""
        state = rls_update(init_identifier(ArxConfig()), np.ones(2),
                           np.ones(12))
        assert state.P[3, 7] != 0.0
        state.P[3, 7] = np.nextafter(state.P[3, 7], np.inf)
        before = state.theta.copy(), state.P.copy()
        with pytest.raises(UpdateRejectedError, match="not exactly symmetric"):
            run_block(state, np.zeros((5, 2)), np.zeros((5, 12)))
        assert np.array_equal(state.theta, before[0])
        assert np.array_equal(state.P, before[1])
        assert state.sample_count == 1

    def test_non_finite_covariance_rejected_state_unchanged(self):
        state = rls_update(init_identifier(ArxConfig()), np.ones(2),
                           np.ones(12))
        state.P[5, 5] = np.nan
        before = state.theta.copy(), state.P.copy()
        with pytest.raises(UpdateRejectedError, match="P holds a non-finite"):
            run_block(state, np.zeros((5, 2)), np.zeros((5, 12)))
        assert np.array_equal(state.theta, before[0])
        assert np.array_equal(state.P, before[1], equal_nan=True)

    def test_huge_finite_input_accepted(self):
        """Finite values whose squares overflow pass the finiteness check:
        its sum of squares overflows, and the scan behind it finds every
        value finite."""
        state = init_identifier(ArxConfig())
        Y = np.array([[1e200, -1e200]])
        with np.errstate(over="ignore"):
            thetas, innovation, final = run_block(state, Y,
                                                  np.zeros((1, 12)))[:3]
        assert np.array_equal(innovation, Y)
        assert final.sample_count == 1

    @pytest.mark.parametrize("y, phi", [
        ([np.inf, -np.inf], np.zeros(12)),
        (np.zeros(2), np.r_[np.zeros(10), np.inf, -np.inf]),
        ([np.nan, 0.0], np.zeros(12)),
    ])
    def test_non_finite_input_rejected_without_warning(self, y, phi):
        import warnings

        state = init_identifier(ArxConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UpdateRejectedError, match="at sample 0 of"):
                rls_update(state, y, phi)

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


def resymmetrise_oracle(P, lam):
    """The textbook re-symmetrisation of P / lambda."""
    A = P / lam
    return (A + A.T) / 2.0


def resymmetrise_kernel(P, lam):
    """The ufunc sequence of `rls.run_block`: divide by 2 lambda in place,
    copy the transpose, add."""
    P = P.copy()
    np.divide(P, np.array([2.0 * lam]), P)
    sym = np.ascontiguousarray(P.T)
    np.add(P, sym, P)
    return P


class TestHalvedDivisor:
    """`rls.run_block` computes (P/lambda + (P/lambda)')/2 as P/(2 lambda) +
    (P/(2 lambda))'. 2 lambda is exact and halving a normal number is
    exact, so both give the same bits wherever every entry of P/lambda is
    at least 2**-1021 in magnitude, or zero. The exception is subnormal
    territory: below 2**-1021 the division can round twice in one form and
    once in the other, so the last bit may differ there."""

    @pytest.mark.parametrize("lam", [0.9, 0.95, 0.98, 0.999, 1.0])
    def test_same_bits_from_1e_300_to_1e5(self, lam):
        rng = np.random.Generator(np.random.Philox(int(lam * 1000)))
        n = 12
        for exponent in range(-300, 6):
            # entries within a decade or two of 10**exponent, either sign,
            # so that the transpose sums both add and cancel
            P = rng.standard_normal((n, n)) * 10.0 ** (
                exponent + rng.uniform(0.0, 1.0, (n, n)))
            P[0, 1] = 0.0
            P[1, 0] = -0.0
            A = P / lam
            nonzero = A[A != 0.0]
            assert np.all(np.abs(nonzero) >= 2.0 ** -1021)
            want = resymmetrise_oracle(P, lam)
            got = resymmetrise_kernel(P, lam)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_subnormal_entries_are_the_exception(self):
        """Below 2**-1021 the two forms part, as the docstring says: this
        is why the identity is stated for normal entries only."""
        rng = np.random.Generator(np.random.Philox(3))
        P = rng.integers(1, 2 ** 40, (12, 12)) * 2.0 ** -1074
        want = resymmetrise_oracle(P, 0.95)
        got = resymmetrise_kernel(P, 0.95)
        assert not np.array_equal(got.view(np.uint64), want.view(np.uint64))
