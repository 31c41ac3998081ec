"""Exponentially-weighted recursive least squares for ARX models.

Maintains a multi-output predictor matrix theta and a shared covariance P,
consuming one (output, regressor) pair per step. Both output rows regress on
the same regressor with the same forgetting factor, so the Kalman gain and
covariance are shared and the theta update is a joint rank-1 correction.

The recursion exists once, in the block kernel `rls_run`: it validates a
block of rows once (shapes, finiteness), then updates theta and P in place.
`rls_update` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gain denominators below this are treated as numerically singular.
MIN_GAIN_DENOMINATOR = 1e-12

# Covariance ceiling check cadence. Between checks P can overshoot the
# ceiling by at most 1/lambda**COV_CLAMP_INTERVAL (about 5% at
# lambda = 0.999), which is harmless.
COV_CLAMP_INTERVAL = 50


class ConfigError(ValueError):
    """Invalid estimator configuration."""


class SingularDataError(ValueError):
    """Regressor history does not determine a unique least-squares solution."""


class UpdateRejectedError(ValueError):
    """A recursive update was rejected; the estimator state is unchanged."""


@dataclass(frozen=True)
class ArxConfig:
    """Structure of the ARX model being estimated.

    order:      number of lags of both input and output in the regressor.
    input_dim:  dimension of the exogenous input u (2 for dq currents).
    output_dim: dimension of the output y (2 for dq voltages).
    forgetting: exponential forgetting factor, in (0, 1].
    p0_scale:   initial covariance magnitude P(0) = p0_scale * I.
    """

    order: int = 3
    input_dim: int = 2
    output_dim: int = 2
    forgetting: float = 0.999
    p0_scale: float = 1e4
    p_max: float | None = None  # covariance ceiling; None = max(1e5, p0_scale)

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("input_dim and output_dim must be >= 1")
        if not 0.0 < self.forgetting <= 1.0:
            raise ConfigError(
                f"forgetting factor must be in (0, 1], got {self.forgetting}"
            )
        if self.p0_scale <= 0.0:
            raise ConfigError(f"p0_scale must be positive, got {self.p0_scale}")
        if self.p_max is not None and self.p_max < self.p0_scale:
            raise ConfigError(
                f"p_max {self.p_max} must be >= p0_scale {self.p0_scale}"
            )

    @property
    def regressor_len(self) -> int:
        return (self.input_dim + self.output_dim) * self.order

    @property
    def burn_in(self) -> int:
        """Samples before the estimate is considered calibrated."""
        return 2 * self.regressor_len

    @property
    def covariance_ceiling(self) -> float:
        return self.p_max if self.p_max is not None else max(1e5, self.p0_scale)


@dataclass
class IdentifierState:
    """Full state of the recursive estimator at one step."""

    config: ArxConfig
    theta: np.ndarray  # (output_dim, regressor_len)
    P: np.ndarray  # (regressor_len, regressor_len), symmetric PD
    sample_count: int = 0

    @property
    def calibrated(self) -> bool:
        return self.sample_count >= self.config.burn_in


def init_identifier(config: ArxConfig) -> IdentifierState:
    """Zero predictor with a diffuse diagonal prior covariance."""
    n = config.regressor_len
    return IdentifierState(
        config=config,
        theta=np.zeros((config.output_dim, n)),
        P=config.p0_scale * np.eye(n),
        sample_count=0,
    )


def rls_run(state: IdentifierState, Y, Phi):
    """Run the recursion over a block of (output, regressor) rows.

    Y is (m, output_dim), Phi is (m, regressor_len); row k is one step:

    K    = P phi / (lambda + phi' P phi)
    e    = y - theta phi
    theta <- theta + e K'
    P    <- (P - K phi' P) / lambda, re-symmetrized

    Returns (theta_traj, innovation, final_state): theta_traj[k] is the
    estimate after row k, innovation[k] the one-step prediction error e of
    row k. The block is validated once, before any step; a rejected block or
    step raises UpdateRejectedError. The input state is never modified.
    """
    cfg = state.config
    Y = np.ascontiguousarray(Y, dtype=float)
    Phi = np.ascontiguousarray(Phi, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != cfg.output_dim:
        raise UpdateRejectedError(
            f"output has dim {Y.shape[-1]}, expected {cfg.output_dim}"
        )
    if Phi.ndim != 2 or Phi.shape[1] != cfg.regressor_len:
        raise UpdateRejectedError(
            f"regressor has length {Phi.shape[-1]}, expected {cfg.regressor_len}"
        )
    m = Y.shape[0]
    if Phi.shape[0] != m:
        raise UpdateRejectedError(
            f"{m} outputs but {Phi.shape[0]} regressors in the block"
        )
    finite = np.isfinite(Y).all(axis=1) & np.isfinite(Phi).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise UpdateRejectedError(
            f"non-finite value in update input at sample {k} of the block"
        )

    lam = cfg.forgetting
    ceiling = cfg.covariance_ceiling
    count0 = state.sample_count
    theta_traj = np.empty((m, cfg.output_dim, cfg.regressor_len))
    innovation = np.empty((m, cfg.output_dim))
    # theta is written straight into its trajectory slot and P is updated in
    # place through fixed buffers. The operation order is that of the
    # formulas above, so every step is bitwise the same as computing it with
    # fresh arrays; np.dot is the same BLAS gemv/dot as the @ operator, with
    # less dispatch. lambda and 2.0 are 0-d arrays, so that the ufuncs do
    # not convert a Python float on every call.
    theta = state.theta.copy()
    P = state.P.copy()
    P_T = P.T
    P_flat = P.reshape(-1)
    P_phi = np.empty(cfg.regressor_len)
    P_phi_row = P_phi[None, :]
    K = np.empty(cfg.regressor_len)
    K_col, K_row = K[:, None], K[None, :]
    KP = np.empty_like(P)
    eK = np.empty_like(theta)
    lam_0d, two_0d = np.array(lam), np.array(2.0)
    ceiling_sq = ceiling * ceiling
    dot, subtract, add, divide = np.dot, np.subtract, np.add, np.divide

    count = count0
    for y, phi, e, e_col, theta_next in zip(
        Y, Phi, innovation, innovation[:, :, None], theta_traj
    ):
        dot(P, phi, P_phi)
        denom = lam + dot(phi, P_phi)
        if denom <= MIN_GAIN_DENOMINATOR:
            raise UpdateRejectedError(
                f"gain denominator {denom:.3e} is not positive "
                f"at sample {count - count0} of the block"
            )
        divide(P_phi, denom, K)
        dot(theta, phi, e)
        subtract(y, e, e)
        # e K' and K (P phi)' are k=1 matrix products. Each entry is one
        # rounded product, as with np.multiply, but an exact zero comes out
        # +0.0 where multiply may give -0.0. That sign only matters where
        # the term meets a -0.0 entry of theta or P, since x + y and x - y
        # are -0.0 only when x is. The zero prior holds none, and the
        # updates make one only from one or by underflow; the tests compare
        # these steps with the multiply form bit for bit.
        dot(e_col, K_row, eK)
        add(theta, eK, theta_next)
        theta = theta_next
        dot(K_col, P_phi_row, KP)
        subtract(P, KP, P)
        divide(P, lam_0d, P)
        KP[...] = P_T  # a contiguous copy adds faster than the strided view
        add(P, KP, KP)
        divide(KP, two_0d, P)
        count += 1

        # Forgetting inflates P exponentially along directions the stream
        # never excites (covariance windup), which eventually destroys the
        # update in floating point. Clamp P's spectrum at the ceiling on a
        # fixed cadence of the absolute sample count, so block boundaries do
        # not move it: uncertainty stays bounded while weakly excited
        # directions keep enough gain to track.
        #
        # For symmetric P, lambda_max <= ||P||_F, so while ||P||_F^2 <=
        # ceiling^2 the clamp cannot fire and eigh is skipped. The rounding
        # of the sum of squares (relative ~n^2 eps) is far inside the
        # clamp's 1e-9 margin, so no skipped check could have clamped. The
        # test is written as `not <=` so that a NaN still reaches eigh.
        if count % COV_CLAMP_INTERVAL == 0 and \
                not dot(P_flat, P_flat) <= ceiling_sq:
            eigvals, eigvecs = np.linalg.eigh(P)
            if eigvals[-1] > ceiling * (1.0 + 1e-9):
                clamped = (eigvecs * np.minimum(eigvals, ceiling)) @ eigvecs.T
                P[...] = (clamped + clamped.T) / 2.0

    final = IdentifierState(config=cfg, theta=theta.copy(), P=P,
                            sample_count=count)
    return theta_traj, innovation, final


def rls_update(state: IdentifierState, y, phi) -> IdentifierState:
    """One recursive step; returns the updated state, input state untouched.

    A one-row call into `rls_run`.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    phi = np.asarray(phi, dtype=float).reshape(1, -1)
    return rls_run(state, y, phi)[2]


def batch_weighted_ls(history, forgetting: float) -> np.ndarray:
    """Exponentially-weighted batch least squares over a finite window.

    `history` is an ordered sequence of (y, phi) pairs, oldest first; the most
    recent pair carries weight 1 and the one i steps back carries lambda**i.
    Returns the minimizing theta with shape (output_dim, regressor_len).

    Serves as the independent check for the recursive path: solved via a
    square-root-weighted stacked system and lstsq, never through the
    recursion.
    """
    if not 0.0 < forgetting <= 1.0:
        raise ConfigError(f"forgetting factor must be in (0, 1], got {forgetting}")
    ys = np.array([np.asarray(y, dtype=float).reshape(-1) for y, _ in history])
    phis = np.array([np.asarray(p, dtype=float).reshape(-1) for _, p in history])
    n, nphi = phis.shape
    if n < nphi:
        raise SingularDataError(
            f"{n} samples cannot determine {nphi} parameters per output"
        )

    ages = np.arange(n - 1, -1, -1, dtype=float)
    sqrt_w = forgetting ** (ages / 2.0)
    A = phis * sqrt_w[:, None]
    b = ys * sqrt_w[:, None]

    theta_t, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < nphi:
        raise SingularDataError(
            f"weighted regressor matrix has rank {rank} < {nphi}; "
            "history is not persistently exciting"
        )
    return theta_t.T
