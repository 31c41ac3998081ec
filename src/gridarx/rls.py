"""Exponentially-weighted recursive least squares for ARX models.

Maintains a multi-output predictor matrix theta and a shared covariance P,
consuming one (output, regressor) pair per step. Both output rows regress on
the same regressor with the same forgetting factor, so the Kalman gain and
covariance are shared and the theta update is a joint rank-1 correction.

The recursion exists once, in the block kernel `rls_run`: it validates a
block of rows once (shapes, finiteness, an exactly symmetric P), then
updates theta and P in place. P and theta both multiply the regressor, so
the kernel keeps them stacked as one (regressor_len + output_dim) x
regressor_len array: one matrix-vector product and one rank-1 correction
per step serve both, with the bits of the textbook formulas (negation is
exact, and the symmetrisation's addition is commutative). `rls_update` is
its one-row call.

The re-symmetrisation (P/lambda + (P/lambda)')/2 is computed as
P/(2 lambda) + (P/(2 lambda))': 2 lambda is exact, and halving a normal
number is exact, so both give the same bits and the step makes one ufunc
call fewer. The exceptions lie at the ends of the float range: an entry
of P/lambda below 2**-1021 in magnitude, which halving can round as a
subnormal, or a sum that overflows; the entries of P they enter may differ
in the last bit. Zeros of either sign keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gain denominators below this are treated as numerically singular.
MIN_GAIN_DENOMINATOR = 1e-12

# Covariance ceiling check cadence. Between checks P can overshoot the
# ceiling by at most 1/lambda**COV_CLAMP_INTERVAL (about 5% at
# lambda = 0.999), which is harmless.
COV_CLAMP_INTERVAL = 50

# np.dot without numpy's __array_function__ dispatch, for the per-sample
# loops here and in `simulate`: each np.dot call first runs a Python
# dispatcher function, and the C function behind it, kept as
# `_implementation`, gives the same bits without that cost.
raw_dot = getattr(np.dot, "_implementation", np.dot)


class ConfigError(ValueError):
    """Invalid estimator configuration."""


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
    step raises UpdateRejectedError. The input state's P must be finite and
    exactly symmetric (P == P', as every P made here is): the stacked
    update below relies on it, and any other P is rejected the same way.
    The input state is never modified.
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
    lam = cfg.forgetting
    ceiling = cfg.covariance_ceiling
    count0 = state.sample_count
    n, r = cfg.regressor_len, cfg.output_dim
    dot = raw_dot
    # P and theta both multiply phi, so they are the row blocks of one
    # (n + r) x n array `stack` = [P; theta]: one gemv gives
    # [P phi; theta phi], and one rank-1 product of [P phi; -e] with K',
    # then one subtract, updates both blocks. The bits are those of the
    # formulas above:
    # - theta - (-e) K' is theta + e K', since negation is exact;
    # - the P block becomes P - (P phi) K', the transpose of P - K (P phi)'
    #   when P is exactly symmetric, which the update requires of its input
    #   and keeps: the symmetrisation A/(2 lambda) + (A/(2 lambda))' then
    #   gives the same bits for A and A', because addition is commutative;
    # - each row of a gemv has the bits of that row's product in any gemv
    #   of two or more rows, so [P phi; theta phi] is P phi and theta phi
    #   computed apart. numpy computes a 1-row product as a dot product,
    #   which sums in another order, so a lone theta row is multiplied
    #   again on its own (`simulate._forcing` treats its lone rows apart
    #   for the same reason).
    stack = np.empty((n + r, n))
    P, theta = stack[:n], stack[n:]
    P[...] = state.P
    theta[...] = state.theta
    P_flat = P.reshape(-1)

    # A finite sum of squares proves every term finite, since an infinity
    # or a NaN makes it non-finite; only a non-finite sum pays for the scan
    # that finds the culprit. Squares cannot cancel infinities into a NaN,
    # so non-finite data raises no numpy warning here. Finite terms beyond
    # about 1e154 overflow the sum (numpy warns of the overflow) and also
    # reach the scan, which passes them.
    Y_flat, Phi_flat = Y.reshape(-1), Phi.reshape(-1)
    sum_sq = (dot(Y_flat, Y_flat) + dot(Phi_flat, Phi_flat)
              + dot(P_flat, P_flat))
    if not math.isfinite(sum_sq):
        finite = np.isfinite(Y).all(axis=1) & np.isfinite(Phi).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise UpdateRejectedError(
                f"non-finite value in update input at sample {k} of the "
                "block"
            )
        if not np.isfinite(P).all():
            raise UpdateRejectedError("covariance P holds a non-finite value")
    # Equal bytes prove P == P'; unequal bytes can still be equal values
    # (+0.0 against -0.0), which the numeric comparison settles.
    if P.tobytes() != P.T.tobytes() and not np.array_equal(P, P.T):
        raise UpdateRejectedError(
            "covariance P is not exactly symmetric; the update needs P == P'"
        )

    theta_traj = np.empty((m, r, n))
    innovation = np.empty((m, r))
    # Everything else is written into fixed buffers in the operation order
    # of the formulas, so every step is bitwise the same as computing it
    # with fresh arrays. The re-symmetrisation divides by 2 lambda and
    # adds, which gives the bits of (P/lambda + (P/lambda)')/2 (see the
    # module docstring for the subnormal exception). `raw_dot` is np.dot's
    # own C function, the same BLAS gemv/dot as the @ operator without
    # numpy's dispatch layer. 2 lambda and the gain denominator are 0-d
    # arrays, so that the ufuncs do not convert a scalar on every call (a
    # 1-item array would take their slower broadcasting path).
    lone_row = theta[0] if r == 1 else None
    P_T = P.T
    stack_phi = np.empty(n + r)
    P_phi, theta_phi = stack_phi[:n], stack_phi[n:]
    stack_phi_col = stack_phi[:, None]
    K = np.empty(n)
    K_row = K[None, :]
    stack_K = np.empty_like(stack)
    sym = stack_K[:n]
    lam2_0d, denom_0d = np.array(2.0 * lam), np.empty(())
    ceiling_sq = ceiling * ceiling
    subtract, add, divide, negative = (np.subtract, np.add, np.divide,
                                       np.negative)

    count = count0
    for y, phi, e, theta_next in zip(Y, Phi, innovation, theta_traj):
        dot(stack, phi, stack_phi)
        if lone_row is not None:
            theta_phi[0] = dot(lone_row, phi)
        denom = lam + dot(phi, P_phi)
        if denom <= MIN_GAIN_DENOMINATOR:
            raise UpdateRejectedError(
                f"gain denominator {denom:.3e} is not positive "
                f"at sample {count - count0} of the block"
            )
        denom_0d[...] = denom
        divide(P_phi, denom_0d, K)
        subtract(y, theta_phi, e)
        negative(e, theta_phi)  # stack_phi is now [P phi; -e]
        # [P phi; -e] K' is a k=1 matrix product. Each entry is one rounded
        # product, as with np.multiply, but an exact zero comes out +0.0
        # where multiply may give -0.0. That sign only matters where the
        # term meets a -0.0 entry of theta or P, since x + y and x - y are
        # -0.0 only when x is. The zero prior holds none, and the updates
        # make one only from one or by underflow; the tests compare these
        # steps with the multiply form bit for bit.
        dot(stack_phi_col, K_row, stack_K)
        subtract(stack, stack_K, stack)
        theta_next[...] = theta
        divide(P, lam2_0d, P)
        sym[...] = P_T  # a contiguous copy adds faster than the strided view
        add(P, sym, P)
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

    # theta and P are views of this call's own stack, which nothing else
    # holds, so they need no copies
    final = IdentifierState(config=cfg, theta=theta, P=P, sample_count=count)
    return theta_traj, innovation, final


def rls_update(state: IdentifierState, y, phi) -> IdentifierState:
    """One recursive step; returns the updated state, input state untouched.

    A one-row call into `rls_run`.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    phi = np.asarray(phi, dtype=float).reshape(1, -1)
    return rls_run(state, y, phi)[2]

