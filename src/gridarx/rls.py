"""Exponentially-weighted recursive least squares for ARX models.

Maintains a multi-output predictor matrix theta and a shared covariance P,
consuming one (output, regressor) pair per step. Both output rows regress on
the same regressor with the same forgetting factor, so the Kalman gain and
covariance are shared and the theta update is a joint rank-1 correction.

The recursion exists once, in the block kernel `run_block`, which
`pipeline.identify` calls for a stream's updates: one C call
(`_kernels.rls_block`) validates a block of rows once (its shapes,
finiteness and an exactly symmetric P), allocates its outputs and steps
the rows; for the rare spectral clamp of P it calls `_clamp`, which
`ArxConfig.kernel_params` hands it, and then goes on with the block.
The kernel keeps P and theta stacked as one
(regressor_len + output_dim) x regressor_len array, so that one rank-1
correction per step updates both, with the bits of the textbook formulas
(negation is exact, and the symmetrisation's addition is commutative).
The C steps sum each product left to right, so their bits depend on the
source and the compiler flags, not on the CPU; only the clamp's `eigh`
goes through numpy's LAPACK. `rls_update` is its one-row call.

The re-symmetrisation (P/lambda + (P/lambda)')/2 is computed as
P/(2 lambda) + (P/(2 lambda))': 2 lambda is exact, and halving a normal
number is exact, so both give the same bits. The exceptions lie at the
ends of the float range: an entry of P/lambda below 2**-1021 in magnitude,
which halving can round as a subnormal, or a sum that overflows; the
entries of P they enter may differ in the last bit. Zeros of either sign
keep their bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import _kernels

# Gain denominators below this are treated as numerically singular.
MIN_GAIN_DENOMINATOR = 1e-12

# Covariance ceiling check cadence. Between checks P can overshoot the
# ceiling by at most 1/lambda**COV_CLAMP_INTERVAL (about 5% at
# lambda = 0.999), which is harmless.
COV_CLAMP_INTERVAL = 50

class ConfigError(ValueError):
    """Invalid estimator configuration."""


# A recursive update was rejected; the estimator state is unchanged. A
# ValueError, raised by the kernel.
UpdateRejectedError = _kernels.UpdateRejectedError


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
        for name in ("forgetting", "p0_scale", "p_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("input_dim and output_dim must be >= 1")
        # P holds regressor_len**2 float64 values, which no array of more
        # than sys.maxsize bytes can address
        if self.regressor_len ** 2 * 8 > sys.maxsize:
            raise ConfigError(
                f"order {self.order} needs a covariance P of "
                f"{self.regressor_len}**2 float64 values, more than "
                f"{sys.maxsize} bytes can address")
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

    @cached_property
    def kernel_params(self) -> tuple:
        """The model as `_kernels.rls_block` takes it: (output_dim,
        regressor_len, burn_in, forgetting, MIN_GAIN_DENOMINATOR,
        COV_CLAMP_INTERVAL, covariance_ceiling ** 2, the clamp of P at
        covariance_ceiling), worked out once."""
        ceiling = self.covariance_ceiling
        return (self.output_dim, self.regressor_len, self.burn_in,
                self.forgetting, MIN_GAIN_DENOMINATOR, COV_CLAMP_INTERVAL,
                ceiling * ceiling, partial(_clamp, ceiling))


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


def _clamp(ceiling: float, P: np.ndarray) -> None:
    """Clamp the spectrum of the symmetric P at `ceiling`, in place.

    Forgetting inflates P exponentially along directions the stream never
    excites (covariance windup), which eventually destroys the update in
    floating point. The kernel calls this on a fixed cadence of the
    absolute sample count, so block boundaries do not move it: uncertainty
    stays bounded while weakly excited directions keep enough gain to
    track.

    For symmetric P, lambda_max <= ||P||_F, so while ||P||_F^2 <=
    ceiling^2 the clamp cannot fire and the kernel skips this call. The
    rounding of the sum of squares (relative ~n^2 eps) is far inside the
    clamp's 1e-9 margin, so no skipped check could have clamped. A NaN in
    P fails that test and reaches eigh.
    """
    eigvals, eigvecs = np.linalg.eigh(P)
    if eigvals[-1] > ceiling * (1.0 + 1e-9):
        clamped = (eigvecs * np.minimum(eigvals, ceiling)) @ eigvecs.T
        P[...] = (clamped + clamped.T) / 2.0


def run_block(state: IdentifierState, a, b, t=None, order: int = 0):
    """Run the recursion over a block in one kernel call
    (`_kernels.rls_block`). The block is rows (a, b) = (Y, Phi), converted
    as np.ascontiguousarray(x, float) does, or the updates of
    `pipeline.identify`'s streams a, b = v, i of time stamps t from sample
    order + 1 on, each row made from the streams as it is stepped. Y is
    (m, output_dim), Phi is (m, regressor_len); row k is one step:

    K    = P phi / (lambda + phi' P phi)
    e    = y - theta phi
    theta <- theta + e K'
    P    <- (P - K phi' P) / lambda, re-symmetrized

    Returns (theta_traj, innovation, final_state, t, index, calibrated):
    theta_traj[k] is the estimate after row k and innovation[k] the
    one-step prediction error e of row k; for streams, t, index and
    calibrated are the updates' time stamps, sample indices and burn-in
    flags (None for rows). Every array is new, but t, a slice of the
    stream's. The block is validated once, before any step; a rejected
    block or step raises UpdateRejectedError. The input state's P must be
    finite and exactly symmetric (P == P', as every P made here is): the
    stacked update below relies on it, and any other P is rejected the
    same way. An exception raised by the clamp propagates. The input state
    is never modified.
    """
    cfg = state.config
    # P and theta are the row blocks of one (n + r) x n array `stack` =
    # [P; theta]: one product [P phi; theta phi], each row summed left to
    # right, and one rank-1 product of [P phi; -e] with K', then one
    # subtract, update both blocks. The bits are those of the formulas
    # above with the same sums:
    # - theta - (-e) K' is theta + e K', since negation is exact;
    # - the P block becomes P - (P phi) K', the transpose of P - K (P phi)'
    #   when P is exactly symmetric, which the update requires of its input
    #   and keeps: the symmetrisation A/(2 lambda) + (A/(2 lambda))' then
    #   gives the same bits for A and A', because addition is commutative.
    #
    # The kernel first checks the block: its dimensions, every value of Y,
    # Phi and P finite, and P exactly symmetric (P == P' as numbers, so
    # that +0.0 and -0.0 agree). It then steps the rows, calling `_clamp`
    # on its P where a step needs the spectral check.
    (P, theta, theta_traj, innovation, t, index,
     calibrated) = _kernels.rls_block(cfg.kernel_params, state.sample_count,
                                      state.P, state.theta, a, b, t, order)
    # theta and P are views of this call's own stack, which nothing else
    # holds, so they need no copies
    final = IdentifierState(
        config=cfg, theta=theta, P=P,
        sample_count=state.sample_count + theta_traj.shape[0])
    return theta_traj, innovation, final, t, index, calibrated


def rls_update(state: IdentifierState, y, phi) -> IdentifierState:
    """One recursive step; returns the updated state, input state untouched.

    A one-row call into `run_block`.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    phi = np.asarray(phi, dtype=float).reshape(1, -1)
    return run_block(state, y, phi)[2]

