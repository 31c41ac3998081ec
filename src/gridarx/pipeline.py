"""Streaming identification pipeline: measured dq samples in, predictor
trajectory and deviation distance out.

Glue between the simulator (or a replayed stream), the recursive
estimator, and the detector. `identify` makes one kernel call per block
(`_kernels.rls_block`, through `rls.run_block`): it checks the block as
`run_block` checks a block of rows and steps the RLS recursion over it,
making each update's output and lagged regressor from the first
differences of the streams as it goes, without storing them; only the
spectral clamp of the covariance (`rls._clamp`) runs in Python mid-block.
A run split into blocks, with the final state carried from one block to
the next, gives the same trajectory bitwise as one whole run; the
per-sample semantics are those of `rls.rls_update`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .rls import ArxConfig, IdentifierState, init_identifier, run_block
# Not called here: kept as a module attribute so that tools which wrap
# `gridarx.pipeline.rls_update` by name still resolve it.
from .rls import rls_update  # noqa: F401
from .simulate import SimResult


@dataclass
class IdentRun:
    """Identifier trajectory over one run.

    Arrays are aligned on update steps: entry m corresponds to the sample
    index `index[m]` of the source stream; `theta[m]` is the estimate after
    consuming that sample. The outputs `y` and regressors `phi` the updates
    were stepped with are made again from the stream when first read.
    """

    t: np.ndarray  # (m,) update timestamps, a view of the stream's
    index: np.ndarray  # (m,) source sample indices
    theta: np.ndarray  # (m, output_dim, regressor_len)
    innovation: np.ndarray  # (m, output_dim) one-step prediction errors
    calibrated: np.ndarray  # (m,) bool, past burn-in
    final_state: IdentifierState
    stream: SimResult  # the samples identified
    order: int

    @cached_property
    def _rows(self):
        return _kernels.regressor_rows(self.stream.v_dq, self.stream.i_dq,
                                       self.order)

    @property
    def y(self) -> np.ndarray:
        """(m, output_dim) realized outputs (voltage differences)."""
        return self._rows[0]

    @property
    def phi(self) -> np.ndarray:
        """(m, regressor_len) regressors."""
        return self._rows[1]


def identify(sim: SimResult, config: ArxConfig,
             state: IdentifierState | None = None) -> IdentRun:
    """Run the recursive estimator over a simulated (or replayed) stream.

    Update k pairs the output difference dv(order + k), where dv(j) =
    v[j + 1] - v[j], with the regressor [dv(order + k - 1), ...,
    dv(k), di(order + k - 1), ..., di(k)] of the `order` differences
    before it, newest first. One kernel call converts the streams as
    np.ascontiguousarray(x, float) does and steps the block
    (`rls.run_block`), making each row from them as it goes. v_dq and i_dq
    must be two streams of equally many samples, else ValueError;
    dimensions that do not fit the state's config raise
    UpdateRejectedError. The first `order` + 1
    samples give no update; `order` is `config`'s, the rest of the model
    the state's.
    """
    if state is None:
        state = init_identifier(config)
    theta, innovation, final_state, t, index, calibrated = run_block(
        state, sim.v_dq, sim.i_dq, sim.t, config.order)
    return IdentRun(t=t, index=index, theta=theta, innovation=innovation,
                    calibrated=calibrated, final_state=final_state,
                    stream=sim, order=config.order)
