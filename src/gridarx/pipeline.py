"""Streaming identification pipeline: measured dq samples in, predictor
trajectory and deviation distance out.

Glue between the simulator (or recorded CSV data), the recursive estimator,
and the detector. `identify` makes one kernel call per block
(`_kernels.identify_rows`, through `rls.run_block`): it fills the block's
outputs and lagged regressors from the first differences of the streams,
checks the block as `rls.rls_run` does and steps the RLS recursion over
it; only a spectral check of the covariance returns to Python mid-block.
A run split into blocks, with the final state carried from one block to
the next, gives the same trajectory bitwise as one whole run; the
per-sample semantics are those of `rls.rls_update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    consuming that sample.
    """

    t: np.ndarray  # (m,) update timestamps, a view of the stream's
    index: np.ndarray  # (m,) source sample indices
    theta: np.ndarray  # (m, output_dim, regressor_len)
    y: np.ndarray  # (m, output_dim) realized outputs (voltage differences)
    phi: np.ndarray  # (m, regressor_len) regressors
    innovation: np.ndarray  # (m, output_dim) one-step prediction errors
    calibrated: np.ndarray  # (m,) bool, past burn-in
    final_state: IdentifierState


def identify(sim: SimResult, config: ArxConfig,
             state: IdentifierState | None = None) -> IdentRun:
    """Run the recursive estimator over a simulated (or replayed) stream.

    Update k pairs the output difference dv(order + k), where dv(j) =
    v[j + 1] - v[j], with the regressor [dv(order + k - 1), ...,
    dv(k), di(order + k - 1), ..., di(k)] of the `order` differences
    before it, newest first. One kernel call fills `y` and `phi` with
    them and steps the block (`rls.run_block`).
    """
    v = np.ascontiguousarray(sim.v_dq, float)
    i = np.ascontiguousarray(sim.i_dq, float)
    if v.ndim != 2 or i.ndim != 2 or i.shape[0] != v.shape[0]:
        raise ValueError(f"v_dq {v.shape} and i_dq {i.shape} are not two "
                         "streams of equally many samples")
    order = config.order
    # difference k sits at dv[k-1]; the first regressor-complete output is
    # difference index order+1, i.e. sample index order+1 of the raw stream
    first = order + 1
    m = max(0, v.shape[0] - first)
    y = np.empty((m, v.shape[1]))
    phi = np.empty((m, order * (v.shape[1] + i.shape[1])))
    index = np.arange(first, first + m)
    t = sim.t[first:first + m]

    if state is None:
        state = init_identifier(config)
    theta_traj, innovation, final_state = run_block(state, y, phi, (v, i))
    # update k, at sample index[k] = first + k, brings the sample count to
    # state.sample_count + k + 1, which is calibrated from burn_in on
    calibrated = index >= first + state.config.burn_in - state.sample_count - 1

    return IdentRun(
        t=t,
        index=index,
        theta=theta_traj,
        y=y,
        phi=phi,
        innovation=innovation,
        calibrated=calibrated,
        final_state=final_state,
    )
