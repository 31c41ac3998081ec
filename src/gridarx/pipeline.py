"""Streaming identification pipeline: measured dq samples in, predictor
trajectory and deviation distance out.

Glue between the simulator (or recorded CSV data), the recursive estimator,
and the detector. `identify` builds the lagged regressors of a block and
hands the whole block to the one RLS kernel, `rls.rls_run`, which validates
it once and then steps through it. A run split into blocks, with the final
state carried from one block to the next, gives the same trajectory bitwise
as one whole run; the per-sample semantics are those of `rls.rls_update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rls import ArxConfig, IdentifierState, init_identifier, rls_run
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


def build_lagged_regressors(dv: np.ndarray, di: np.ndarray, order: int):
    """Regressor matrix from difference streams.

    dv, di: (n_d, 2) arrays of consecutive differences. Row m holds
    [dv(k-1)..dv(k-order), di(k-1)..di(k-order)] for k = order + m, i.e. the
    regressor paired with output dv(k). Returns (phi matrix, y matrix).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n_d = dv.shape[0]
    if n_d <= order:
        return np.zeros((0, 4 * order)), np.zeros((0, 2))
    m = n_d - order
    cols = []
    for lag in range(1, order + 1):
        cols.append(dv[order - lag : order - lag + m])
    for lag in range(1, order + 1):
        cols.append(di[order - lag : order - lag + m])
    phi = np.concatenate(cols, axis=1)
    y = dv[order:]
    return phi, y


def identify(sim: SimResult, config: ArxConfig,
             state: IdentifierState | None = None) -> IdentRun:
    """Run the recursive estimator over a simulated (or replayed) stream."""
    v = np.asarray(sim.v_dq, float)
    i = np.asarray(sim.i_dq, float)
    # np.diff(x, axis=0), without its Python-level axis handling
    dv = v[1:] - v[:-1]
    di = i[1:] - i[:-1]
    order = config.order
    phi_all, y_all = build_lagged_regressors(dv, di, order)
    m = phi_all.shape[0]
    # difference k sits at dv[k-1]; the first regressor-complete output is
    # difference index order+1, i.e. sample index order+1 of the raw stream
    first = order + 1
    index = np.arange(first, first + m)
    t = sim.t[first:first + m]

    if state is None:
        state = init_identifier(config)
    theta_traj, innovation, final_state = rls_run(state, y_all, phi_all)
    # update k, at sample index[k] = first + k, brings the sample count to
    # state.sample_count + k + 1, which is calibrated from burn_in on
    calibrated = index >= first + state.config.burn_in - state.sample_count - 1

    return IdentRun(
        t=t,
        index=index,
        theta=theta_traj,
        y=y_all,
        phi=phi_all,
        innovation=innovation,
        calibrated=calibrated,
        final_state=final_state,
    )
