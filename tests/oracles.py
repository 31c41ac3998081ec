"""Independent oracles that the tests check gridarx against.

None of these is on a run's path: each recomputes a result of the package
by another route (a batch least-squares solve for the recursion, a fixed
predictor's residual for the identification, `np.loadtxt` for a written
`theta.csv`, a per-verdict loop for the debounce), so they live with the
tests that use them.
"""

import numpy as np

from gridarx.rls import ConfigError


class SingularDataError(ValueError):
    """Regressor history does not determine a unique least-squares solution."""


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


def residual_ratio(run, theta: np.ndarray, mask=None) -> float:
    """Normalized one-step residual variance of a fixed predictor over
    the IdentRun `run`.

    var(y - theta phi) / var(y) over the selected updates; the fit
    quality measure used to justify the model order.
    """
    y = run.y if mask is None else run.y[mask]
    phi = run.phi if mask is None else run.phi[mask]
    pred = phi @ np.asarray(theta, float).T
    resid = y - pred
    denom = float(np.var(y))
    if denom == 0.0:
        raise ValueError("output stream has zero variance")
    return float(np.var(resid)) / denom


def read_theta_csv(path: str, rows: int = 2):
    """(t, thetas) of a theta.csv, read back with `np.loadtxt`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    t = data[:, 0]
    cols = (data.shape[1] - 1) // rows
    return t, data[:, 1:].reshape(-1, rows, cols)


def debounce_loop(verdicts, hold: int, state):
    """`detector.debounce` as a loop over the verdicts, one at a time: the
    list of reported verdicts, with `state` (a DebounceState) carried."""
    out = []
    current, candidate, streak = state.current, state.candidate, state.streak
    for v in verdicts:
        if current is None:
            current = v
        if v == current:
            candidate, streak = None, 0
        elif v == candidate:
            streak += 1
            if streak >= hold:
                current = v
                candidate, streak = None, 0
        else:
            candidate, streak = v, 1
            if hold == 1:
                current = v
                candidate, streak = None, 0
        out.append(current)
    state.current, state.candidate, state.streak = current, candidate, streak
    return out
