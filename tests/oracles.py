"""Independent oracles that the tests check gridarx against.

None of these is on a run's path: each recomputes a result of the package
by another route (a batch least-squares solve for the recursion, a fixed
predictor's residual for the identification, `np.loadtxt` for a written
`theta.csv`, a per-verdict loop for the debounce, the numpy forms of
the regressors, the distances, the verdicts, the debounce, the
transitions and the first times that the C passes of `_kernels.c`
replace, the fixed-order products of its loops over Python
floats, and the signatures over whole arrays that the library build folds
piece by piece), so they live with the tests that use them. The Park
transforms are here too: the tests' own dq convention, which the package
does not use.
"""

import math

import numpy as np

from gridarx.detector import (
    FAULT_CODE,
    LOAD_CODE,
    NORMAL_CODE,
    UNCLASSIFIED_CODE,
    VERDICTS,
    InsufficientDataError,
    Signature,
    SignatureLibrary,
    Verdict,
)
from gridarx.rls import ConfigError

# Park convention of the tests: amplitude-invariant, d axis aligned with the
# synchronization angle, q axis lagging d by 90 degrees. A balanced cosine
# set of peak A whose phase-a waveform is in phase with the angle maps to
# (d, q) = (A, 0).
_PHASE_SHIFTS = np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])


def park_matrix(angle: float) -> np.ndarray:
    """2x3 amplitude-invariant abc -> dq transform at the given angle."""
    a = angle + _PHASE_SHIFTS
    return (2.0 / 3.0) * np.array([np.cos(a), -np.sin(a)])


def abc_to_dq(x_abc, angle: float) -> np.ndarray:
    x_abc = np.asarray(x_abc, dtype=float)
    if not np.all(np.isfinite(x_abc)):
        raise ValueError("non-finite abc sample")
    return park_matrix(angle) @ x_abc


def dq_to_abc(x_dq, angle: float) -> np.ndarray:
    """Inverse Park (zero-sequence-free)."""
    x_dq = np.asarray(x_dq, dtype=float)
    a = angle + _PHASE_SHIFTS
    return x_dq[0] * np.cos(a) - x_dq[1] * np.sin(a)


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


def debounce_loop(codes, hold: int, state):
    """`detector.debounce` as a loop over the codes, one at a time: the
    list of reported codes, with `state` (the int64 array (current,
    candidate, streak) of `detector.debounce_state`, -1 for none)
    carried."""
    out = []
    current, candidate, streak = state.tolist()
    for v in codes:
        if current < 0:
            current = v
        if v == current:
            candidate, streak = -1, 0
        elif v == candidate:
            streak += 1
            if streak >= hold:
                current = v
                candidate, streak = -1, 0
        else:
            candidate, streak = v, 1
            if hold == 1:
                current = v
                candidate, streak = -1, 0
        out.append(current)
    state[:] = current, candidate, streak
    return out


def debounce_numpy(codes, hold: int, state):
    """`detector.debounce` on whole runs of equal codes, as numpy array
    operations (the package's form before the C loop), with `state` (the
    int64 array (current, candidate, streak) of `detector.debounce_state`,
    -1 for none) carried: a run switches the report to its
    value at its `hold`-th sample, counted from where its streak began (for
    the first run, in the block before when it continues the state's
    candidate; at once for a stream's first code), and each sample
    reports the last run to switch at or before it."""
    n = codes.shape[0]
    if n == 0:
        return codes
    current, candidate, streak = state.tolist()
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    ends = np.append(starts[1:], n)
    began = starts.copy()  # where each run's streak began
    if current < 0:
        began[0] = 1 - hold  # the first code is reported at once
    elif candidate >= 0 and codes[0] == candidate:
        began[0] = -streak
    switch = began + hold - 1
    switches = switch < ends
    # the index of the code each sample reports, -1 for the state's
    source = np.full(n, -1, dtype=np.intp)
    source[switch[switches]] = starts[switches]
    np.maximum.accumulate(source, out=source)
    out = codes[source]
    if source[0] < 0:
        out[source < 0] = current
    current = int(out[-1])
    if codes[-1] == current:
        state[:] = current, -1, 0
    else:
        state[:] = current, int(codes[-1]), int(n - began[-1])
    return out


def transitions_numpy(t, codes, prev: int = -1):
    """(t, verdict value) at each change of the verdict code series, and at
    its first snapshot unless the stream's earlier blocks ended on code
    `prev`."""
    change = np.flatnonzero(np.diff(codes, prepend=prev))
    return [(tk, VERDICTS[c].value)
            for tk, c in zip(t[change].tolist(), codes[change].tolist())]


def first_time(t, mask, t0: float, found=None):
    """The first t where `mask` holds, minus t0; None when it never does,
    or `found` when an earlier block found one."""
    if found is not None:
        return found
    return float(t[mask][0] - t0) if np.any(mask) else None


def detection_times_numpy(t, d, t_start, t_end, thresholds,
                          found=(None, None, None)):
    """The first three times of `_kernels.debounce_block` (a run's
    dt1_high, dt1_low and dt2 over its armed updates) as numpy masks, each
    carried from `found` as `first_time` carries it: the first t >=
    t_start with d > d_high, and with d > d_low, less t_start; the first t
    >= t_end with d <= d_low, less t_end."""
    after_start = t >= t_start
    return (first_time(t, after_start & (d > thresholds.d_high), t_start,
                       found[0]),
            first_time(t, after_start & (d > thresholds.d_low), t_start,
                       found[1]),
            first_time(t, (t >= t_end) & (d <= thresholds.d_low), t_end,
                       found[2]))


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


def distances_numpy(thetas, theta_star) -> np.ndarray:
    """`detector.distances` in numpy: sqrt(add.reduce(dev * dev)) over each
    snapshot's deviation, flattened."""
    thetas = np.asarray(thetas, float)
    theta_star = np.asarray(theta_star, float)
    dev = (thetas - theta_star).reshape(thetas.shape[0], theta_star.size)
    return np.sqrt(np.add.reduce(dev * dev, 1))


def norms_numpy(matrix) -> np.ndarray:
    """The Frobenius norms of the rows of `matrix` in numpy, as
    np.sqrt(add.reduce(m * m, 1)): a pairwise sum along each contiguous
    row. A square that overflows makes an infinite norm, without a
    warning."""
    matrix = np.asarray(matrix, float)
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(matrix * matrix, 1))


def build_library_numpy(runs, nominal, thresholds, order):
    """`detector.build_library` over whole arrays, in numpy: each run is
    (label, t, thetas, t_start, t_end, source), its window is the slice of
    t_start <= t < t_end, and its signature is np.mean over the settled
    half's slice less theta*, scaled to unit norm; a run whose settled half
    is empty, or whose np.max of `distances_numpy` over the window is at
    most d_low, raises InsufficientDataError."""
    signatures = []
    for label, t, thetas, t_start, t_end, source in runs:
        t = np.asarray(t, float)
        thetas = np.asarray(thetas, float)
        lo, mid, hi = np.searchsorted(t, [t_start, (t_start + t_end) / 2.0,
                                          t_end])
        if hi <= mid:
            raise InsufficientDataError(f"run {source!r}: settled half empty")
        d_window = distances_numpy(thetas[lo:hi], nominal.theta_star)
        if float(np.max(d_window)) <= thresholds.d_low:
            raise InsufficientDataError(f"run {source!r}: below d_low")
        delta = np.mean(thetas[mid:hi], axis=0) - nominal.theta_star
        signatures.append(Signature(
            label=Verdict(label), source_scenario=str(source),
            delta_theta=delta / norms_numpy(delta.reshape(1, -1))[0]))
    return SignatureLibrary(order=order, signatures=signatures)


def products_fixed(rows, matrix) -> np.ndarray:
    """rows @ matrix.T, each entry summed left to right from 0.0 as
    `dot_fixed` sums it, one numpy column at a time."""
    out = np.zeros((rows.shape[0], matrix.shape[0]))
    for j in range(rows.shape[1]):
        out += rows[:, j, None] * matrix[:, j]
    return out


def classify_series_numpy(thetas, nominal, thresholds, library,
                          match_floor, products=products_fixed):
    """`detector.classify_series` in numpy: the distances, then the band's
    deviations gathered in one array, their similarities to the library's
    signatures by `products` (rows, matrix) and np.divide, the best by
    argmax."""
    thetas = np.asarray(thetas, float)
    d = distances_numpy(thetas, nominal.theta_star)
    if math.isnan(np.add.reduce(d)):
        k = int(np.argmax(np.isnan(d)))
        raise ValueError(
            f"snapshot {k} holds a NaN: its distance to the nominal "
            "predictor is NaN"
        )
    high = d > thresholds.d_high
    codes = np.where(high, FAULT_CODE, NORMAL_CODE)
    similarity = np.full(d.size, np.nan)
    band_idx = ((d > thresholds.d_low) ^ high).nonzero()[0]
    if band_idx.size:
        signatures = library.signatures
        if not signatures:
            codes[band_idx] = UNCLASSIFIED_CODE
        else:
            flat = thetas[band_idx]
            flat -= nominal.theta_star
            flat = flat.reshape(band_idx.size, -1)
            sig_mat = np.array([s.delta_theta for s in signatures]).reshape(
                len(signatures), -1)
            sig_norm = np.sqrt(np.add.reduce(sig_mat * sig_mat, 1))
            denom = d[band_idx, None] * sig_norm
            sims = np.divide(products(flat, sig_mat), denom,
                             out=np.zeros(denom.shape), where=denom > 0)
            best = sims.argmax(axis=1)
            best_sim = sims[np.arange(band_idx.size), best]
            similarity[band_idx] = best_sim
            sig_codes = np.array([
                FAULT_CODE if s.label is Verdict.FAULT else LOAD_CODE
                for s in signatures
            ])
            codes[band_idx] = np.where(best_sim < match_floor,
                                       UNCLASSIFIED_CODE, sig_codes[best])
    return d, codes, similarity


def identify_numpy(sim, order: int):
    """(y, phi) of `pipeline.identify` in numpy: the first differences of
    the streams and `build_lagged_regressors` over them."""
    dv = np.diff(np.asarray(sim.v_dq, float), axis=0)
    di = np.diff(np.asarray(sim.i_dq, float), axis=0)
    phi, y = build_lagged_regressors(dv, di, order)
    return y, phi


def dot_fixed(x, y) -> float:
    """x . y summed left to right from 0.0 over Python floats: the order
    in which the C step loops sum each product."""
    total = 0.0
    for a, b in zip(np.ravel(x).tolist(), np.ravel(y).tolist()):
        total += a * b
    return total


def matvec_fixed(A, x) -> np.ndarray:
    """A x, each row a `dot_fixed`."""
    return np.array([dot_fixed(row, x) for row in np.asarray(A)])
