"""Fixed-step time-domain simulation of the dq small-signal test circuit.

The converter is an ideal controlled current source injecting a constant
operating-point current plus random binary excitation at the PCC. The
circuit is integrated with the trapezoidal rule at a fixed step; at the
disturbance start/end instants the topology is switched with energy-carrying
states carried over by name.

A run is walked as its topology segments: the samples before, during and
after the disturbance window, each with its model and the arrays it is
stepped with, made once per run; a segment with no sample is never entered.
`simulate_blocks` streams a run in blocks of samples and holds one block at
a time: each block's overlap with each segment is stepped in one
`_kernels.sim_rows` call, after the state is carried across the switch
where the model changes. `simulate` joins its blocks into the whole run.
Both give the same bits for any block size.

Every product is computed in a fixed order over numpy's elementwise
operations (`_matvec`, `_solve`) or in the C step loop, never through the
BLAS or LAPACK that numpy was built with, so the samples have the same
bits on every CPU.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, StateSpaceModel, full_circuit_model
from . import _kernels
from .signals import RbsConfig, RbsStream
# Not called here: kept as a module attribute so that tools which wrap
# `gridarx.simulate.rbs_generate` by name still resolve it.
from .signals import rbs_generate  # noqa: F401


class IntegrationError(RuntimeError):
    """The fixed-step discretization produced a non-finite trajectory."""


@dataclass(frozen=True)
class DisturbanceSpec:
    """A shunt branch connected at the midpoint during [t_start, t_end).

    kind: "fault" (resistive) or "load" (inductive), with its value in p.u.;
    `CircuitParams.ohms_to_pu` and `henries_to_pu` convert physical units.
    """

    kind: str  # "fault" | "load"
    value_pu: float
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.kind not in ("fault", "load"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for name in ("value_pu", "t_start", "t_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.value_pu <= 0:
            raise ValueError("disturbance impedance parameter must be > 0")
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if not self.t_start < self.t_end:
            raise ValueError(
                f"t_start {self.t_start} must precede t_end {self.t_end}"
            )


@dataclass
class SimResult:
    """Measured PCC streams on a uniform time grid."""

    t: np.ndarray  # (n,)
    v_dq: np.ndarray  # (n, 2) measured PCC voltage, p.u.
    i_dq: np.ndarray  # (n, 2) measured injected current, p.u.
    ts: float


def _matvec(A, x) -> np.ndarray:
    """A x for a vector x, or for each row of a matrix x: each sum taken
    left to right over the columns of A."""
    out = x[..., 0, None] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + x[..., j, None] * A[:, j]
    return out


def _solve(A, B) -> np.ndarray:
    """X with A X = B (n x k), by Gauss-Jordan elimination with partial
    pivoting over the rows of [A | B]: the first row of largest magnitude
    in the pivot column. A zero pivot raises np.linalg.LinAlgError; a
    non-finite entry gives non-finite entries of X without a warning, as
    LAPACK's solve does, which the simulator reports as IntegrationError."""
    n = A.shape[0]
    M = np.concatenate((A, B), axis=1, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n):
            p = k + int(np.argmax(np.abs(M[k:, k])))
            if M[p, k] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            M[[k, p]] = M[[p, k]]
            M[k] = M[k] / M[k, k]
            rest = np.arange(n) != k
            M[rest] = M[rest] - M[rest, k, None] * M[k]
    return M[:, n:].copy()


def equilibrium(model: StateSpaceModel, u0, vg) -> np.ndarray:
    """Steady state of x' = A x + B u0 + E vg (DC in the dq frame)."""
    rhs = (_matvec(model.B, np.asarray(u0, float))
           + _matvec(model.E, np.asarray(vg, float)))
    return _solve(model.A, -rhs[:, None]).ravel()


def _discretize(model: StateSpaceModel, ts: float):
    """Trapezoidal step with zero-order-hold input:
    x+ = F x + Gb u + Ge vg, from one solve of
    M1 [F | Gb | Ge] = [M2 | ts B | ts E]."""
    n, nb = model.A.shape[0], model.B.shape[1]
    M1 = np.eye(n) - 0.5 * ts * model.A
    M2 = np.eye(n) + 0.5 * ts * model.A
    X = _solve(M1, np.concatenate((M2, ts * model.B, ts * model.E), axis=1))
    return X[:, :n], X[:, n:n + nb], X[:, n + nb:]


def _map_state(x, from_model: StateSpaceModel, to_model: StateSpaceModel,
               params: CircuitParams) -> np.ndarray:
    """Carry physical states across a topology switch by name.

    Closing the midpoint branch splits the series line current into equal
    line 1 / line 2 currents (continuous, since the branch starts at zero
    current). Opening it merges the two line currents flux-weighted, which
    conserves the total line flux.
    """
    src = dict(zip(from_model.state_names, x))
    out = np.zeros(len(to_model.state_names))
    for idx, name in enumerate(to_model.state_names):
        if name in src:
            out[idx] = src[name]
        elif name.startswith("i23_"):
            axis = name[-1]
            flux = params.l2 * src["i2_" + axis] + params.l3 * src["i3_" + axis]
            out[idx] = flux / (params.l2 + params.l3)
        elif name.startswith(("i2_", "i3_")):
            axis = name[-1]
            out[idx] = src["i23_" + axis]
        else:
            raise KeyError(f"cannot map state {name!r} across switch")
    return out


def sample_count(duration: float, ts: float) -> int:
    """Samples of a run of `duration` at step `ts`, both ends included."""
    return int(round(duration / ts)) + 1


def disturbance_inside(disturbance: DisturbanceSpec | None,
                       duration: float) -> bool:
    """Whether a disturbance starts inside a run of `duration` seconds: it
    exists and its t_start comes before the run's end."""
    return disturbance is not None and disturbance.t_start < duration


def disturbance_start(disturbance: DisturbanceSpec | None, duration: float,
                      ts: float) -> int | None:
    """Sample index k_on at which the disturbance connects; None when it
    does not start inside the run."""
    if not disturbance_inside(disturbance, duration):
        return None
    return int(round(disturbance.t_start / ts))


# The grid voltage vg behind the line, dq in p.u.: the stiff grid every
# run is connected to.
GRID_VOLTAGE = np.array([1.0, 0.0])

# Samples per block yielded by `simulate_blocks` unless told otherwise, and
# the block in which every scenario run is simulated, identified and
# classified: it bounds what a run holds at once. A smaller block holds
# less and pays a fixed cost per block, about 170 us beyond its arithmetic
# (the CPU time of a manifest suite pass at 512- against 8192-sample
# blocks, 2-core x86-64 VM): the suite's 370 blocks at this size cost
# about 45 ms more than its 95 of 8192 samples, which held its peak RSS
# about 5.9 MB higher.
SIMULATE_BLOCK = 2048


@functools.lru_cache(maxsize=16)
def _noise_start(seed: int, count: int) -> dict:
    """The state of Philox(seed) after `count` standard normals, where the
    current noise of a run of count / 2 samples starts: it depends on
    nothing else, so runs of one noise seed and length discard the voltage
    normals once. The normals are drawn in blocks, and a draw in blocks
    leaves the state of one draw. Setting a bit generator's `state` copies
    the values in, so no run can change the dict kept here."""
    gen = np.random.Generator(np.random.Philox(seed))
    for lo in range(0, count, 2 * SIMULATE_BLOCK):
        gen.standard_normal(min(2 * SIMULATE_BLOCK, count - lo))
    return gen.bit_generator.state


def simulate_blocks(
    params: CircuitParams,
    disturbance: DisturbanceSpec | None,
    excitation: RbsConfig | None,
    duration: float,
    ts: float = 2e-4,
    noise_std: float = 1e-4,
    noise_seed: int = 1,
    i_op=(1.0, 0.0),
    block: int = SIMULATE_BLOCK,
):
    """The run of `simulate`, as an iterator of SimResults over consecutive
    blocks of `block` samples (the last one may be shorter).

    The run's segments are built first, as (k0, k1, model, stepper) for
    the samples k0 <= k < k1: before the disturbance, during it (k_off
    clipped to the run's end) and after it. Each block is then stepped
    over its overlap with each segment in order, the state mapped by name
    (`_map_state`) where the model changes. An empty segment overlaps no
    block, so a disturbance from t = 0 starts in its own segment and a
    window under half a step leaves the nominal run.

    Only one block is held at a time. The generator carries the circuit
    state, the model it is a state of, the excitation stream and two
    noise generators: one draws the voltage noise and the other, started
    from the same seed past the n x 2 voltage normals, the current noise,
    which is the order one call over the whole run draws them in; that
    start is worked out once per noise seed and run length
    (`_noise_start`). Every value is bitwise that of `simulate`.

    Arguments are checked at the call: a duration or ts that is not
    finite and positive, a noise_std that is not finite and >= 0, a
    block that is not an integer >= 1 or a noise_seed that is not an
    integer >= 0 (numpy integers are integers) raises ValueError naming
    it. A non-finite voltage raises IntegrationError from the block it
    appears in.
    """
    for name, value in (("duration", duration), ("ts", ts)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got "
                         f"{noise_std!r}")
    for name, value, least in (("block", block, 1),
                               ("noise_seed", noise_seed, 0)):
        if not (hasattr(value, "__index__")
                and operator.index(value) >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got "
                             f"{value!r}")
    n = sample_count(duration, ts)
    nominal = full_circuit_model(params, None)
    plain = (nominal, _stepper(nominal, ts))
    segments = [(0, n, *plain)]  # (k0, k1, model, stepper), k0 <= k < k1
    k_on = disturbance_start(disturbance, duration, ts)
    if k_on is not None:
        k_off = min(n, int(round(disturbance.t_end / ts)))
        shunt = full_circuit_model(params, (disturbance.kind,
                                            disturbance.value_pu))
        segments = [(0, k_on, *plain),
                    (k_on, k_off, shunt, _stepper(shunt, ts)),
                    (k_off, n, *plain)]
    return _simulate_blocks(params, nominal, segments, excitation, n, ts,
                            noise_std, noise_seed, np.asarray(i_op, float),
                            block)


def _stepper(model: StateSpaceModel, ts: float):
    """The arrays that `_kernels.sim_rows` steps `model` with: FC = [F;
    Cv], the state transition over the voltage output, which both multiply
    the state, so one product per sample gives F x and v = Cv x; Gb; and
    the grid's forcing Ge vg."""
    F, Gb, Ge = _discretize(model, ts)
    return (np.concatenate((F, model.C)), np.ascontiguousarray(Gb),
            _matvec(Ge, GRID_VOLTAGE))


def _simulate_blocks(params, nominal, segments, excitation, n, ts, noise_std,
                     noise_seed, i_op, block):
    excite = None if excitation is None else RbsStream(excitation, 1.0 / ts)
    if noise_std > 0:
        noise_v = np.random.Generator(np.random.Philox(noise_seed))
        start = np.random.Philox(noise_seed)
        start.state = _noise_start(noise_seed, 2 * n)
        noise_i = np.random.Generator(start)
    x = equilibrium(nominal, i_op, GRID_VOLTAGE)
    model = nominal  # the topology x is a state of
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        i_inj = i_op + (np.zeros((hi - lo, 2)) if excite is None
                        else excite.take(hi - lo))
        v = np.empty((hi - lo, 2))
        for k0, k1, to, stepper in segments:
            a, b = max(lo, k0) - lo, min(hi, k1) - lo  # block rows in it
            if a < b:  # never for an empty segment
                if to is not model:
                    x = _map_state(x, model, to, params)
                    model = to
                # row k: v[k] = Cv x, then x <- F x + (Gb u[k] + Ge vg)
                _kernels.sim_rows(*stepper, x, i_inj[a:b], v[a:b])
        if not np.all(np.isfinite(v)):
            raise IntegrationError(
                "non-finite voltage trajectory; check step size and "
                "parameters"
            )
        if noise_std > 0:
            v_meas = v + noise_std * noise_v.standard_normal((hi - lo, 2))
            i_meas = i_inj + noise_std * noise_i.standard_normal((hi - lo, 2))
        else:
            v_meas, i_meas = v, i_inj
        yield SimResult(t=np.arange(lo, hi) * ts, v_dq=v_meas, i_dq=i_meas,
                        ts=ts)
        del v, i_inj, v_meas, i_meas  # before the next block is made


def simulate(
    params: CircuitParams,
    disturbance: DisturbanceSpec | None,
    excitation: RbsConfig | None,
    duration: float,
    ts: float = 2e-4,
    noise_std: float = 1e-4,
    noise_seed: int = 1,
    i_op=(1.0, 0.0),
) -> SimResult:
    """Run the circuit from its pre-disturbance equilibrium.

    Measurement sample k holds the state-borne PCC voltage at t_k and the
    current command applied over [t_k, t_k + ts); the voltage therefore
    depends only on commands strictly before k. Additive Gaussian noise of
    std `noise_std` is applied to both measured channels. Deterministic
    given the excitation and noise seeds.

    This is the join of the blocks of `simulate_blocks`, which holds one
    block at a time; the whole run costs 40 bytes per sample here.
    """
    blocks = simulate_blocks(params, disturbance, excitation, duration, ts,
                             noise_std, noise_seed, i_op)
    n = sample_count(duration, ts)
    t, v_dq, i_dq = np.empty(n), np.empty((n, 2)), np.empty((n, 2))
    hi = 0
    for part in blocks:
        lo, hi = hi, hi + part.t.size
        t[lo:hi], v_dq[lo:hi], i_dq[lo:hi] = part.t, part.v_dq, part.i_dq
    return SimResult(t=t, v_dq=v_dq, i_dq=i_dq, ts=ts)
