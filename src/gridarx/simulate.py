"""Fixed-step time-domain simulation of the dq small-signal test circuit.

The converter is an ideal controlled current source injecting a constant
operating-point current plus random binary excitation at the PCC. The
circuit is integrated with the trapezoidal rule at a fixed step; at the
disturbance start/end instants the topology is switched with energy-carrying
states carried over by name.

`simulate_blocks` streams a run in blocks of samples and holds one block at
a time; `simulate` joins its blocks into the whole run. Both give the same
bits for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, StateSpaceModel, full_circuit_model
from .rls import raw_dot
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
        if self.value_pu <= 0:
            raise ValueError("disturbance impedance parameter must be > 0")
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if not self.t_start < self.t_end:
            raise ValueError(
                f"t_start {self.t_start} must precede t_end {self.t_end}"
            )


@dataclass(frozen=True)
class SimPrefix:
    """The noise-free start of a run, up to its disturbance start k_on: the
    PCC voltage of samples [0, k_on) and the nominal-circuit state entering
    sample k_on.

    It depends on every `simulate` argument except the disturbance's kind,
    value and end, so a run that differs from another only in those can
    resume from the other's prefix.
    """

    v: np.ndarray  # (k_on, 2) PCC voltage before measurement noise
    x: np.ndarray  # (nx,) state entering sample k_on


@dataclass
class SimResult:
    """Measured PCC streams on a uniform time grid.

    `prefix` is the run's SimPrefix when a disturbance starts inside it;
    None otherwise and for streams not simulated here.
    """

    t: np.ndarray  # (n,)
    v_dq: np.ndarray  # (n, 2) measured PCC voltage, p.u.
    i_dq: np.ndarray  # (n, 2) measured injected current, p.u.
    ts: float
    prefix: SimPrefix | None = None


def equilibrium(model: StateSpaceModel, u0, vg) -> np.ndarray:
    """Steady state of x' = A x + B u0 + E vg (DC in the dq frame)."""
    rhs = model.B @ np.asarray(u0, float) + model.E @ np.asarray(vg, float)
    return np.linalg.solve(model.A, -rhs)


def _discretize(model: StateSpaceModel, ts: float):
    """Trapezoidal step with zero-order-hold input:
    x+ = F x + Gb u + Ge vg."""
    n = model.A.shape[0]
    M1 = np.eye(n) - 0.5 * ts * model.A
    M2 = np.eye(n) + 0.5 * ts * model.A
    M1_inv = np.linalg.inv(M1)
    F = M1_inv @ M2
    Gb = ts * (M1_inv @ model.B)
    Ge = ts * (M1_inv @ model.E)
    return F, Gb, Ge


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


def disturbance_start(disturbance: DisturbanceSpec | None, duration: float,
                      ts: float) -> int | None:
    """Sample index k_on at which the disturbance connects; None when it
    does not start inside the run."""
    if disturbance is None or disturbance.t_start >= duration:
        return None
    return int(round(disturbance.t_start / ts))


def _forcing(i_inj, Gb, vg_forcing, segment_rows: int):
    """Per-step forcing `i_inj @ Gb.T + vg_forcing` of consecutive rows of
    one topology segment of `segment_rows` samples.

    A 1-row matrix product takes another BLAS path than a longer one and
    can differ from the same row of the whole-segment product in its last
    bits, so a single row of a longer segment is computed inside a product
    of two copies of it. Rows of two or more give the bits of the
    whole-segment product.
    """
    if i_inj.shape[0] == 1 and segment_rows > 1:
        return (np.repeat(i_inj, 2, axis=0) @ Gb.T)[:1] + vg_forcing
    return i_inj @ Gb.T + vg_forcing


def _step(v, x, FC, drive):
    """Step from state x over the rows of `drive`, writing each sample's
    PCC voltage into the rows of v; returns the state after the last.

    FC is [F; Cv], the state transition over the voltage output: both
    multiply the state, so one gemv per sample gives F x and v = Cv x."""
    # FCx[k] = [F x; Cv x]; x <- F x + drive[k], written into preallocated
    # rows: the next state overwrites the forcing row it consumes, and v is
    # the last two columns of FCx, copied out once at the end. Each row of
    # a gemv has the bits of that row's product in any gemv of two or more
    # rows, and F and Cv have at least two each, so the stacked product has
    # the bits of F x and Cv x computed apart (a test pins this BLAS
    # property at the shipped shapes). `raw_dot` is np.dot's own C
    # function, the same BLAS gemv as the @ operator without numpy's
    # dispatch layer, so the values are bitwise those of the plain
    # expressions.
    nx = x.shape[0]
    dot, add = raw_dot, np.add
    FCx = np.empty((drive.shape[0], nx + 2))
    for FCx_k, Fx, x_next in zip(FCx, FCx[:, :nx], drive):
        dot(FC, x, FCx_k)
        add(Fx, x_next, x_next)
        x = x_next
    v[...] = FCx[:, nx:]
    return x


# Samples per block yielded by `simulate_blocks` unless told otherwise, and
# the block in which every scenario run is simulated, identified and
# classified: it bounds what a run holds at once.
SIMULATE_BLOCK = 8192


def simulate_blocks(
    params: CircuitParams,
    disturbance: DisturbanceSpec | None,
    excitation: RbsConfig | None,
    duration: float,
    ts: float = 2e-4,
    noise_std: float = 1e-4,
    noise_seed: int = 1,
    i_op=(1.0, 0.0),
    vg=(1.0, 0.0),
    prefix: SimPrefix | None = None,
    block: int = SIMULATE_BLOCK,
):
    """The run of `simulate`, as an iterator of SimResults over consecutive
    blocks of `block` samples (the last one may be shorter).

    Only one block is held at a time. The generator carries the circuit
    state, the topology segment it is in, the excitation stream and two
    noise generators: one draws the voltage noise and the other, started
    from the same seed past the n x 2 voltage normals, the current noise,
    which is the order one call over the whole run draws them in. Every
    value is bitwise that of `simulate`. The block holding the sample at
    which the disturbance starts carries the run's SimPrefix; the others
    carry None.

    `prefix`, the SimPrefix of a run with the same arguments apart from
    the disturbance's kind, value and end, skips the steps before the
    disturbance: the run resumes from its state. The excitation and the
    noise are still drawn for the whole run, so the blocks are bitwise
    those of a run without it.

    Arguments are checked at the call; a non-finite voltage raises
    IntegrationError from the block it appears in.
    """
    if duration <= 0 or ts <= 0:
        raise ValueError("duration and ts must be positive")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    n = sample_count(duration, ts)
    nominal = full_circuit_model(params, None)
    k_on = disturbance_start(disturbance, duration, ts)
    segments = []  # (start index, end index exclusive, model)
    if k_on is None:
        segments.append((0, n, nominal))
    else:
        k_off = min(n, int(round(disturbance.t_end / ts)))
        segments += [(0, k_on, nominal),
                     (k_on, k_off, full_circuit_model(
                         params, (disturbance.kind, disturbance.value_pu))),
                     (k_off, n, nominal)]
    if prefix is not None and prefix.v.shape[0] != k_on:
        where = "nowhere inside the run" if k_on is None else \
            f"at sample {k_on}"
        raise ValueError(
            f"prefix of {prefix.v.shape[0]} samples does not end at the "
            f"disturbance start, which is {where}"
        )
    return _simulate_blocks(params, segments, k_on, excitation, n, ts,
                            noise_std, noise_seed, np.asarray(i_op, float),
                            np.asarray(vg, float), prefix, block)


def _simulate_blocks(params, segments, k_on, excitation, n, ts, noise_std,
                     noise_seed, i_op, vg, prefix, block):
    nominal = segments[0][2]
    excite = None if excitation is None else RbsStream(excitation, 1.0 / ts)
    if noise_std > 0:
        noise_v = np.random.Generator(np.random.Philox(noise_seed))
        noise_i = np.random.Generator(np.random.Philox(noise_seed))
        for lo in range(0, 2 * n, 2 * block):
            noise_i.standard_normal(min(2 * block, 2 * n - lo))
    prefix_v = None  # the pre-noise voltage before k_on, while recorded
    if prefix is None:
        x = equilibrium(nominal, i_op, vg)
        seg = 0
        if k_on is not None:
            prefix_v = np.empty((k_on, 2))
    else:
        x = prefix.x
        seg = 1
    prev_model = nominal
    k0, k1, model = segments[seg]
    entered = False  # FC, Gb and the vg forcing are those of `model`
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        i_inj = i_op + (np.zeros((hi - lo, 2)) if excite is None
                        else excite.take(hi - lo))
        v = np.empty((hi - lo, 2))
        k = lo
        if prefix is not None and lo < k_on:
            k = min(hi, k_on)
            v[:k - lo] = prefix.v[lo:k]
        while k < hi:
            if k == k1:  # next segment
                if seg == 0 and k_on is not None:
                    prefix = SimPrefix(v=prefix_v, x=x.copy())
                seg += 1
                k0, k1, model = segments[seg]
                entered = False
                continue
            if not entered:
                # a window shorter than half a step never switches
                if model is not prev_model:
                    x = _map_state(x, prev_model, model, params)
                    prev_model = model
                F, Gb, Ge = _discretize(model, ts)
                FC, vg_forcing = np.concatenate((F, model.C)), vg @ Ge.T
                entered = True
            stop = min(hi, k1)
            drive = _forcing(i_inj[k - lo:stop - lo], Gb, vg_forcing, k1 - k0)
            x = _step(v[k - lo:stop - lo], x, FC, drive)
            k = stop
        if not np.all(np.isfinite(v)):
            raise IntegrationError(
                "non-finite voltage trajectory; check step size and "
                "parameters"
            )
        if prefix_v is not None and lo < k_on:
            prefix_v[lo:min(hi, k_on)] = v[:min(hi, k_on) - lo]
        if noise_std > 0:
            v_meas = v + noise_std * noise_v.standard_normal((hi - lo, 2))
            i_meas = i_inj + noise_std * noise_i.standard_normal((hi - lo, 2))
        else:
            v_meas, i_meas = v, i_inj
        yield SimResult(t=np.arange(lo, hi) * ts, v_dq=v_meas, i_dq=i_meas,
                        ts=ts, prefix=(prefix if k_on is not None
                                       and lo <= k_on < hi else None))


def simulate(
    params: CircuitParams,
    disturbance: DisturbanceSpec | None,
    excitation: RbsConfig | None,
    duration: float,
    ts: float = 2e-4,
    noise_std: float = 1e-4,
    noise_seed: int = 1,
    i_op=(1.0, 0.0),
    vg=(1.0, 0.0),
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
                             noise_std, noise_seed, i_op, vg)
    n = sample_count(duration, ts)
    t, v_dq, i_dq = np.empty(n), np.empty((n, 2)), np.empty((n, 2))
    lo, done = 0, None
    for part in blocks:
        hi = lo + part.t.size
        t[lo:hi], v_dq[lo:hi], i_dq[lo:hi] = part.t, part.v_dq, part.i_dq
        done = done or part.prefix
        lo = hi
    return SimResult(t=t, v_dq=v_dq, i_dq=i_dq, ts=ts, prefix=done)
