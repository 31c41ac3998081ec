"""Fixed-step time-domain simulation of the dq small-signal test circuit.

The converter is an ideal controlled current source injecting a constant
operating-point current plus random binary excitation at the PCC. The
circuit is integrated with the trapezoidal rule at a fixed step; at the
disturbance start/end instants the topology is switched with energy-carrying
states carried over by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, StateSpaceModel, full_circuit_model
from .signals import RbsConfig, rbs_generate


class IntegrationError(RuntimeError):
    """The fixed-step discretization produced a non-finite trajectory."""


@dataclass(frozen=True)
class DisturbanceSpec:
    """A shunt branch connected at the midpoint during [t_start, t_end).

    kind: "fault" (resistive, value in p.u. unless given in ohms via
    `from_ohms`) or "load" (inductive, value in p.u. unless given in henries
    via `from_henries`).
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
        if not self.t_start < self.t_end:
            raise ValueError(
                f"t_start {self.t_start} must precede t_end {self.t_end}"
            )

    @classmethod
    def fault_from_ohms(cls, r_ohm: float, params: CircuitParams, t_start, t_end):
        return cls("fault", params.ohms_to_pu(r_ohm), t_start, t_end)

    @classmethod
    def load_from_henries(cls, l_h: float, params: CircuitParams, t_start, t_end):
        return cls("load", params.henries_to_pu(l_h), t_start, t_end)


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


def _advance(v, x, model: StateSpaceModel, ts: float, i_inj, vg, k0: int,
             k1: int):
    """Step `model` from state x entering sample k0 over samples [k0, k1),
    writing their PCC voltage into v; returns the state entering k1."""
    if k1 <= k0:
        return x
    F, Gb, Ge = _discretize(model, ts)
    drive = i_inj[k0:k1] @ Gb.T + vg @ Ge.T  # per-step forcing, (m, nx)
    Cv = model.C
    # v[k] = Cv x; x <- F x + drive[k], written into preallocated rows: the
    # next state overwrites the forcing row it consumes. np.dot is the same
    # BLAS gemv as the @ operator, so the values are bitwise those of the
    # plain expressions.
    dot, add = np.dot, np.add
    Fx = np.empty_like(x)
    for v_k, x_next in zip(v[k0:k1], drive):
        dot(Cv, x, v_k)
        dot(F, x, Fx)
        add(Fx, x_next, x_next)
        x = x_next
    return x


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
    prefix: SimPrefix | None = None,
) -> SimResult:
    """Run the circuit from its pre-disturbance equilibrium.

    Measurement sample k holds the state-borne PCC voltage at t_k and the
    current command applied over [t_k, t_k + ts); the voltage therefore
    depends only on commands strictly before k. Additive Gaussian noise of
    std `noise_std` is applied to both measured channels. Deterministic
    given the excitation and noise seeds.

    `prefix`, the SimResult.prefix of a run with the same arguments apart
    from the disturbance's kind, value and end, skips the steps before the
    disturbance: the run resumes from its state. The excitation and the
    noise are still drawn for the whole run, so the result is bitwise that
    of a run without it.
    """
    if duration <= 0 or ts <= 0:
        raise ValueError("duration and ts must be positive")
    n = int(round(duration / ts)) + 1
    t = np.arange(n) * ts

    fs = 1.0 / ts
    if excitation is not None:
        rbs = rbs_generate(excitation, n, fs=fs)
    else:
        rbs = np.zeros((n, 2))
    i_inj = np.asarray(i_op, float) + rbs
    vg = np.asarray(vg, float)

    nominal = full_circuit_model(params, None)
    later = []  # (start index, end index exclusive, model) after k_on
    if disturbance is None or disturbance.t_start >= duration:
        k_on = n
    else:
        disturbed = full_circuit_model(params, (disturbance.kind, disturbance.value_pu))
        k_on = int(round(disturbance.t_start / ts))
        k_off = min(n, int(round(disturbance.t_end / ts)))
        later.append((k_on, k_off, disturbed))
        if k_off < n:
            later.append((k_off, n, nominal))

    v = np.empty((n, 2))
    if prefix is None:
        x = equilibrium(nominal, np.asarray(i_op, float), vg)
        x = _advance(v, x, nominal, ts, i_inj, vg, 0, k_on)
        if later:
            prefix = SimPrefix(v=v[:k_on].copy(), x=x.copy())
    elif not later or prefix.v.shape[0] != k_on:
        where = f"at sample {k_on}" if later else "nowhere inside the run"
        raise ValueError(
            f"prefix of {prefix.v.shape[0]} samples does not end at the "
            f"disturbance start, which is {where}"
        )
    else:
        v[:k_on] = prefix.v
        x = prefix.x
    prev_model = nominal
    for k0, k1, model in later:
        if k1 <= k0:  # a window shorter than half a step never switches
            continue
        if model is not prev_model:
            x = _map_state(x, prev_model, model, params)
        x = _advance(v, x, model, ts, i_inj, vg, k0, k1)
        prev_model = model

    if not np.all(np.isfinite(v)):
        raise IntegrationError(
            "non-finite voltage trajectory; check step size and parameters"
        )

    if noise_std > 0:
        rng = np.random.Generator(np.random.Philox(noise_seed))
        v_meas = v + noise_std * rng.standard_normal((n, 2))
        i_meas = i_inj + noise_std * rng.standard_normal((n, 2))
    else:
        v_meas = v
        i_meas = i_inj.copy()

    return SimResult(t=t, v_dq=v_meas, i_dq=i_meas, ts=ts, prefix=prefix)
