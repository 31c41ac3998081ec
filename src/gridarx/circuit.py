"""dq-frame small-signal models of the test circuit, and the closed-form
poles of its simplified disturbance models.

Topology, seen from the converter at the PCC:

    converter (current source) --- PCC node --- line 1 (R2, L2) --- midpoint
                                     |                                 |
                               load R1 || C1            line 2 (R3, L3) to infinite bus
                                                                       |
                                               switchable branch Z_i to ground
                                               (resistive fault or inductive load)

The closed-form poles and the simplified models work in per-unit with the
Laplace variable normalized by the grid frequency (s_bar = s / omega_g),
so the nominal rotation shows up as +/- j in pole locations. The full
circuit model, which the simulator discretizes, carries the omega_base
factor back to seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# 2x2 rotation generator; j in the complex representation of dq quantities.
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
I2 = np.eye(2)


@dataclass(frozen=True)
class CircuitParams:
    """Electrical parameters of the test circuit (per-unit on the given base).

    The converter is modeled as an ideal controlled current source, so its
    output filter has no parameters here.
    """

    v_base: float = 380.0  # V
    s_base: float = 1500.0  # VA
    f_base: float = 50.0  # Hz
    r1: float = 2.0  # p.u., load resistance
    c1: float = 0.05  # p.u., load capacitance
    r2: float = 0.015  # p.u., line 1
    l2: float = 0.15  # p.u., line 1
    r3: float = 0.015  # p.u., line 2
    l3: float = 0.15  # p.u., line 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("r2", "r3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # the load branch's time constant r1 * c1 divides the model
        for name in ("r1", "c1", "l2", "l3", "v_base", "s_base", "f_base"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def z_base(self) -> float:
        """Base impedance in ohms (three-phase convention, V_base line-line)."""
        return self.v_base**2 / self.s_base

    @property
    def omega_base(self) -> float:
        return 2.0 * np.pi * self.f_base

    def ohms_to_pu(self, r_ohm: float) -> float:
        return r_ohm / self.z_base

    def henries_to_pu(self, l_h: float) -> float:
        return l_h * self.omega_base / self.z_base


def fault_poles(r_fault_pu: float, params: CircuitParams = CircuitParams()):
    """Closed-form pole pair of the simplified post-fault circuit
    (load branch removed), in grid-frequency-normalized units.

    General form -(r_fault + r3)/l3 +/- j; at the default parameters this is
    -(20/3) r_fault - 1/10 +/- j.
    """
    re = -(r_fault_pu + params.r3) / params.l3
    return (re + 1j, re - 1j)


def load_poles(l_load_pu: float, params: CircuitParams = CircuitParams()):
    """Closed-form pole pair of the simplified post-load-increase circuit,
    in grid-frequency-normalized units.

    General form -r3/(l3 + l_load) +/- j; at the default parameters this is
    -3/(200 l_load + 30) +/- j.
    """
    re = -params.r3 / (params.l3 + l_load_pu)
    return (re + 1j, re - 1j)


@dataclass
class StateSpaceModel:
    """Continuous-time dq small-signal model x' = A x + B u + E w, y = C x.

    u is the injected PCC current perturbation (2), w the infinite-bus dq
    voltage (2), y the PCC voltage (2). `state_names` label physical states
    so that topology switches can carry them over by name.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    state_names: list = field(default_factory=list)


def numeric_poles(model: StateSpaceModel) -> np.ndarray:
    """Eigenvalues of the system matrix; the oracle for the closed forms."""
    return np.linalg.eigvals(model.A)


def simplified_fault_model(
    r_fault_pu: float, params: CircuitParams = CircuitParams()
) -> StateSpaceModel:
    """Simplified circuit (R1, C1 removed) with a resistive fault at the
    midpoint, assembled independently of the closed-form pole expressions.

    Normalized time tau = omega_g * t; single physical state: line 2 current.
    The line 1 current equals the injected current (no shunt at the PCC).
    """
    l3, r3 = params.l3, params.r3
    A = -((r_fault_pu + r3) / l3) * I2 - J2
    B = (r_fault_pu / l3) * I2  # injected current drives the midpoint voltage
    E = -(1.0 / l3) * I2
    # y = v_pcc = Z2 applied to the input current; not needed for pole analysis
    C = I2.copy()
    return StateSpaceModel(A=A, B=B, C=C, E=E, state_names=["i3_d", "i3_q"])


def simplified_load_model(
    l_load_pu: float, params: CircuitParams = CircuitParams()
) -> StateSpaceModel:
    """Simplified circuit with an inductive load branch at the midpoint.

    The load branch current equals i_inj - i3, so line 2 current remains the
    single physical state after eliminating the inductor loop.
    """
    l3, r3 = params.l3, params.r3
    ll = l_load_pu
    lsum = l3 + ll
    A = -(r3 / lsum) * I2 - J2
    # forced response would involve the input-current derivative (inductor
    # loop); this model exists for pole analysis, so B is left zero
    B = np.zeros((2, 2))
    E = -(1.0 / lsum) * I2
    C = I2.copy()
    return StateSpaceModel(A=A, B=B, C=C, E=E, state_names=["i3_d", "i3_q"])


def _blocks_to_matrix(blocks, n_states: int, n_cols: int) -> np.ndarray:
    """Assemble a (2*n_states, 2*n_cols) matrix from {(i, j): 2x2} blocks."""
    M = np.zeros((2 * n_states, 2 * n_cols))
    for (i, j), blk in blocks.items():
        M[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blk
    return M


# What a disturbance value of each kind is, in the errors below.
_VALUE_NAMES = {"fault": "fault resistance", "load": "load inductance"}


def full_circuit_model(
    params: CircuitParams, disturbance=None
) -> StateSpaceModel:
    """Full test-circuit model (load R1 || C1 retained at the PCC), in
    seconds, per-unit amplitudes.

    disturbance: None, ("fault", r_fault_pu) or ("load", l_load_pu); when
    present the branch is connected from the midpoint to ground.

    States: PCC voltage v1 (across C1) plus line currents. Without a shunt
    at the midpoint the two lines carry one series current; with a
    disturbance branch the midpoint voltage becomes algebraic in the states
    and both line currents are kept.

    Values so large or small that a matrix entry overflows (a finite fault
    resistance of 1e306 p.u. does) raise ValueError naming the disturbance
    value, or the circuit parameters without one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        model = _circuit_model(params, disturbance)
    if not all(np.isfinite(m).all()
               for m in (model.A, model.B, model.C, model.E)):
        what = ("the circuit parameters" if disturbance is None else
                f"{_VALUE_NAMES[disturbance[0]]} {disturbance[1]!r} p.u.")
        raise ValueError(f"{what}: the circuit model overflows, a matrix "
                         "entry is not finite")
    return model


def _circuit_model(params: CircuitParams, disturbance) -> StateSpaceModel:
    """`full_circuit_model` before its finiteness check."""
    wb = params.omega_base
    r1, c1 = params.r1, params.c1
    r2, l2 = params.r2, params.l2
    r3, l3 = params.r3, params.l3
    rot = J2  # grid rotation at omega_g = omega_base

    if disturbance is None:
        # states: v1, i23 (series current through both lines)
        r23, l23 = r2 + r3, l2 + l3
        A = _blocks_to_matrix(
            {
                (0, 0): -(1.0 / (r1 * c1)) * I2,
                (0, 1): -(1.0 / c1) * I2,
                (1, 0): (1.0 / l23) * I2,
                (1, 1): -(r23 / l23) * I2,
            },
            2,
            2,
        ) * wb
        A -= np.kron(np.eye(2), wb * rot)
        B = wb * _blocks_to_matrix({(0, 0): (1.0 / c1) * I2}, 2, 1)
        E = wb * _blocks_to_matrix({(1, 0): -(1.0 / l23) * I2}, 2, 1)
        C = _blocks_to_matrix({(0, 0): I2}, 1, 2)
        names = ["v1_d", "v1_q", "i23_d", "i23_q"]
        return StateSpaceModel(A=A, B=B, C=C, E=E, state_names=names)

    kind, value = disturbance
    # states: v1, i2, i3; midpoint voltage vm is algebraic:
    #   fault: vm = r_f (i2 - i3)
    #   load:  vm = alpha [(v1 - r2 i2)/l2 + (vg + r3 i3)/l3],
    #          alpha = 1/(1/l_load + 1/l2 + 1/l3)
    if kind == "fault":
        rf = float(value)
        if rf <= 0:
            raise ValueError("fault resistance must be > 0")
        vm = {  # vm as 2x2 blocks on [v1, i2, i3] and vg
            "v1": np.zeros((2, 2)),
            "i2": rf * I2,
            "i3": -rf * I2,
            "vg": np.zeros((2, 2)),
        }
    elif kind == "load":
        ll = float(value)
        if ll <= 0:
            raise ValueError("load inductance must be > 0")
        alpha = 1.0 / (1.0 / ll + 1.0 / l2 + 1.0 / l3)
        vm = {
            "v1": (alpha / l2) * I2,
            "i2": -(alpha * r2 / l2) * I2,
            "i3": (alpha * r3 / l3) * I2,
            "vg": (alpha / l3) * I2,
        }
    else:
        raise ValueError(f"unknown disturbance kind {kind!r}")

    blocks_A = {
        (0, 0): -(1.0 / (r1 * c1)) * I2,
        (0, 1): -(1.0 / c1) * I2,
        (1, 0): (1.0 / l2) * (I2 - vm["v1"]),
        (1, 1): -(1.0 / l2) * (r2 * I2 + vm["i2"]),
        (1, 2): -(1.0 / l2) * vm["i3"],
        (2, 0): (1.0 / l3) * vm["v1"],
        (2, 1): (1.0 / l3) * vm["i2"],
        (2, 2): (1.0 / l3) * (vm["i3"] - r3 * I2),
    }
    A = wb * _blocks_to_matrix(blocks_A, 3, 3)
    A -= np.kron(np.eye(3), wb * rot)
    B = wb * _blocks_to_matrix({(0, 0): (1.0 / c1) * I2}, 3, 1)
    E = wb * _blocks_to_matrix(
        {
            (1, 0): -(1.0 / l2) * vm["vg"],
            (2, 0): (1.0 / l3) * (vm["vg"] - I2),
        },
        3,
        1,
    )
    C = _blocks_to_matrix({(0, 0): I2}, 1, 3)
    names = ["v1_d", "v1_q", "i2_d", "i2_q", "i3_d", "i3_q"]
    return StateSpaceModel(A=A, B=B, C=C, E=E, state_names=names)
