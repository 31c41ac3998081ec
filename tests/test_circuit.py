"""Circuit parameters, closed-form disturbance poles, and the assembled
state-space models, checked against independent complex-scalar oracles.

Every branch matrix in the dq frame has the form a*I + b*J (J the 2x2
rotation generator), which is isomorphic to the complex scalar a + jb.
The oracles below therefore work in plain complex arithmetic, a derivation
path fully independent of the 2x2 matrix code under test.
"""

import numpy as np
import pytest

from gridarx.circuit import (
    CircuitParams,
    fault_poles,
    full_circuit_model,
    load_poles,
    numeric_poles,
    simplified_fault_model,
    simplified_load_model,
)


def scalar_branch(r, l, s):
    """Complex-scalar impedance of a series R-L branch at normalized s."""
    return r + (s + 1j) * l


def mat_to_scalar(m):
    """Extract a + jb from a 2x2 matrix of the form a*I + b*J."""
    assert abs(m[0, 0] - m[1, 1]) < 1e-12 * (1 + abs(m[0, 0]))
    assert abs(m[0, 1] + m[1, 0]) < 1e-12 * (1 + abs(m[0, 1]))
    return m[0, 0] + 1j * m[1, 0]


class TestParams:
    def test_base_impedance(self, params):
        assert params.z_base == pytest.approx(380.0**2 / 1500.0)
        assert params.ohms_to_pu(600.0) == pytest.approx(6.232, abs=1e-3)
        assert params.ohms_to_pu(1000.0) == pytest.approx(10.387, abs=2e-3)
        assert params.ohms_to_pu(20.0) == pytest.approx(0.2077, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitParams(r1=-1.0)
        with pytest.raises(ValueError, match="r1 must be > 0"):
            CircuitParams(r1=0.0)
        with pytest.raises(ValueError):
            CircuitParams(l2=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["v_base", "s_base", "f_base", "r1",
                                      "c1", "r2", "l2", "r3", "l3"])
    def test_non_finite_field_named(self, name, value):
        """Else nan passed, to fail later as a non-finite trajectory, and
        an infinite f_base as an empty limit band."""
        with pytest.raises(ValueError) as err:
            CircuitParams(**{name: value})
        assert str(err.value) == f"{name} must be finite, got {value!r}"


class TestClosedFormPoles:
    def test_fault_degenerate_point(self, params):
        poles = fault_poles(0.0 + 1e-300, params)
        assert poles[0] == pytest.approx(-0.1 + 1j)

    def test_fault_printed_arithmetic(self, params):
        # -(20/3) * 0.3 - 1/10 = -2.1
        poles = fault_poles(0.3, params)
        assert poles[0] == pytest.approx(-2.1 + 1j)
        assert poles[1] == pytest.approx(-2.1 - 1j)

    def test_load_degenerate_point_matches_fault(self, params):
        lp = load_poles(1e-12, params)
        fp = fault_poles(1e-12, params)
        assert lp[0] == pytest.approx(fp[0], abs=1e-9)

    def test_load_printed_arithmetic(self, params):
        # -3/(200*0.35 + 30) = -0.03
        poles = load_poles(0.35, params)
        assert poles[0] == pytest.approx(-0.03 + 1j)

    @pytest.mark.parametrize("rf", [0.05, 0.2077, 1.0, 6.232, 10.387])
    def test_fault_formula_vs_eigenvalue_oracle(self, rf, params):
        formula = sorted(fault_poles(rf, params), key=lambda z: z.imag)
        numeric = sorted(numeric_poles(simplified_fault_model(rf, params)),
                         key=lambda z: z.imag)
        for f, n in zip(formula, numeric):
            assert abs(f - n) < 1e-9 * max(1.0, abs(n))

    @pytest.mark.parametrize("ll", [0.1, 0.35, 0.5, 2.0])
    def test_load_formula_vs_eigenvalue_oracle(self, ll, params):
        formula = sorted(load_poles(ll, params), key=lambda z: z.imag)
        numeric = sorted(numeric_poles(simplified_load_model(ll, params)),
                         key=lambda z: z.imag)
        for f, n in zip(formula, numeric):
            assert abs(f - n) < 1e-9 * max(1.0, abs(n))

    def test_fault_poles_move_left_with_resistance(self, params):
        a = numeric_poles(simplified_fault_model(0.5, params))
        b = numeric_poles(simplified_fault_model(2.0, params))
        assert max(z.real for z in b) < min(z.real for z in a)


class TestNumericPoles:
    def test_known_eigenpair(self):
        from gridarx.circuit import StateSpaceModel
        m = StateSpaceModel(A=np.array([[-1.0, 1.0], [-1.0, -1.0]]),
                            B=np.zeros((2, 2)), C=np.eye(2),
                            E=np.zeros((2, 2)))
        got = sorted(numeric_poles(m), key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1 - 1j)
        assert got[1] == pytest.approx(-1 + 1j)

    def test_full_circuit_passivity_random_draws(self, rng):
        for _ in range(15):
            p = CircuitParams(
                r1=float(rng.uniform(0.5, 5.0)),
                c1=float(rng.uniform(0.01, 0.2)),
                r2=float(rng.uniform(0.001, 0.1)),
                l2=float(rng.uniform(0.05, 0.5)),
                r3=float(rng.uniform(0.001, 0.1)),
                l3=float(rng.uniform(0.05, 0.5)),
            )
            for dist in [None, ("fault", float(rng.uniform(0.05, 20.0))),
                         ("load", float(rng.uniform(0.05, 5.0)))]:
                poles = numeric_poles(full_circuit_model(p, dist))
                assert np.all(np.real(poles) < 0.0)


class TestFullCircuitModel:
    def test_nominal_dimensions_and_names(self, params):
        m = full_circuit_model(params, None)
        assert m.A.shape == (4, 4)
        assert m.state_names == ["v1_d", "v1_q", "i23_d", "i23_q"]

    def test_disturbed_dimensions(self, params):
        m = full_circuit_model(params, ("fault", 1.0))
        assert m.A.shape == (6, 6)
        assert m.state_names[2:] == ["i2_d", "i2_q", "i3_d", "i3_q"]

    def test_unknown_kind_rejected(self, params):
        with pytest.raises(ValueError):
            full_circuit_model(params, ("wobble", 1.0))
        with pytest.raises(ValueError):
            full_circuit_model(params, ("fault", -1.0))

    def test_overflowing_value_named(self, params):
        """A finite fault resistance whose model overflows is named, not
        passed on as a matrix of infinities."""
        with pytest.raises(ValueError) as err:
            full_circuit_model(params, ("fault", 1e306))
        assert str(err.value) == ("fault resistance 1e+306 p.u.: the circuit "
                                  "model overflows, a matrix entry is not "
                                  "finite")

    def test_nominal_dc_gain_matches_impedance_oracle(self, params):
        """PCC driving-point impedance at DC: the R1||C1 shunt in parallel
        with the line path to the shorted bus, via complex scalars."""
        m = full_circuit_model(params, None)
        # v = -C A^-1 B u for unit current injection
        gain = -m.C @ np.linalg.solve(m.A, m.B)
        z1 = 1.0 / (1.0 / params.r1 + 1j * params.c1)
        zline = scalar_branch(params.r2 + params.r3,
                              params.l2 + params.l3, 0.0)
        expect = 1.0 / (1.0 / z1 + 1.0 / zline)
        assert mat_to_scalar(gain) == pytest.approx(expect, abs=1e-12)

    def test_fault_dc_gain_matches_nodal_oracle(self, params):
        rf = params.ohms_to_pu(600.0)
        m = full_circuit_model(params, ("fault", rf))
        gain = -m.C @ np.linalg.solve(m.A, m.B)
        z1 = 1.0 / (1.0 / params.r1 + 1j * params.c1)
        z2 = scalar_branch(params.r2, params.l2, 0.0)
        z3 = scalar_branch(params.r3, params.l3, 0.0)
        zgrid = 1.0 / (1.0 / z3 + 1.0 / rf) + z2
        expect = 1.0 / (1.0 / z1 + 1.0 / zgrid)
        assert mat_to_scalar(gain) == pytest.approx(expect, abs=1e-12)

    def test_load_dc_gain_matches_nodal_oracle(self, params):
        ll = 0.35
        m = full_circuit_model(params, ("load", ll))
        gain = -m.C @ np.linalg.solve(m.A, m.B)
        z1 = 1.0 / (1.0 / params.r1 + 1j * params.c1)
        z2 = scalar_branch(params.r2, params.l2, 0.0)
        z3 = scalar_branch(params.r3, params.l3, 0.0)
        zload = scalar_branch(0.0, ll, 0.0)
        zgrid = 1.0 / (1.0 / z3 + 1.0 / zload) + z2
        expect = 1.0 / (1.0 / z1 + 1.0 / zgrid)
        assert mat_to_scalar(gain) == pytest.approx(expect, abs=1e-12)
