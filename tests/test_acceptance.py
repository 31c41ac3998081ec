"""Acceptance gate: one test per release criterion.

Each test name carries the criterion number so the verbose run reads as a
per-criterion pass/fail checklist.
"""

import time

import numpy as np

from gridarx.circuit import (
    CircuitParams,
    fault_poles,
    load_poles,
    numeric_poles,
    simplified_fault_model,
    simplified_load_model,
)
from gridarx.detector import (
    SignatureLibrary,
    Signature,
    Thresholds,
    Verdict,
    classify,
)
from gridarx.pipeline import identify
from gridarx.rls import ArxConfig, init_identifier, rls_update
from gridarx.scenario import ScenarioConfig, run_calibration
from gridarx.signals import RbsConfig
from gridarx.simulate import simulate
from oracles import abc_to_dq, batch_weighted_ls, dq_to_abc, residual_ratio
from test_rls import random_arx_stream

EIG_TOL = 1e-12  # eigenvalue-solver tolerance scale used in criterion 6


def test_criterion_1_recursive_estimator_matches_batch_oracle():
    """50 random ARX systems, all forgetting profiles: recursive estimate
    equals the weighted batch solution within 1e-6 relative; under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(42))
    lambdas = [1.0, 0.999, 0.99]
    for sys_idx in range(50):
        order = int(rng.integers(1, 4))
        input_dim = int(rng.integers(1, 3))
        output_dim = int(rng.integers(1, 3))
        nphi = (input_dim + output_dim) * order
        n = 5 * nphi * order + 200
        _, pairs = random_arx_stream(rng, order, input_dim, output_dim, n)
        lam = lambdas[sys_idx % len(lambdas)]
        cfg = ArxConfig(order=order, input_dim=input_dim,
                        output_dim=output_dim, forgetting=lam,
                        p0_scale=1e10, p_max=1e14)
        state = init_identifier(cfg)
        for y, phi in pairs:
            state = rls_update(state, y, phi)
        batch = batch_weighted_ls(pairs, lam)
        err = np.linalg.norm(state.theta - batch) / np.linalg.norm(batch)
        assert err < 1e-6, (sys_idx, lam, err)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_noiseless_identification_residual_under_5_percent():
    """Order-3 model on a noiseless excited run: one-step residual < 5% of
    the output variance; the 10 s pipeline finishes inside 30 s."""
    t0 = time.perf_counter()
    sim = simulate(CircuitParams(), None, RbsConfig(amplitude=0.1, seed=1),
                   10.0, noise_std=0.0)
    run = identify(sim, ArxConfig())
    ratio = residual_ratio(run, run.final_state.theta)
    assert ratio < 0.05, ratio
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_low_impedance_fault_detection_speed(lif_reports):
    """20 ohm fault: the hard threshold trips within 50 ms at the default
    forgetting, within 5 ms at 0.99, and the default profile recovers to
    the low threshold 0.5-10 s after clearance."""
    slow = lif_reports[0.999]
    fast = lif_reports[0.99]
    assert slow.dt1_high is not None and slow.dt1_high < 0.050
    assert fast.dt1_high is not None and fast.dt1_high < 0.005
    assert slow.dt2 is not None and 0.5 <= slow.dt2 <= 10.0
    assert fast.dt2 is not None


def test_criterion_4_high_impedance_discrimination(discrimination):
    """Held-out severities and seeds (five per class) all classified
    correctly through the signature band, never through the hard
    threshold."""
    correct = 0
    total = 0
    for (name, seed), report in discrimination["reports"].items():
        expected = (Verdict.FAULT if name.startswith("hif")
                    else Verdict.LOAD_INCREASE)
        total += 1
        if report.final_verdict is expected:
            correct += 1
        if name.startswith("hif"):
            assert report.dt1_high is None, (name, seed)
    assert correct == total == 11


def test_criterion_5_baseline_contrast(lif_reports, discrimination):
    """Voltage limit-checking sees the 20 ohm fault but misses both
    high-impedance severities that the parameter-deviation detector
    classifies as faults."""
    assert lif_reports[0.999].baseline.detected
    hif_seen = 0
    for (name, seed), report in discrimination["reports"].items():
        if name.startswith("hif"):
            hif_seen += 1
            assert not report.baseline.detected, (name, seed)
            assert report.final_verdict is Verdict.FAULT, (name, seed)
    assert hif_seen >= 2  # both severities covered (600 and 1000 ohm)


def test_criterion_6_pole_formulas_match_eigenvalue_oracle():
    """Closed-form disturbance poles within 1% of the assembled-circuit
    eigenvalues, and fault/load pole pairs stay separated for every tested
    severity pair."""
    params = CircuitParams()
    r_grid = [0.05, 0.2077, 1.0, 6.232, 10.387]
    l_grid = [0.1, 0.35, 0.5, 2.0]
    for rf in r_grid:
        formula = sorted(fault_poles(rf, params), key=lambda z: z.imag)
        numeric = sorted(numeric_poles(simplified_fault_model(rf, params)),
                         key=lambda z: z.imag)
        for f, n in zip(formula, numeric):
            assert abs(f - n) / abs(n) < 0.01
    for ll in l_grid:
        formula = sorted(load_poles(ll, params), key=lambda z: z.imag)
        numeric = sorted(numeric_poles(simplified_load_model(ll, params)),
                         key=lambda z: z.imag)
        for f, n in zip(formula, numeric):
            assert abs(f - n) / abs(n) < 0.01
    for rf in r_grid:
        for ll in l_grid:
            sep = min(
                abs(sf - sl)
                for sf in fault_poles(rf, params)
                for sl in load_poles(ll, params)
            )
            assert sep > 10 * EIG_TOL, (rf, ll, sep)


def test_criterion_7_property_suites():
    """Covariance health over a long random stream, Park round-trip,
    classifier branch exclusivity under fuzzing, and seed-for-seed
    reproducibility."""
    # covariance symmetry and positive-definiteness, 1e5 update steps
    rng = np.random.Generator(np.random.Philox(99))
    cfg = ArxConfig(order=1, input_dim=1, output_dim=1, forgetting=0.999)
    state = init_identifier(cfg)
    for _ in range(100_000):
        phi = rng.standard_normal(2)
        y = [0.4 * phi[0] - 0.2 * phi[1] + 0.01 * rng.standard_normal()]
        state = rls_update(state, y, phi)
        P = state.P
        assert np.linalg.norm(P - P.T) <= 1e-10 * np.linalg.norm(P)
        np.linalg.cholesky(P)

    # Park round-trip identity
    dq = rng.uniform(-10, 10, size=(200, 2))
    angles = rng.uniform(-50, 50, size=200)
    for k in range(200):
        back = abc_to_dq(dq_to_abc(dq[k], angles[k]), angles[k])
        assert np.allclose(back, dq[k], atol=1e-12)

    # classifier branch exclusivity over 1e4 random snapshots
    shape = (2, 12)
    from gridarx.detector import calibrate_nominal
    nominal = calibrate_nominal([0.0], np.zeros((1,) + shape))
    thr = Thresholds(d_high=1.0, d_low=0.1)
    sig = rng.standard_normal(shape)
    lib = SignatureLibrary(order=3, signatures=[
        Signature(label=Verdict.FAULT, delta_theta=sig / np.linalg.norm(sig))
    ])
    for _ in range(10_000):
        theta = rng.standard_normal(shape) * rng.choice([0.01, 0.2, 2.0])
        ev = classify(theta, nominal, thr, lib)
        d = np.linalg.norm(theta)
        if d > thr.d_high:
            assert ev.verdict is Verdict.FAULT
            assert ev.matched_label is None
        elif d > thr.d_low:
            assert ev.verdict in (Verdict.FAULT, Verdict.LOAD_INCREASE,
                                  Verdict.UNCLASSIFIED)
            assert ev.matched_similarity is not None
        else:
            assert ev.verdict is Verdict.NORMAL

    # byte-identical reruns with fixed seeds
    config = ScenarioConfig(duration=2.5)
    from gridarx.scenario import calibration_to_json
    outputs = []
    for _ in range(2):
        nominal_run, thresholds_run, _ = run_calibration(config)
        outputs.append(
            calibration_to_json(nominal_run, thresholds_run, config)
        )
    assert outputs[0] == outputs[1]
