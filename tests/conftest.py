"""Shared fixtures: calibrations, simulation runs, and the discrimination
experiment are expensive, so they are session-scoped and reused across
test modules."""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from gridarx import CircuitParams
from gridarx.rls import ArxConfig
from gridarx.scenario import (
    ScenarioConfig,
    build_library_from_scenarios,
    run_calibration,
    run_scenario,
)
from gridarx.detector import Thresholds
from gridarx.pipeline import identify
from gridarx.simulate import DisturbanceSpec, simulate

# Offline-tuned thresholds for the discrimination experiment: d_high sits
# above the estimator's topology-switch transients (so high-impedance and
# load runs classify through the signature library) and d_low sits below
# the settled load-increase deviation.
DISC_THRESHOLDS = Thresholds(d_high=4.5, d_low=0.03)
DISC_MATCH_FLOOR = 0.6
HELD_OUT_SEEDS = (3, 4, 5, 6, 7)


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test that leaves a child process running, such as a run's CSV
    writer on a failure path; the process is stopped first."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join()
    if left:
        pytest.fail(f"child processes left running: {left}")


@pytest.fixture(scope="session")
def params():
    return CircuitParams()


@pytest.fixture(scope="session")
def default_cal():
    """Fault-free calibration on the default profile: (nominal, auto
    thresholds, final identifier state, config)."""
    config = ScenarioConfig(duration=10.0)
    nominal, thresholds, state = run_calibration(config)
    return nominal, thresholds, state, config


@pytest.fixture(scope="session")
def noiseless_run(params):
    """Noiseless 10 s nominal run with excitation, plus its identification."""
    config = ScenarioConfig(duration=10.0, noise_std=0.0)
    sim = simulate(params, None, config.excitation, config.duration,
                   config.ts, noise_std=0.0)
    run = identify(sim, config.identifier)
    return sim, run


def _disturbance_scenario(base, name, kind, value, seed):
    dist = DisturbanceSpec(kind, value, 5.0, 15.0)
    cfg = replace(base, name=name, duration=15.0, disturbance=dist,
                  noise_seed=seed, match_floor=DISC_MATCH_FLOOR)
    return replace(cfg, excitation=replace(cfg.excitation, seed=seed))


@pytest.fixture(scope="session")
def discrimination(params, default_cal):
    """Signature library plus held-out classification reports.

    Library: one 600 ohm fault run and one 0.35 p.u. load run (seed 2).
    Held out: 1000 ohm fault and 0.5 p.u. load, five fresh seeds each, and
    one extra 600 ohm run for the side-by-side baseline comparison.
    """
    nominal, auto_thresholds, _, cal_config = default_cal
    base = cal_config

    library = build_library_from_scenarios(
        [
            _disturbance_scenario(base, "hif600_lib", "fault",
                                  params.ohms_to_pu(600.0), 2),
            _disturbance_scenario(base, "load035_lib", "load", 0.35, 2),
        ],
        nominal,
        auto_thresholds,
    )

    reports = {}
    for seed in HELD_OUT_SEEDS:
        for name, kind, value in [
            ("hif1000", "fault", params.ohms_to_pu(1000.0)),
            ("load05", "load", 0.5),
        ]:
            cfg = _disturbance_scenario(base, f"{name}_s{seed}", kind,
                                        value, seed)
            reports[(name, seed)] = run_scenario(cfg, nominal,
                                                 DISC_THRESHOLDS, library)
    cfg = _disturbance_scenario(base, "hif600_s3", "fault",
                                params.ohms_to_pu(600.0), 3)
    reports[("hif600", 3)] = run_scenario(cfg, nominal, DISC_THRESHOLDS,
                                          library)
    return {
        "nominal": nominal,
        "auto_thresholds": auto_thresholds,
        "thresholds": DISC_THRESHOLDS,
        "library": library,
        "reports": reports,
    }


@pytest.fixture(scope="session")
def lif_reports(params):
    """Low-impedance-fault runs on the default profile with auto
    thresholds, one per forgetting factor."""
    out = {}
    for forgetting, duration, t_end in [(0.999, 30.0, 20.0),
                                        (0.99, 15.0, 14.0)]:
        cfg = ScenarioConfig(identifier=ArxConfig(forgetting=forgetting),
                             duration=10.0)
        nominal, thresholds, _ = run_calibration(cfg)
        lif = replace(
            cfg,
            name=f"lif20_{forgetting}",
            duration=duration,
            disturbance=DisturbanceSpec(
                "fault", params.ohms_to_pu(20.0), 10.0, t_end),
        )
        out[forgetting] = run_scenario(lif, nominal, thresholds)
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(1234))
