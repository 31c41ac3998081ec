"""Scenario configuration files, artifact round-trips, and reproducibility
of end-to-end runs."""

import filecmp
import os
from dataclasses import replace

import numpy as np
import pytest

from gridarx.detector import Thresholds, Verdict
from gridarx.scenario import (
    ScenarioConfig,
    StageError,
    _cycle_average,
    calibration_from_json,
    calibration_to_json,
    load_scenario,
    default_profile,
    read_samples_csv,
    read_theta_csv,
    run_calibration,
    run_scenario,
    run_suite,
    write_samples_csv,
    write_theta_csv,
)
from gridarx.simulate import DisturbanceSpec, SimResult, simulate

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def write_ini(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadScenario:
    def test_shipped_hif_scenario(self):
        cfg = load_scenario(os.path.join(SCENARIO_DIR, "hif_600ohm.ini"))
        assert cfg.name == "hif_600ohm"
        assert cfg.duration == 30.0
        assert cfg.disturbance.kind == "fault"
        assert cfg.disturbance.value_pu == pytest.approx(
            600.0 / cfg.circuit.z_base)
        assert cfg.disturbance.t_start == 10.0
        assert cfg.thresholds == Thresholds(d_high=4.5, d_low=0.03)
        assert cfg.match_floor == pytest.approx(0.6)

    def test_shipped_calibration_has_no_disturbance(self):
        cfg = load_scenario(os.path.join(SCENARIO_DIR, "calibration.ini"))
        assert cfg.disturbance is None
        assert cfg.thresholds is None

    def test_defaults_fill_unset_keys(self, tmp_path):
        path = write_ini(tmp_path, "minimal.ini", "[run]\nduration = 2.0\n")
        cfg = load_scenario(path)
        base = default_profile()
        assert cfg.duration == 2.0
        assert cfg.ts == base.ts
        assert cfg.noise_std == base.noise_std
        assert cfg.identifier.order == 3
        assert cfg.excitation.amplitude == pytest.approx(0.1)

    def test_load_disturbance_in_pu(self, tmp_path):
        path = write_ini(tmp_path, "load.ini",
                         "[disturbance]\nkind = load\nl_load_pu = 0.35\n"
                         "t_start = 1.0\nt_end = 2.0\n")
        cfg = load_scenario(path)
        assert cfg.disturbance.kind == "load"
        assert cfg.disturbance.value_pu == pytest.approx(0.35)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_ini(tmp_path, "bad.ini",
                         "[disturbance]\nkind = breaker\n")
        with pytest.raises(ValueError):
            load_scenario(path)

    @pytest.mark.parametrize("kind, keys", [
        ("fault", ("r_fault_pu", "r_fault_ohm")),
        ("load", ("l_load_pu", "l_load_h")),
    ])
    def test_missing_disturbance_value(self, tmp_path, kind, keys):
        path = write_ini(tmp_path, "novalue.ini",
                         f"[disturbance]\nkind = {kind}\nt_start = 1.0\n")
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        msg = str(err.value)
        assert path in msg and "[disturbance]" in msg
        assert all(key in msg for key in keys)

    def test_overrides(self, tmp_path):
        path = write_ini(tmp_path, "ovr.ini", "[run]\nduration = 2.0\n")
        cfg = load_scenario(path, {"seed": 9, "rho": 2, "forgetting": 0.99})
        assert cfg.excitation.seed == 9
        assert cfg.identifier.order == 2
        assert cfg.identifier.forgetting == pytest.approx(0.99)

    def test_excitation_disable(self, tmp_path):
        path = write_ini(tmp_path, "noexc.ini",
                         "[excitation]\nenabled = false\n")
        assert load_scenario(path).excitation is None

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_scenario("/nonexistent/scenario.ini")


class TestCsvRoundTrips:
    def test_samples_exact(self, params, tmp_path):
        sim = simulate(params, None, None, 0.01)
        path = str(tmp_path / "samples.csv")
        write_samples_csv(path, sim)
        back = read_samples_csv(path)
        assert np.array_equal(back.t, sim.t)
        assert np.array_equal(back.v_dq, sim.v_dq)
        assert np.array_equal(back.i_dq, sim.i_dq)
        assert back.ts == pytest.approx(sim.ts)

    def test_samples_long_grid_accepted(self, tmp_path):
        # arange * ts is uniform only to a few ulps of t; still one grid
        n, ts = 50_000, 2e-4
        sim = SimResult(t=np.arange(n) * ts, v_dq=np.zeros((n, 2)),
                        i_dq=np.zeros((n, 2)), ts=ts)
        path = str(tmp_path / "samples.csv")
        write_samples_csv(path, sim)
        assert np.array_equal(read_samples_csv(path).t, sim.t)

    @pytest.mark.parametrize("t, match", [
        ([0.0], "at least 2 samples"),
        ([], "at least 2 samples"),
        ([0.0, 1e-3, 1e-3, 2e-3], "does not increase at sample 2"),
        ([0.0, 1e-3, 0.5e-3, 1.5e-3], "does not increase at sample 2"),
        ([0.0, 1e-3, 2e-3, 4e-3, 5e-3], "non-uniform time grid at sample 3"),
        ([0.0, 1e-3, 2e-3 + 1e-8], "non-uniform time grid at sample 2"),
    ])
    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    def test_samples_bad_time_grid_rejected(self, tmp_path, t, match):
        path = tmp_path / "samples.csv"
        rows = "".join(f"{tk!r},1,0,1,0\n" for tk in t)
        path.write_text("t,v_d,v_q,i_d,i_q\n" + rows)
        with pytest.raises(ValueError, match=match):
            read_samples_csv(str(path))

    def test_theta_stride_and_exactness(self, tmp_path, rng):
        t = np.arange(20) * 1e-3
        thetas = rng.standard_normal((20, 2, 12))
        path = str(tmp_path / "theta.csv")
        write_theta_csv(path, t, thetas, stride=5)
        t_back, th_back = read_theta_csv(path)
        assert np.array_equal(t_back, t[::5])
        assert np.array_equal(th_back, thetas[::5])


class TestCalibrationArtifacts:
    def test_json_round_trip(self, default_cal):
        nominal, thresholds, _, config = default_cal
        text = calibration_to_json(nominal, thresholds, config)
        nom2, thr2 = calibration_from_json(text)
        assert np.array_equal(nom2.theta_star, nominal.theta_star)
        assert nom2.calibration_window == nominal.calibration_window
        assert thr2 == thresholds

    def test_calibration_deterministic(self, default_cal):
        nominal, thresholds, _, config = default_cal
        nom2, thr2, _ = run_calibration(config)
        assert np.array_equal(nom2.theta_star, nominal.theta_star)
        assert thr2 == thresholds

    def test_too_short_run_fails_with_stage(self):
        cfg = ScenarioConfig(duration=0.002)
        with pytest.raises(StageError) as err:
            run_calibration(cfg)
        assert err.value.stage == "identify"

    def test_config_echo_reports_effective_ceiling(self):
        echo = ScenarioConfig().echo()
        assert echo["identifier"]["p_max"] == pytest.approx(1e5)


@pytest.fixture(scope="module")
def short_fault_config():
    """A compressed end-to-end scenario: 1 s arming, fault at 6 s."""
    return ScenarioConfig(
        name="short_fault",
        duration=8.0,
        disturbance=DisturbanceSpec("fault", 0.2077, 6.0, 7.5),
    )


class TestRunScenario:
    def test_artifacts_and_audit_trail(self, default_cal, short_fault_config,
                                       tmp_path):
        """Distances on disk must be recomputable from the stored predictor
        trajectory and the stored calibration."""
        nominal, thresholds, _, _ = default_cal
        out = str(tmp_path / "run")
        report = run_scenario(short_fault_config, nominal, thresholds,
                              out_dir=out)
        assert report.dt1_high is not None

        for fname in ("samples.csv", "distance.csv", "theta.csv",
                      "events.jsonl", "report.json"):
            assert os.path.exists(os.path.join(out, fname))

        t_th, thetas = read_theta_csv(os.path.join(out, "theta.csv"))
        d_disk = np.loadtxt(os.path.join(out, "distance.csv"),
                            delimiter=",", skiprows=1)
        d_at = dict(zip(d_disk[:, 0], d_disk[:, 1]))
        recomputed = np.linalg.norm(thetas - nominal.theta_star, axis=(1, 2))
        for tk, dk in zip(t_th, recomputed):
            assert abs(d_at[tk] - dk) < 1e-12

    def test_reruns_byte_identical(self, default_cal, short_fault_config,
                                   tmp_path):
        nominal, thresholds, _, _ = default_cal
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_scenario(short_fault_config, nominal, thresholds, out_dir=out_a)
        run_scenario(short_fault_config, nominal, thresholds, out_dir=out_b)
        for fname in ("samples.csv", "distance.csv", "theta.csv",
                      "events.jsonl", "report.json"):
            assert filecmp.cmp(os.path.join(out_a, fname),
                               os.path.join(out_b, fname), shallow=False), \
                fname

    def test_fault_trips_and_recovers(self, default_cal, short_fault_config):
        nominal, thresholds, _, _ = default_cal
        report = run_scenario(short_fault_config, nominal, thresholds)
        assert report.dt1_high is not None
        assert report.dt1_high < 0.05
        verdicts = [v for _, v in report.verdict_timeline]
        assert "fault" in verdicts

    def test_no_disturbance_stays_normal(self, default_cal):
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(name="quiet", duration=4.0)
        report = run_scenario(cfg, nominal, thresholds)
        assert report.final_verdict is Verdict.NORMAL
        assert report.dt1_high is None
        assert not report.baseline_detected

    def test_disturbance_after_run_end_warns(self, default_cal):
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(
            name="late",
            duration=3.0,
            disturbance=DisturbanceSpec("fault", 0.2077, 5.0, 6.0),
        )
        report = run_scenario(cfg, nominal, thresholds)
        assert report.warnings
        assert report.dt1_high is None

    def test_scenario_pinned_thresholds_take_precedence(self, default_cal,
                                                        short_fault_config):
        nominal, thresholds, _, _ = default_cal
        pinned = Thresholds(d_high=1e6, d_low=1e5)
        cfg = replace(short_fault_config, thresholds=pinned)
        report = run_scenario(cfg, nominal, thresholds)
        assert report.thresholds == pinned
        assert report.dt1_high is None  # nothing reaches 1e6


class TestRunSuite:
    def test_rows_and_error_isolation(self, default_cal, tmp_path):
        nominal, thresholds, _, _ = default_cal
        good = write_ini(
            tmp_path, "mini_fault.ini",
            "[run]\nduration = 8.0\n"
            "[disturbance]\nkind = fault\nr_fault_pu = 0.2077\n"
            "t_start = 6.0\nt_end = 7.5\n",
        )
        bad = str(tmp_path / "missing.ini")
        out = str(tmp_path / "suite")
        reports, rows = run_suite([good, bad], nominal, thresholds,
                                  out_dir=out)
        assert reports["mini_fault"] is not None
        assert reports["missing"] is None
        by_name = {(r[0], r[1]): r for r in rows}
        assert by_name[("mini_fault", "rarx")][2] == "detected"
        assert by_name[("missing", "rarx")][2] == "error"
        assert os.path.exists(os.path.join(out, "comparison.csv"))
        assert os.path.exists(
            os.path.join(out, "mini_fault", "report.json"))


class TestCycleAverage:
    def test_50hz_window_is_100_samples(self):
        v = np.zeros((400, 2))
        v[200] = 1.0
        out = _cycle_average(v, 2e-4, 50.0)
        assert np.allclose(out[200:300], 0.01, rtol=0, atol=1e-15)
        assert np.all(out[300:] == 0.0)

    def test_60hz_averages_out_one_cycle(self):
        # 100 samples per cycle at 60 Hz; a fixed 20 ms window would span
        # 1.2 cycles and leave the ripple in
        ts, f = 1.0 / 6000.0, 60.0
        t = np.arange(1200) * ts
        ripple = 0.1 * np.sin(2 * np.pi * f * t)
        v = np.column_stack([1.0 + ripple, ripple])
        out = _cycle_average(v, ts, f)
        assert np.allclose(out[100:], [1.0, 0.0], rtol=0, atol=1e-12)
