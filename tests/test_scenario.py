"""Scenario configuration files, artifact round-trips, and reproducibility
of end-to-end runs."""

import configparser
import filecmp
import json
import os
import shutil
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from gridarx import circuit as circuit_module
from gridarx import rls as rls_module
from gridarx import scenario as scenario_module
from gridarx import simulate as simulate_module
from gridarx.circuit import CircuitParams, full_circuit_model
from gridarx import _kernels
from gridarx.detector import (
    NominalPredictor,
    Signature,
    SignatureLibrary,
    Thresholds,
    Verdict,
    calibrate_thresholds,
    debounce_state,
    distances,
)
from gridarx.pipeline import identify
from gridarx.rls import ArxConfig
from gridarx.scenario import (
    DEFAULT_CAL_WINDOW,
    FLOAT_FMT,
    SCENARIO_SCHEMA,
    BaselineResult,
    Detector,
    RunReport,
    ScenarioConfig,
    StageError,
    _NpyWriter,
    _CycleAverage,
    _write_csv,
    build_library_from_scenarios,
    calibration_from_json,
    calibration_to_json,
    load_scenario,
    run_calibration,
    run_scenario,
    run_suite,
    write_samples_csv,
    write_theta_csv,
)
from gridarx.signals import RbsConfig
from gridarx.simulate import (
    DisturbanceSpec,
    disturbance_start,
    sample_count,
    simulate,
)
from oracles import build_library_numpy, detection_times_numpy, read_theta_csv

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
# a count beyond sys.maxsize, which no C ssize_t holds
HUGE = 99999999999999999999


def write_ini(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_events(run_dir):
    """The events of a run's `events.jsonl`, one dict per line."""
    with open(os.path.join(run_dir, "events.jsonl")) as fh:
        return [json.loads(line) for line in fh]


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
        base = ScenarioConfig()
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

    def test_file_sets_seed_order_forgetting(self, tmp_path):
        """The file is the one source of a run's seed, model order and
        forgetting factor."""
        path = write_ini(tmp_path, "set.ini",
                         "[excitation]\nseed = 9\n"
                         "[identifier]\norder = 2\nforgetting = 0.99\n")
        cfg = load_scenario(path)
        assert cfg.excitation.seed == 9
        assert cfg.identifier.order == 2
        assert cfg.identifier.forgetting == pytest.approx(0.99)

    def test_excitation_disable(self, tmp_path):
        path = write_ini(tmp_path, "noexc.ini",
                         "[excitation]\nenabled = false\n")
        assert load_scenario(path).excitation is None

    @pytest.mark.parametrize("text, where", [
        ("[run]\ndurtion = 1\n",
         "[run] durtion: unknown key; expected one of duration"),
        ("[rnu]\nduration = 1\n", "[rnu]: unknown section; expected one of"),
        ("[DEFAULT]\nduration = 1\n", "[DEFAULT]: unknown section"),
        ("[disturbance]\nkind = fault\nr_fault_ohms = 20\n",
         "[disturbance] r_fault_ohms: unknown key"),
        ("[circuit]\nlf1 = 0.08\n",
         "[circuit] lf1: unknown key; expected one of v_base, s_base"),
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, text, where):
        path = write_ini(tmp_path, "typo.ini", text)
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: {where}")

    @pytest.mark.parametrize("text, where", [
        ("[run]\nduration = abc\n",
         "[run] duration: expected a number, got 'abc'"),
        ("[run]\nnoise_seed = 2.5\n",
         "[run] noise_seed: expected an integer, got '2.5'"),
        ("[excitation]\nenabled = maybe\n",
         "[excitation] enabled: expected true or false"),
        ("[thresholds]\nmode = manual\nd_low = 0.1\n",
         "[thresholds] d_high: mode = manual needs a value"),
        ("[thresholds]\nmode = manual\nd_high = 4.5\n",
         "[thresholds] d_low: mode = manual needs a value"),
        ("[thresholds]\nmode = manul\n",
         "[thresholds] mode: unknown mode 'manul'"),
        ("[thresholds]\nmode = manual\nd_high = 1\nd_low = 2\n",
         "[thresholds] need 0 < d_low < d_high"),
        ("[identifier]\norder = 0\n", "[identifier] order must be >= 1"),
        # a covariance P beyond the address space
        (f"[identifier]\norder = {HUGE}\n",
         f"[identifier] order {HUGE} needs a covariance P of "
         f"{4 * HUGE}**2 float64 values, more than {sys.maxsize} bytes can "
         "address"),
        ("[identifier]\nforgetting = 1.5\n",
         "[identifier] forgetting factor must be in (0, 1], got 1.5"),
        ("[identifier]\np_max = 1\n",
         "[identifier] p_max 1.0 must be >= p0_scale"),
        ("[excitation]\namplitude = -0.1\n",
         "[excitation] amplitude must be positive, got -0.1"),
        ("[circuit]\nr1 = -1\n", "[circuit] r1 must be > 0"),
        ("[circuit]\nr1 = 0\n", "[circuit] r1 must be > 0"),
        ("[excitation]\nchip_rate = 10000\n",
         "[excitation] chip_rate: must be <= the sampling rate 1/ts = "
         "5000.0, got 10000.0"),
        ("[excitation]\nchip_rate = 3000\n",
         "[excitation] chip_rate: must divide the sampling rate 1/ts = "
         "5000.0 into a whole number of samples per chip, got 3000.0 "
         "(1.66667 samples)"),
        ("[run]\nduration = 0\n", "[run] duration: must be > 0, got 0.0"),
        ("[run]\nts = -2e-4\n", "[run] ts: must be > 0, got -0.0002"),
        ("[run]\nhold = 0\n", "[run] hold: must be >= 1, got 0"),
        ("[run]\ncalibration_window = 0\n",
         "[run] calibration_window: must be >= 1, got 0"),
        (f"[run]\nhold = {HUGE}\n",
         f"[run] hold: must be <= {sys.maxsize}, got {HUGE}"),
        (f"[run]\ncalibration_window = {HUGE}\n",
         f"[run] calibration_window: must be <= {sys.maxsize}, got {HUGE}"),
        ("[run]\nnoise_std = -1\n", "[run] noise_std: must be >= 0, got -1.0"),
        ("[run]\nnoise_std = nan\n", "[run] noise_std: must be finite, got 'nan'"),
        ("[run]\nmatch_floor = nan\n",
         "[run] match_floor: must be finite, got 'nan'"),
        ("[run]\nmatch_floor = 5\n",
         "[run] match_floor: must be in [-1, 1], got 5.0"),
        ("[run]\nnoise_seed = -3\n", "[run] noise_seed: must be >= 0, got -3"),
        ("[excitation]\nseed = -1\n", "[excitation] seed must be >= 0, got -1"),
        # a seed of an excitation that does not run would be dropped
        ("[excitation]\nenabled = false\nseed = 3\n",
         "[excitation] seed: ignored unless enabled = true"),
        ("[run]\nlimit_fraction = 0\n",
         "[run] limit_fraction: must be > 0, got 0.0"),
        ("[excitation]\namplitude = nan\n",
         "[excitation] amplitude: must be finite, got 'nan'"),
        ("[identifier]\np0_scale = inf\n",
         "[identifier] p0_scale: must be finite, got 'inf'"),
        ("[run]\nts = inf\n", "[run] ts: must be finite, got 'inf'"),
        ("[run]\nduration = 2\n[disturbance]\nkind = fault\n"
         "r_fault_pu = 0.3\nt_start = -1\nt_end = 1\n",
         "[disturbance] t_start must be >= 0, got -1.0"),
        # finite values whose circuit model overflows
        ("[disturbance]\nkind = fault\nr_fault_ohm = 1e308\n",
         "[disturbance] r_fault_ohm: fault resistance 1.0387811634349031e+306 "
         "p.u.: the circuit model overflows"),
        ("[disturbance]\nkind = fault\nr_fault_pu = 1e306\n",
         "[disturbance] r_fault_pu: fault resistance 1e+306 p.u.: the "
         "circuit model overflows"),
        # `none` is the one spelling of no disturbance
        ("[disturbance]\nkind = off\n",
         "[disturbance] kind: unknown kind 'off'; expected one of fault, "
         "load, none"),
    ])
    def test_bad_value_names_file_section_key(self, tmp_path, text, where):
        path = write_ini(tmp_path, "bad.ini", text)
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: {where}")

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(SCENARIO_DIR) if n.endswith(".ini")))
    def test_shipped_and_rewritten_scenarios_load(self, tmp_path, name):
        """Every shipped file loads, also after a configparser rewrite with
        scaled durations and new seeds, as the benchmark makes them."""
        src = os.path.join(SCENARIO_DIR, name)
        cfg = load_scenario(src)
        parser = configparser.ConfigParser()
        parser.read(src)
        for section, key in (("run", "duration"), ("disturbance", "t_start"),
                             ("disturbance", "t_end")):
            if parser.has_option(section, key):
                parser.set(section, key,
                           repr(parser.getfloat(section, key) * 0.5))
        parser.set("excitation", "seed", "3")
        parser.set("run", "noise_seed", "4")
        path = tmp_path / name
        with open(path, "w") as fh:
            parser.write(fh)
        again = load_scenario(str(path))
        assert again.duration == cfg.duration * 0.5
        assert (again.excitation.seed, again.noise_seed) == (3, 4)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_scenario("/nonexistent/scenario.ini")

    @pytest.mark.parametrize("text, where", [
        ("[thresholds]\nd_high = 4.5\n",
         "[thresholds] d_high: ignored unless mode = manual"),
        ("[thresholds]\nmode = auto\nd_low = 0.03\n",
         "[thresholds] d_low: ignored unless mode = manual"),
        ("[disturbance]\nkind = none\nr_fault_ohm = 20\n",
         "[disturbance] r_fault_ohm: ignored unless kind = fault or load"),
        ("[disturbance]\nt_start = 1.0\n",
         "[disturbance] t_start: ignored unless kind = fault or load"),
        ("[disturbance]\nkind = fault\nr_fault_pu = 0.3\nl_load_pu = 0.35\n",
         "[disturbance] l_load_pu: ignored unless kind = load"),
        ("[disturbance]\nkind = load\nl_load_h = 0.1\nr_fault_ohm = 20\n",
         "[disturbance] r_fault_ohm: ignored unless kind = fault"),
        ("[disturbance]\nkind = fault\nr_fault_pu = 0.3\nr_fault_ohm = 20\n",
         "[disturbance] r_fault_ohm: ignored unless r_fault_pu is unset"),
        ("[disturbance]\nkind = load\nl_load_h = 0.1\nl_load_pu = 0.35\n",
         "[disturbance] l_load_h: ignored unless l_load_pu is unset"),
        ("[excitation]\nenabled = false\namplitude = 0.2\n",
         "[excitation] amplitude: ignored unless enabled = true"),
        ("[excitation]\nseed = 3\nenabled = no\n",
         "[excitation] seed: ignored unless enabled = true"),
    ])
    def test_ignored_key_rejected(self, tmp_path, text, where):
        path = write_ini(tmp_path, "ignored.ini", text)
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: {where}")


# (the file's text, the same value as ScenarioConfig fields, the message
# both give, which the loader prefixes with the file's path)
CONFIG_CHECKS = [
    ("[run]\nduration = 0\n", {"duration": 0.0},
     "[run] duration: must be > 0, got 0.0"),
    ("[run]\nts = -2e-4\n", {"ts": -2e-4},
     "[run] ts: must be > 0, got -0.0002"),
    ("[run]\nnoise_std = -1\n", {"noise_std": -1.0},
     "[run] noise_std: must be >= 0, got -1.0"),
    ("[run]\nnoise_seed = -3\n", {"noise_seed": -3},
     "[run] noise_seed: must be >= 0, got -3"),
    ("[run]\nmatch_floor = 5\n", {"match_floor": 5.0},
     "[run] match_floor: must be in [-1, 1], got 5.0"),
    ("[run]\nmatch_floor = -1.5\n", {"match_floor": -1.5},
     "[run] match_floor: must be in [-1, 1], got -1.5"),
    ("[run]\nhold = 0\n", {"hold": 0}, "[run] hold: must be >= 1, got 0"),
    ("[run]\nlimit_fraction = 0\n", {"limit_fraction": 0.0},
     "[run] limit_fraction: must be > 0, got 0.0"),
    ("[run]\ncalibration_window = 0\n", {"calibration_window": 0},
     "[run] calibration_window: must be >= 1, got 0"),
    # above sys.maxsize: the debounce kernel takes both as a C ssize_t
    (f"[run]\nhold = {HUGE}\n", {"hold": HUGE},
     f"[run] hold: must be <= {sys.maxsize}, got {HUGE}"),
    (f"[run]\ncalibration_window = {HUGE}\n", {"calibration_window": HUGE},
     f"[run] calibration_window: must be <= {sys.maxsize}, got {HUGE}"),
    ("[excitation]\nchip_rate = 10000\n",
     {"excitation": RbsConfig(amplitude=0.1, chip_rate=10000.0, seed=1)},
     "[excitation] chip_rate: must be <= the sampling rate 1/ts = 5000.0, "
     "got 10000.0"),
    ("[run]\nts = 1e-3\n", {"ts": 1e-3},
     "[excitation] chip_rate: must be <= the sampling rate 1/ts = 1000.0, "
     "got 5000.0"),
    ("[run]\nts = 1.5e-4\n", {"ts": 1.5e-4},
     "[excitation] chip_rate: must divide the sampling rate 1/ts = "
     "6666.666666666667 into a whole number of samples per chip, got 5000.0 "
     "(1.33333 samples)"),
    # the baseline's cycle average needs 2 to 10,000 samples per cycle
    ("[circuit]\nf_base = 1e-300\n", {"circuit": CircuitParams(f_base=1e-300)},
     "[circuit] f_base: must be in [0.5, 2500] Hz, 2 to 10000 samples per "
     "cycle at ts = 0.0002, got 1e-300"),
    ("[circuit]\nf_base = 2500.5\n", {"circuit": CircuitParams(f_base=2500.5)},
     "[circuit] f_base: must be in [0.5, 2500] Hz, 2 to 10000 samples per "
     "cycle at ts = 0.0002, got 2500.5"),
    ("[run]\nts = 1e-6\n", {"ts": 1e-6},
     "[circuit] f_base: must be in [100, 500000] Hz, 2 to 10000 samples per "
     "cycle at ts = 1e-06, got 50.0"),
]


class TestScenarioConfigChecks:
    @pytest.mark.parametrize("text, values, message", CONFIG_CHECKS)
    def test_built_in_code_checked_as_loaded(self, tmp_path, text, values,
                                             message):
        with pytest.raises(ValueError) as err:
            ScenarioConfig(**values)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            replace(ScenarioConfig(), **values)
        assert str(err.value) == message
        path = write_ini(tmp_path, "bad.ini", text)
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("key", ["duration", "ts", "noise_std",
                                     "limit_fraction"])
    def test_non_finite_built_in_code_rejected(self, key, value):
        """The loader refuses nan and inf in a file; a config built in code
        refuses them too, before the simulator meets them."""
        message = f"[run] {key}: must be finite, got {value!r}"
        with pytest.raises(ValueError) as err:
            ScenarioConfig(**{key: value})
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            replace(ScenarioConfig(), **{key: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("section, dataclass", [
        ("circuit", CircuitParams), ("excitation", RbsConfig),
        ("identifier", ArxConfig), ("run", ScenarioConfig)])
    def test_schema_keys_are_dataclass_fields(self, section, dataclass):
        """A key is given to its section's dataclass by name; `enabled` is
        the one key that chooses whether [excitation] builds one at all."""
        keys = set(SCENARIO_SCHEMA[section]) - {"enabled"}
        assert keys <= {f.name for f in fields(dataclass)}


class TestCsvRoundTrips:
    def test_samples_exact(self, params, tmp_path):
        sim = simulate(params, None, None, 0.01)
        path = str(tmp_path / "samples.csv")
        write_samples_csv(path, sim)
        with open(path) as fh:
            assert fh.readline() == "t,v_d,v_q,i_d,i_q\n"
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back[:, 0], sim.t)
        assert np.array_equal(back[:, 1:3], sim.v_dq)
        assert np.array_equal(back[:, 3:5], sim.i_dq)

    @pytest.mark.parametrize("rows", [0, 1, 1000])
    def test_writer_bytes_equal_savetxt(self, tmp_path, rows):
        specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e-310,
                    0.1, 2.0**53 + 2]
        rng = np.random.default_rng(rows)
        data = (rng.standard_normal((rows, len(specials)))
                * 10.0 ** rng.integers(-300, 300, (rows, len(specials))))
        if rows:
            data[0], data[-1] = specials, specials[::-1]
        header = ",".join(f"c{k}" for k in range(len(specials)))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        _write_csv(str(got), header, data)
        np.savetxt(str(want), data, fmt=FLOAT_FMT, delimiter=",",
                   header=header, comments="")
        assert got.read_bytes() == want.read_bytes()

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

    @pytest.mark.parametrize("key, value, message", [
        ("d_high", True, "d_high: expected a number, got True"),
        ("d_low", "0.1", "d_low: expected a number, got '0.1'"),
        ("calibrated_at", float("inf"),
         "calibrated_at holds a non-finite value"),
        ("calibration_window", None,
         "calibration_window: expected a number, got None"),
        ("theta_star", [1.0, 2.0],
         "theta_star: expected a 2-D list of numbers, got [1.0, 2.0]"),
        ("theta_star", [[1.0, False]],
         "theta_star: expected a 2-D list of numbers, got False"),
        # integers beyond the float range, which JSON allows
        ("d_high", 10**400, "d_high: int too large to convert to float"),
        ("theta_star", [[1.0, -10**400]],
         "theta_star: int too large to convert to float"),
    ], ids=["d_high_bool", "d_low_string", "calibrated_at_inf",
            "calibration_window_null", "theta_star_1d", "theta_star_bool",
            "d_high_huge_int", "theta_star_huge_int"])
    def test_json_value_names_its_key(self, default_cal, key, value,
                                      message):
        nominal, thresholds, _, config = default_cal
        doc = json.loads(calibration_to_json(nominal, thresholds, config))
        doc[key] = value
        with pytest.raises(ValueError) as err:
            calibration_from_json(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("block, window", [(10**6, 2000), (997, 2000),
                                               (997, 10**6)])
    def test_calibration_is_the_tail_of_the_whole_run(self, monkeypatch,
                                                      block, window):
        """theta* is bitwise the mean of the last `calibration_window`
        calibrated updates of one whole-run identification, and the
        thresholds come from their distances, at any block size; a window
        longer than the calibrated updates takes all of them."""
        cfg = ScenarioConfig(duration=1.0, calibration_window=window)
        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", block)
        nominal, thresholds, state = run_calibration(cfg)
        sim = simulate(cfg.circuit, None, cfg.excitation, cfg.duration,
                       cfg.ts, cfg.noise_std, cfg.noise_seed, cfg.i_op)
        run = identify(sim, cfg.identifier)
        tail = run.theta[run.calibrated][-window:]
        assert nominal.calibration_window == tail.shape[0] == min(
            window, np.count_nonzero(run.calibrated))
        assert np.array_equal(nominal.theta_star, tail.mean(axis=0))
        assert nominal.calibrated_at == run.t[-1]
        assert thresholds == calibrate_thresholds(
            distances(tail, nominal.theta_star))
        assert state.sample_count == run.final_state.sample_count
        assert np.array_equal(state.theta, run.final_state.theta)

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

    @pytest.mark.parametrize("name", ["calibration.ini", "hif_1000ohm.ini"])
    def test_config_echo_lists_every_field(self, name):
        cfg = load_scenario(os.path.join(SCENARIO_DIR, name))
        c, i, e = cfg.circuit, cfg.identifier, cfg.excitation
        d, thr = cfg.disturbance, cfg.thresholds
        want = {
            "name": cfg.name,
            "circuit": {k: getattr(c, k) for k in (
                "v_base", "s_base", "f_base", "r1", "c1", "r2", "l2", "r3",
                "l3")},
            "disturbance": d and {"kind": d.kind, "value_pu": d.value_pu,
                                  "t_start": d.t_start, "t_end": d.t_end},
            "excitation": {"amplitude": e.amplitude,
                           "chip_rate": e.chip_rate, "seed": e.seed},
            "identifier": {"order": i.order, "input_dim": i.input_dim,
                           "output_dim": i.output_dim,
                           "forgetting": i.forgetting,
                           "p0_scale": i.p0_scale,
                           "p_max": i.covariance_ceiling},
            "thresholds": thr and {"d_high": thr.d_high, "d_low": thr.d_low},
            "duration": cfg.duration, "ts": cfg.ts,
            "noise_std": cfg.noise_std, "noise_seed": cfg.noise_seed,
            "i_op": cfg.i_op, "match_floor": cfg.match_floor,
            "hold": cfg.hold, "limit_fraction": cfg.limit_fraction,
            "calibration_window": cfg.calibration_window,
        }
        echo = cfg.echo()
        assert json.dumps(echo, indent=2) == json.dumps(want, indent=2)
        assert cfg.echo() == echo  # echo does not alias the config

    def test_simulate_failure_tagged_in_calibration(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("simulator broke")

        monkeypatch.setattr(scenario_module, "simulate_blocks", broken)
        with pytest.raises(StageError, match=r"^\[simulate\]") as err:
            run_calibration(ScenarioConfig(duration=1.0))
        assert err.value.stage == "simulate"

    def test_library_build_failures_tagged(self, default_cal, monkeypatch):
        nominal, thresholds, _, _ = default_cal
        dist = DisturbanceSpec("fault", 0.2077, 0.5, 0.8)
        # armed at update 2000, 0.4008 s: the library reads the window
        good = ScenarioConfig(duration=1.0, disturbance=dist,
                              calibration_window=2000)

        def broken(*args, **kwargs):
            raise RuntimeError("estimator broke")

        # the stages are looked up as module globals, where tools wrap them
        with monkeypatch.context() as patch:
            patch.setattr(scenario_module, "simulate_blocks", broken)
            with pytest.raises(StageError) as err:
                build_library_from_scenarios([good], nominal, thresholds)
            assert err.value.stage == "simulate"
        monkeypatch.setattr(scenario_module, "identify", broken)
        for call in (lambda: build_library_from_scenarios(
                         [good], nominal, thresholds),
                     lambda: run_calibration(good),
                     lambda: run_scenario(good, nominal, thresholds)):
            with pytest.raises(StageError,
                               match=r"^\[identify\] estimator broke"):
                call()


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

        for fname in RUN_ARTIFACTS:
            assert os.path.exists(os.path.join(out, fname))

        theta = np.load(os.path.join(out, "theta.npy"), allow_pickle=False)
        order = short_fault_config.identifier.order
        t_th, thetas = theta[:, 0], theta[:, 1:].reshape(-1, 2, 4 * order)
        d_disk = np.load(os.path.join(out, "distance.npy"),
                         allow_pickle=False)
        d_at = dict(zip(d_disk[:, 0], d_disk[:, 1]))
        recomputed = np.linalg.norm(thetas - nominal.theta_star, axis=(1, 2))
        for tk, dk in zip(t_th, recomputed):
            assert abs(d_at[tk] - dk) < 1e-12

    def test_npy_artifacts_hold_the_whole_run_bits(
            self, default_cal, short_fault_config, tmp_path):
        """distance.npy and theta.npy load without pickle, under the
        shapes their headers give, as t with the distances of one
        whole-run identify and as t with its every THETA_STRIDE-th
        predictor, bit for bit (compared as uint64)."""
        nominal, thresholds, _, _ = default_cal
        cfg = short_fault_config
        run_scenario(cfg, nominal, thresholds, out_dir=str(tmp_path))
        sim = simulate(cfg.circuit, cfg.disturbance, cfg.excitation,
                       cfg.duration, cfg.ts, cfg.noise_std, cfg.noise_seed,
                       cfg.i_op)
        run = identify(sim, cfg.identifier)
        stride = scenario_module.THETA_STRIDE
        order = cfg.identifier.order
        updates = sample_count(cfg.duration, cfg.ts) - order - 1
        assert run.t.size == updates
        want = {
            "distance.npy": np.column_stack(
                [run.t, distances(run.theta, nominal.theta_star)]),
            "theta.npy": np.column_stack(
                [run.t[::stride], run.theta[::stride].reshape(-1, 8 * order)]),
        }
        assert want["theta.npy"].shape == (-(-updates // stride),
                                           1 + 8 * order)
        for name, rows in want.items():
            got = np.load(tmp_path / name, allow_pickle=False)
            assert got.dtype == np.dtype("<f8"), name
            assert got.shape == rows.shape, name
            assert np.array_equal(got.view(np.uint64),
                                  rows.view(np.uint64)), name

    def test_reruns_byte_identical(self, default_cal, short_fault_config,
                                   tmp_path):
        nominal, thresholds, _, _ = default_cal
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_scenario(short_fault_config, nominal, thresholds, out_dir=out_a)
        run_scenario(short_fault_config, nominal, thresholds, out_dir=out_b)
        for fname in RUN_ARTIFACTS:
            assert filecmp.cmp(os.path.join(out_a, fname),
                               os.path.join(out_b, fname), shallow=False), \
                fname

    def test_fault_trips_and_recovers(self, default_cal, short_fault_config,
                                      tmp_path):
        nominal, thresholds, _, _ = default_cal
        report = run_scenario(short_fault_config, nominal, thresholds,
                              out_dir=str(tmp_path))
        assert report.dt1_high is not None
        assert report.dt1_high < 0.05
        verdicts = [event["verdict"] for event in read_events(tmp_path)]
        assert "fault" in verdicts

    def test_report_json_keys_are_the_fields_in_order(self):
        """report.json is RunReport field for field: its keys are the
        fields in order, the keys under "baseline" are BaselineResult's,
        the thresholds an object of their own and the verdict its value."""
        report = RunReport(
            name="layout", thresholds=Thresholds(d_high=2.0, d_low=1.0),
            dt1_high=0.01, dt1_low=0.005, dt2=None, dt1_high_debounced=0.02,
            dt1_low_debounced=None, final_verdict=Verdict.FAULT,
            transitions=3,
            baseline=BaselineResult(detected=True, first_violation=1.25))
        doc = json.loads(report.to_json())
        assert list(doc) == [f.name for f in fields(RunReport)]
        assert list(doc["baseline"]) == [f.name
                                         for f in fields(BaselineResult)]
        assert doc["baseline"] == {"detected": True, "first_violation": 1.25}
        assert doc["thresholds"] == {"d_high": 2.0, "d_low": 1.0}
        assert doc["final_verdict"] == "fault"
        assert doc["transitions"] == 3

    def test_no_disturbance_stays_normal(self, default_cal):
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(name="quiet", duration=4.0)
        report = run_scenario(cfg, nominal, thresholds)
        assert report.final_verdict is Verdict.NORMAL
        assert report.dt1_high is None
        assert not report.baseline.detected
        # no disturbance is not one that starts after the run
        assert report.warnings == []

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

    @pytest.mark.parametrize("t_start", [2.9998, 3.0])
    def test_run_end_is_where_a_disturbance_stops_starting_inside(
            self, default_cal, t_start):
        """A disturbance that starts one step before the run's end starts
        inside the run; one that starts at the run's end does not. The
        simulator and the report agree on which, and only the second
        warns that it starts at or after the run end."""
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(name="edge", duration=3.0,
                             disturbance=DisturbanceSpec(
                                 "fault", 0.2077, t_start, t_start + 1.0))
        inside = t_start < cfg.duration
        k_on = disturbance_start(cfg.disturbance, cfg.duration, cfg.ts)
        assert (k_on is not None) is inside
        report = run_scenario(cfg, nominal, thresholds)
        if inside:
            # the settled half of the window lies after the run
            assert report.warnings == [
                "no armed update falls in the settle window [3.4998, "
                "3.9998) s; the final verdict is normal by default"]
        else:
            assert report.warnings == [
                "disturbance window starts at or after the run end; "
                "detection delays are reported as never"]

    @pytest.mark.parametrize("disturbance", [
        None, DisturbanceSpec("fault", 0.2077, 3.0, 4.0)],
        ids=["fault-free", "starting-at-run-end"])
    def test_no_disturbance_inside_reports_no_delays(self, default_cal,
                                                     tmp_path, disturbance):
        """The last update falls at t = duration, where a run with no
        disturbance inside it would start and end its window. With the
        pinned 4.5 / 0.03 thresholds its last d is above d_low; no delay
        is reported all the same, in the report or in report.json."""
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(name="quiet", duration=3.0,
                             disturbance=disturbance,
                             thresholds=Thresholds(d_high=4.5, d_low=0.03))
        report = run_scenario(cfg, nominal, thresholds,
                              out_dir=str(tmp_path))
        last_t, last_d = np.load(tmp_path / "distance.npy")[-1]
        assert last_t == cfg.duration and last_d > cfg.thresholds.d_low
        doc = json.loads((tmp_path / "report.json").read_text())
        for key in ("dt1_high", "dt1_low", "dt2", "dt1_high_debounced",
                    "dt1_low_debounced"):
            assert getattr(report, key) is None, key
            assert doc[key] is None, key

    def test_settle_window_after_run_end_warns(self, default_cal, tmp_path):
        """The fault starts inside the run, but the settled half of its
        window, [5.5, 9) s, which the final verdict averages, starts after
        the run: the verdict is normal by default, and says so."""
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(
            name="short",
            duration=3.0,
            disturbance=DisturbanceSpec("fault", 0.2077, 2.0, 9.0),
        )
        report = run_scenario(cfg, nominal, thresholds,
                              out_dir=str(tmp_path))
        assert report.final_verdict is Verdict.NORMAL
        assert report.dt1_high is not None  # the fault itself was seen
        warning = ("no armed update falls in the settle window [5.5, 9) s; "
                   "the final verdict is normal by default")
        assert report.warnings == [warning]
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["warnings"] == [warning]

    def test_scenario_pinned_thresholds_take_precedence(self, default_cal,
                                                        short_fault_config):
        nominal, thresholds, _, _ = default_cal
        pinned = Thresholds(d_high=1e6, d_low=1e5)
        cfg = replace(short_fault_config, thresholds=pinned)
        report = run_scenario(cfg, nominal, thresholds)
        assert report.thresholds == pinned
        assert report.dt1_high is None  # nothing reaches 1e6


class TestRunDelays:
    """A run's reported delays against the numpy masks of
    `oracles.detection_times_numpy` over the armed rows of its own
    distance.npy: the detector is armed from update calibration_window on,
    or from update burn_in - 1, where the estimator's burn-in ends, if that
    comes later, and the first times are taken from there."""

    @pytest.mark.parametrize("t_start, t_end, found, window", [
        (1.5, 2.5, True, DEFAULT_CAL_WINDOW),
        (3.5, 4.5, False, DEFAULT_CAL_WINDOW), (0.004, 0.5, True, 1)],
        ids=["inside", "after-run-end", "window-below-burn-in"])
    def test_delays_equal_oracle_bitwise(self, default_cal, tmp_path,
                                         t_start, t_end, found, window):
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(name="delays", duration=3.0,
                             calibration_window=window,
                             disturbance=DisturbanceSpec(
                                 "fault", 0.2077, t_start, t_end))
        run_scenario(cfg, nominal, thresholds, out_dir=str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        t, d = np.load(tmp_path / "distance.npy").T
        armed = max(cfg.calibration_window, cfg.identifier.burn_in - 1)
        want = detection_times_numpy(t[armed:], d[armed:], t_start, t_end,
                                     thresholds)
        got = tuple(doc[key] for key in ("dt1_high", "dt1_low", "dt2"))
        assert self.bits(got) == self.bits(want)
        if found:
            assert got[0] is not None and got[1] is not None
        else:
            assert got == (None, None, None)
            assert doc["dt1_high_debounced"] is None
            assert doc["dt1_low_debounced"] is None

    @staticmethod
    def bits(delays):
        return [None if v is None else int(np.float64(v).view(np.uint64))
                for v in delays]


# The run of `block_edge_config` has 35,001 samples, the disturbance on at
# sample 24,004 and off at 32,004. Each simulator block is identified with
# the last order + 1 = 4 samples of the stream before it prepended, so the
# first update of the block from sample k is update k - 4. Of the block
# sizes, 3 is shorter than those 4 samples and puts an edge on the switch
# off; 4 puts edges on both switches, on both settle-window edges and on
# the arming update, and leaves a 1-sample final block; 999 = -1 mod 50
# puts them on most offsets from the theta.npy rows; 8001 puts one on the
# switch off and 24004 on the switch on; the last is one block for the
# whole run, the reference.
SETTLE_UPDATES = 4000
BLOCK_SIZES = [3, 4, 999, 8001, 24004, 10**6]
RUN_ARTIFACTS = ("samples.npy", "distance.npy", "theta.npy", "events.jsonl",
                 "report.json")


@pytest.fixture(scope="module")
def block_edge_config():
    """A fault run whose settle window runs from update
    7 * SETTLE_UPDATES up to update 8 * SETTLE_UPDATES: each edge sits half
    a sample before the time of its update."""
    cfg = ScenarioConfig(name="block_edges", duration=7.0,
                         calibration_window=4996)
    first = cfg.identifier.order + 1  # sample index of update 0
    t_mid = (7 * SETTLE_UPDATES + first - 0.5) * cfg.ts
    half = SETTLE_UPDATES * cfg.ts
    return replace(cfg, disturbance=DisturbanceSpec(
        "fault", 0.2077, t_mid - half, t_mid + half))


@pytest.fixture(scope="module")
def block_runs(default_cal, block_edge_config, tmp_path_factory):
    """The run artifacts and the library JSON at each block size."""
    nominal, thresholds, _, _ = default_cal
    root = tmp_path_factory.mktemp("blocks")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for block in BLOCK_SIZES:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", block)
            library = build_library_from_scenarios(
                [block_edge_config], nominal, thresholds)
            run_dir = str(root / str(block))
            run_scenario(block_edge_config, nominal, thresholds, library,
                         out_dir=run_dir)
            out[block] = (run_dir, library.to_json())
    return out


class TestBlockSize:
    """Streaming a run in blocks must not change a byte of its outputs."""

    def test_block_edges_land_where_intended(self, block_edge_config,
                                             block_runs):
        run_dir, _ = block_runs[BLOCK_SIZES[-1]]
        t = np.load(os.path.join(run_dir, "distance.npy"),
                    allow_pickle=False)[:, 0]
        cfg = block_edge_config
        dist = cfg.disturbance
        settle = ((dist.t_start + dist.t_end) / 2.0, dist.t_end)
        assert np.searchsorted(t, settle).tolist() == [7 * SETTLE_UPDATES,
                                                       8 * SETTLE_UPDATES]
        assert t.size > 8 * SETTLE_UPDATES
        first = cfg.identifier.order + 1
        n = sample_count(cfg.duration, cfg.ts)
        k_on = disturbance_start(dist, cfg.duration, cfg.ts)
        k_off = int(round(dist.t_end / cfg.ts))
        assert (n, k_on, k_off) == (35001, 24004, 32004)
        assert BLOCK_SIZES[0] < first

        def edges(k):
            return [k % b == 0 for b in BLOCK_SIZES]

        assert edges(k_on) == [False, True, False, False, True, False]
        assert edges(k_off) == [True, True, False, True, False, False]
        for update in (cfg.calibration_window, 7 * SETTLE_UPDATES,
                       8 * SETTLE_UPDATES):
            assert edges(update + first)[1], update
        stride = scenario_module.THETA_STRIDE
        assert BLOCK_SIZES[2] % stride == stride - 1
        assert n % BLOCK_SIZES[1] == 1

    @pytest.mark.parametrize("name", ["report.json", "distance.npy",
                                      "theta.npy", "events.jsonl",
                                      "samples.npy"])
    def test_run_artifacts_equal_across_block_sizes(self, block_runs, name):
        whole = os.path.join(block_runs[BLOCK_SIZES[-1]][0], name)
        for block in BLOCK_SIZES[:-1]:
            got = os.path.join(block_runs[block][0], name)
            assert filecmp.cmp(got, whole, shallow=False), (name, block)

    def test_library_equal_across_block_sizes(self, block_runs):
        whole = block_runs[BLOCK_SIZES[-1]][1]
        for block in BLOCK_SIZES[:-1]:
            assert block_runs[block][1] == whole, block

    def test_events_are_the_transitions(self, default_cal, block_edge_config,
                                        block_runs):
        """events.jsonl is the one record of a run's transitions: at each
        block size it has report.json's `transitions` lines, whose (t,
        verdict) pairs are those `Detector.push` gives for the whole run."""
        nominal, thresholds, _, _ = default_cal
        cfg = block_edge_config
        run = identify(simulate(
            cfg.circuit, cfg.disturbance, cfg.excitation, cfg.duration,
            cfg.ts, cfg.noise_std, cfg.noise_seed, cfg.i_op), cfg.identifier)
        library = SignatureLibrary.from_json(block_runs[BLOCK_SIZES[-1]][1])
        _, changes = Detector(cfg, nominal, thresholds, library).push(run)
        want = [(t, verdict) for t, verdict, _ in changes]
        assert [verdict for _, verdict in want] == ["normal", "fault"]
        for block in BLOCK_SIZES:
            run_dir = block_runs[block][0]
            events = read_events(run_dir)
            with open(os.path.join(run_dir, "report.json")) as fh:
                assert json.load(fh)["transitions"] == len(events), block
            assert [(e["t"], e["verdict"]) for e in events] == want, block


class TestRunMemory:
    """A run holds its blocks and what it keeps, not its whole stream: its
    tracemalloc peak depends on the block size and the disturbance
    window, not on its length. Blocks of MEMORY_BLOCK put a dozen blocks
    into the short run, so both runs reach their steady state."""

    MEMORY_BLOCK = 2048

    def peaks(self, call, values):
        """tracemalloc peak of `call(value)` for each value, the smaller
        first."""
        peaks = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", self.MEMORY_BLOCK)
            for value in values:
                tracemalloc.start()
                try:
                    call(value)
                    peaks[value] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        return peaks

    @staticmethod
    def fault(t_end, duration=8.0):
        return ScenarioConfig(name="memory", duration=duration,
                              disturbance=DisturbanceSpec("fault", 0.2077,
                                                          2.0, t_end))

    def test_peak_independent_of_run_length(self, default_cal, tmp_path):
        nominal, thresholds, _, _ = default_cal
        base = ScenarioConfig(name="memory", disturbance=DisturbanceSpec(
            "fault", 0.2077, 2.0, 3.0))
        peaks = self.peaks(lambda duration: run_scenario(
            replace(base, duration=duration), nominal, thresholds,
            out_dir=str(tmp_path / str(duration))), (4.0, 16.0))
        assert abs(peaks[16.0] / peaks[4.0] - 1.0) <= 0.05, peaks

    def test_calibration_peak_independent_of_run_length(self):
        peaks = self.peaks(lambda duration: run_calibration(
            ScenarioConfig(duration=duration)), (4.0, 16.0))
        assert abs(peaks[16.0] / peaks[4.0] - 1.0) <= 0.05, peaks

    def test_fault_free_peak_independent_of_run_length(self, default_cal,
                                                       tmp_path):
        """The final verdict of a run without a disturbance averages the
        second half of the run, as a running sum."""
        nominal, thresholds, _, _ = default_cal
        peaks = self.peaks(lambda duration: run_scenario(
            ScenarioConfig(name="memory", duration=duration), nominal,
            thresholds, out_dir=str(tmp_path / str(duration))), (4.0, 16.0))
        assert abs(peaks[16.0] / peaks[4.0] - 1.0) <= 0.05, peaks

    def test_peak_independent_of_window_length(self, default_cal, tmp_path):
        """A 1 s and a 4 s disturbance window: the final verdict averages
        the settled half of the window as a running sum."""
        nominal, thresholds, _, _ = default_cal
        peaks = self.peaks(lambda t_end: run_scenario(
            self.fault(t_end), nominal, thresholds,
            out_dir=str(tmp_path / str(t_end))), (3.0, 6.0))
        assert abs(peaks[6.0] / peaks[3.0] - 1.0) <= 0.05, peaks

    def test_suite_peak_independent_of_disturbance_start(self, default_cal,
                                                         tmp_path):
        """A suite of a fault and a load of one seed, both from 2 s and
        both from 6 s of 8 s: no run keeps what comes before its
        disturbance for the next."""
        nominal, thresholds, _, _ = default_cal

        def suite(t_start):
            paths = [write_ini(tmp_path, f"{kind}_{t_start:g}.ini", (
                f"[run]\nduration = 8.0\n[disturbance]\nkind = {kind}\n"
                f"{key} = {value}\nt_start = {t_start}\n"
                f"t_end = {t_start + 1.0}\n"))
                for kind, key, value in (("fault", "r_fault_pu", 0.2077),
                                         ("load", "l_load_pu", 0.35))]
            run_suite(paths, nominal, thresholds,
                      out_dir=str(tmp_path / f"suite_{t_start:g}"))

        peaks = self.peaks(suite, (2.0, 6.0))
        assert abs(peaks[6.0] / peaks[2.0] - 1.0) <= 0.05, peaks

    def test_library_peak_independent_of_window_length(self, default_cal):
        """A 1 s and a 4 s disturbance window: the library build keeps the
        window's largest distance and the settled half's running sum, not
        the window's rows."""
        nominal, thresholds, _, _ = default_cal
        peaks = self.peaks(lambda t_end: build_library_from_scenarios(
            [self.fault(t_end)], nominal, thresholds), (3.0, 6.0))
        assert abs(peaks[6.0] / peaks[3.0] - 1.0) <= 0.05, peaks


class TestWholeFileWrites:
    """calibration.json, library.json and comparison.csv are written as a
    run's artifacts are, under a temporary name moved into place once
    whole: a write that fails part way, as on a full disk, raises its own
    OSError and leaves the earlier file's bytes and no `.partial` file."""

    def fail_write(self, monkeypatch, name):
        """The write of `name` puts half its bytes in the file, then raises
        OSError("disk full")."""
        opened = scenario_module._ArtifactFiles.open

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                self.fh.flush()
                raise OSError("disk full")

        def open_half(files, what):
            fh = opened(files, what)
            return HalfWritten(fh) if what == name else fh

        monkeypatch.setattr(scenario_module._ArtifactFiles, "open",
                            open_half)

    def check(self, monkeypatch, out, name, write):
        """`write(0)` writes `name` in `out`, and `write(1)` other bytes,
        through the failing write."""
        write(0)
        before = (out / name).read_bytes()
        self.fail_write(monkeypatch, name)
        with pytest.raises(OSError, match="^disk full$"):
            write(1)
        assert os.listdir(out) == [name]
        assert (out / name).read_bytes() == before

    def test_calibration(self, tmp_path, monkeypatch):
        config = ScenarioConfig(duration=1.0)
        self.check(monkeypatch, tmp_path, "calibration.json",
                   lambda k: run_calibration(
                       replace(config, noise_seed=2 + k),
                       out_dir=str(tmp_path)))
        fresh = tmp_path / "fresh"
        with pytest.raises(OSError, match="^disk full$"):
            run_calibration(config, out_dir=str(fresh))
        assert not fresh.exists()

    def test_comparison(self, default_cal, tmp_path, monkeypatch):
        """Scenario files that are missing give a table of error rows."""
        nominal, thresholds, _, _ = default_cal
        out = tmp_path / "suite"
        self.check(monkeypatch, out, "comparison.csv",
                   lambda k: run_suite([str(tmp_path / f"missing_{k}.ini")],
                                       nominal, thresholds,
                                       out_dir=str(out)))

    def test_library(self, default_cal, tmp_path, monkeypatch, capsys):
        from gridarx.cli import main

        nominal, thresholds, _, config = default_cal
        calibration = tmp_path / "calibration.json"
        calibration.write_text(calibration_to_json(nominal, thresholds,
                                                   config))
        out = tmp_path / "lib"

        def build(k):
            ini = write_ini(tmp_path, f"fault_{k}.ini", (
                f"[run]\nduration = 3.0\nnoise_seed = {2 + k}\n"
                "[disturbance]\nkind = fault\nr_fault_pu = 0.2077\n"
                "t_start = 1.0\nt_end = 2.0\n"))
            rc = main(["build-library", "--config", ini, "--calibration",
                       str(calibration), "--out", str(out)])
            err = capsys.readouterr().err
            if rc:  # the failed write's exit, passed on to `check`
                assert (rc, err) == (2, "error: disk full\n")
                raise OSError("disk full")

        self.check(monkeypatch, out, "library.json", build)


class TestFailedRun:
    """A run that fails part way leaves no partial artifact: its files are
    written under temporary names and moved into place only once it has
    succeeded."""

    def fail_in_block(self, monkeypatch, k):
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == k:
                raise RuntimeError("estimator broke")
            return identify(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "identify", failing)
        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", 2000)

    def test_nothing_left_in_a_fresh_directory(self, default_cal,
                                               short_fault_config, tmp_path,
                                               monkeypatch):
        nominal, thresholds, _, _ = default_cal
        self.fail_in_block(monkeypatch, 3)
        out = tmp_path / "run"
        with pytest.raises(StageError, match=r"^\[identify\] estimator "
                                             r"broke \(block from update "
                                             r"3996\)"):
            run_scenario(short_fault_config, nominal, thresholds,
                         out_dir=str(out))
        assert not out.exists()

    def test_earlier_artifacts_stay_whole(self, default_cal,
                                          short_fault_config, tmp_path,
                                          monkeypatch):
        nominal, thresholds, _, _ = default_cal
        out = tmp_path / "run"
        run_scenario(short_fault_config, nominal, thresholds,
                     out_dir=str(out))
        before = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}
        self.fail_in_block(monkeypatch, 3)
        with pytest.raises(StageError):
            run_scenario(replace(short_fault_config, noise_seed=9), nominal,
                         thresholds, out_dir=str(out))
        assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
        for name in RUN_ARTIFACTS:
            assert (out / name).read_bytes() == before[name], name

    def test_writer_error_raised_with_its_type_and_message(
            self, default_cal, short_fault_config, tmp_path, monkeypatch):
        """The `.npy` writer's exception reaches the caller as it was raised;
        the run leaves no artifact or temporary file, and an earlier run's
        artifacts stay whole."""
        nominal, thresholds, _, _ = default_cal
        out = tmp_path / "run"
        run_scenario(short_fault_config, nominal, thresholds,
                     out_dir=str(out))
        before = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}

        def disk_full(writer, data):
            raise OSError("disk full")

        monkeypatch.setattr(_NpyWriter, "write", disk_full)
        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", 2000)
        for where in (out, tmp_path / "fresh"):
            with pytest.raises(OSError) as err:
                run_scenario(replace(short_fault_config, noise_seed=9),
                             nominal, thresholds, out_dir=str(where))
            assert type(err.value) is OSError
            assert str(err.value) == "disk full"
            # raised on its own: no failed send's frames hang on to it
            assert err.value.__context__ is None
        assert not (tmp_path / "fresh").exists()
        assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
        for name in RUN_ARTIFACTS:
            assert (out / name).read_bytes() == before[name], name

    def test_clamp_error_fails_the_identify_stage(self, default_cal,
                                                  tmp_path, monkeypatch):
        """An exception of the spectral clamp, which the kernel calls
        back in Python, fails the run in its identify stage as the cause
        of a StageError, and the run writes nothing. p_max = p0_scale puts
        P above the ceiling at the first check."""
        nominal, thresholds, _, _ = default_cal
        error = ArithmeticError("clamp broke")

        def broken(ceiling, P):
            raise error

        monkeypatch.setattr(rls_module, "_clamp", broken)
        cfg = ScenarioConfig(name="clamp", duration=1.0,
                             identifier=ArxConfig(p_max=1e4))
        out = tmp_path / "run"
        with pytest.raises(StageError, match=r"^\[identify\] clamp broke "
                                             r"\(block from update 0\)$"
                           ) as err:
            run_scenario(cfg, nominal, thresholds, out_dir=str(out))
        assert err.value.stage == "identify"
        assert err.value.__cause__ is error
        assert not out.exists()

    def test_nan_snapshot_fails_the_detector_stage(
            self, default_cal, short_fault_config, tmp_path, monkeypatch):
        """A NaN in the predictor trajectory has no verdict: the run fails
        in its detector stage, naming the snapshot, and writes nothing."""
        nominal, thresholds, _, _ = default_cal
        calls = []

        def nan_in_block_2(*args, **kwargs):
            run = identify(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                run.theta[5, 1, 7] = np.nan
            return run

        monkeypatch.setattr(scenario_module, "identify", nan_in_block_2)
        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", 2000)
        out = tmp_path / "run"
        with pytest.raises(StageError, match=r"^\[detector\] snapshot 5 "
                                             r"holds a NaN.* \(block from "
                                             r"update 1996\)$") as err:
            run_scenario(short_fault_config, nominal, thresholds,
                         out_dir=str(out))
        assert err.value.stage == "detector"
        assert not out.exists()


class TestModelOrder:
    """A calibration or library of another model order than the run's is
    rejected before anything is simulated, with both orders named."""

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(scenario_module, "simulate_blocks", refuse)

    def test_library_of_another_order(self, default_cal, no_simulation,
                                      tmp_path):
        nominal, thresholds, _, _ = default_cal
        with pytest.raises(ValueError, match="library is of model order 2, "
                                             "but the run's model order is "
                                             "3"):
            run_scenario(ScenarioConfig(duration=1.0), nominal, thresholds,
                         SignatureLibrary(order=2),
                         out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_calibration_of_another_order(self, default_cal, no_simulation):
        nominal, thresholds, _, _ = default_cal
        config = ScenarioConfig(duration=1.0,
                                identifier=ArxConfig(order=2))
        with pytest.raises(ValueError, match=r"shape \(2, 12\) \(model "
                                             r"order 3\), but the run's "
                                             r"model order is 2"):
            run_scenario(config, nominal, thresholds)

    def test_zero_dimensional_nominal_named(self, no_simulation):
        """A theta* of no dimension has no model order to name; its shape
        is named all the same."""
        nominal = NominalPredictor(np.zeros(()), 1, 0.0)
        with pytest.raises(ValueError, match=r"shape \(\), but the run's "
                                             r"model order is 3"):
            Detector(ScenarioConfig(), nominal, Thresholds(1.0, 0.1))

    def test_library_build_of_an_empty_settled_half(self, default_cal,
                                                     no_simulation):
        """Every scenario is checked before the first one is simulated: the
        second one's settled half holds no update of its run, so no armed
        one."""
        nominal, thresholds, _, _ = default_cal
        good = ScenarioConfig(name="good", duration=3.0,
                              disturbance=DisturbanceSpec(
                                  "fault", 0.2077, 2.0, 3.0))
        short = replace(good, name="short", disturbance=DisturbanceSpec(
            "fault", 0.2077, 2.0, 9.0))
        with pytest.raises(ValueError, match=r"^scenario 'short': no armed "
                           r"update of the run \(3 s\) falls in the settled "
                           r"half \[5\.5, 9\) s"):
            build_library_from_scenarios([good, short], nominal, thresholds)

    def test_library_build_of_another_order(self, default_cal,
                                            no_simulation):
        """Every scenario is checked before the first one is simulated."""
        nominal, thresholds, _, _ = default_cal
        dist = DisturbanceSpec("fault", 0.2077, 0.5, 0.8)
        good = ScenarioConfig(duration=1.0, disturbance=dist,
                              calibration_window=2000)
        other = replace(good, identifier=ArxConfig(order=2))
        with pytest.raises(ValueError, match=r"shape \(2, 12\) \(model "
                                             r"order 3\), but the run's "
                                             r"model order is 2"):
            build_library_from_scenarios([good, other], nominal, thresholds)

    def test_library_build_of_no_scenarios(self, default_cal, no_simulation):
        """No scenario gives no library, not one of no model order."""
        nominal, thresholds, _, _ = default_cal
        with pytest.raises(ValueError,
                           match="^no scenarios to build a library from$"):
            build_library_from_scenarios([], nominal, thresholds)


class TestLibraryArming:
    """A library signs a run's armed updates only, those its detector
    reads: from update max(calibration_window, burn_in - 1) on."""

    def test_window_straddling_arming_signs_its_armed_rows(self,
                                                            default_cal):
        """The window [0.2, 1.4) s and its settled half [0.8, 1.4) s both
        start before the detector arms at update 5000 (1.0008 s): the
        signature is the numpy oracle's over the armed rows."""
        nominal, thresholds, _, _ = default_cal
        cfg = ScenarioConfig(name="straddle", duration=1.6,
                             disturbance=DisturbanceSpec(
                                 "fault", 0.2077, 0.2, 1.4))
        armed = max(cfg.calibration_window, cfg.identifier.burn_in - 1)
        run = identify(simulate(
            cfg.circuit, cfg.disturbance, cfg.excitation, cfg.duration,
            cfg.ts, cfg.noise_std, cfg.noise_seed, cfg.i_op), cfg.identifier)
        assert 0.8 < run.t[armed] < 1.4
        library = build_library_from_scenarios([cfg], nominal, thresholds)

        def oracle(first):
            return build_library_numpy(
                [(Verdict.FAULT, run.t[first:], run.theta[first:], 0.2, 1.4,
                  "straddle")], nominal, thresholds, cfg.identifier.order)

        assert library.to_json() == oracle(armed).to_json()
        assert library.to_json() != oracle(0).to_json()


# Short runs: 1 s with the disturbance from 0.5 s, so samples [0, 2500)
# come before it. Blocks of START_BLOCK = 2500 / 4 samples put a block edge
# exactly there, blocks of OFF_EDGE_BLOCK the last edge before it at sample
# 2499, and blocks of LIBRARY_BLOCK an edge two samples past it, inside the
# window the library reads. The detector arms at update 500, and the
# pinned thresholds give every verdict before the disturbance starts.
START_BLOCK = 625
OFF_EDGE_BLOCK = 7
LIBRARY_BLOCK = (4 * START_BLOCK + 2) // 2
BASE_INI = """\
[run]
duration = 1.0
calibration_window = 500
noise_seed = 2
[disturbance]
kind = fault
r_fault_pu = 0.2077
t_start = 0.5
t_end = 0.75
[excitation]
amplitude = 0.1
seed = 1
[identifier]
order = 3
forgetting = 0.999
[thresholds]
mode = manual
d_high = 0.25
d_low = 0.1
"""

# (variant, line replaced in BASE_INI, its replacement): the base run's
# suite neighbours, one key of each section changed. The noise seed, the
# duration and the sample time change where the current noise starts,
# which the simulator keeps across runs.
VARIANTS = [
    ("kind", "kind = fault\nr_fault_pu = 0.2077",
     "kind = load\nl_load_pu = 0.35"),
    ("value", "r_fault_pu = 0.2077", "r_fault_pu = 0.5"),
    ("t_end", "t_end = 0.75", "t_end = 0.9"),
    ("thresholds", "mode = manual\nd_high = 0.25\nd_low = 0.1",
     "mode = auto"),
    ("match_floor", "[run]\n", "[run]\nmatch_floor = 0.0\n"),
    ("hold", "[run]\n", "[run]\nhold = 7\n"),
    ("calibration_window", "calibration_window = 500",
     "calibration_window = 1500"),
    ("noise_seed", "noise_seed = 2", "noise_seed = 3"),
    ("excitation_seed", "seed = 1", "seed = 4"),
    ("amplitude", "amplitude = 0.1", "amplitude = 0.12"),
    ("forgetting", "forgetting = 0.999", "forgetting = 0.998"),
    ("order", "order = 3", "order = 2"),
    ("duration", "duration = 1.0", "duration = 1.1"),
    ("ts", "[run]\n", "[run]\nts = 1e-4\n"),
    ("t_start", "t_start = 0.5", "t_start = 0.55"),
    ("circuit", "[excitation]", "[circuit]\nr1 = 2.1\n[excitation]"),
]
CHANGES = {name: (old, new) for name, old, new in VARIANTS}


def base_ini(root, path, change=None):
    """BASE_INI with one line replaced, written to root / path."""
    text = BASE_INI
    if change is not None:
        old, new = change
        assert old in text, old
        text = text.replace(old, new, 1)
    full = root / path
    full.parent.mkdir(parents=True, exist_ok=True)
    full.write_text(text)
    return str(full)


def random_library(seed=8):
    """Two unit signatures in random directions: in-band rows match one of
    them with a similarity spread around 0."""
    rng = np.random.default_rng(seed)
    signatures = []
    for label in (Verdict.FAULT, Verdict.LOAD_INCREASE):
        vec = rng.standard_normal((2, 12))
        signatures.append(Signature(label, vec / np.linalg.norm(vec)))
    return SignatureLibrary(order=3, signatures=signatures)


def counting_suite(paths, nominal, thresholds, library, out_dir,
                   block=START_BLOCK):
    """run_suite in blocks of `block` samples with the updates each run
    passes to `identify` counted: (reports, [(scenario name, updates
    identified)])."""
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "SIMULATE_BLOCK", block)

        def counted_identify(*args, **kwargs):
            run = identify(*args, **kwargs)
            counts[-1][1] += run.t.size
            return run

        def counted_run(config, *args, **kwargs):
            counts.append([config.name, 0])
            return run_scenario(config, *args, **kwargs)

        mp.setattr(scenario_module, "identify", counted_identify)
        mp.setattr(scenario_module, "run_scenario", counted_run)
        reports, _ = run_suite(paths, nominal, thresholds, library,
                               out_dir=out_dir)
    return reports, [tuple(c) for c in counts]


def lone_run(path, nominal, thresholds, library, out_dir):
    """`path` run on its own, outside any suite, in blocks of START_BLOCK
    samples; the message of the StageError or ValueError it raises, else
    None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "SIMULATE_BLOCK", START_BLOCK)
        try:
            run_scenario(load_scenario(path), nominal, thresholds, library,
                         out_dir=out_dir)
        except (StageError, ValueError) as exc:
            return str(exc)
    return None


def assert_same_artifacts(got_dir, want_dir):
    for name in RUN_ARTIFACTS:
        assert filecmp.cmp(os.path.join(got_dir, name),
                           os.path.join(want_dir, name), shallow=False), \
            (got_dir, name)


def updates_of(config):
    return int(round(config.duration / config.ts)) + 1 - \
        (config.identifier.order + 1)


def library_updates(config, block):
    """The updates the library build identifies of `config` in blocks of
    `block` samples: those of the blocks up to the one holding the first
    update at or after the disturbance end, or all of them when no update
    comes that late."""
    n = sample_count(config.duration, config.ts)
    first = config.identifier.order + 1  # sample index of update 0
    end = int(np.searchsorted(np.arange(n) * config.ts,
                              config.disturbance.t_end))
    return min(n, (max(first, end) // block + 1) * block) - first


def counting_library(configs, nominal, thresholds, block):
    """build_library_from_scenarios in blocks of `block` samples with the
    updates identified for each scenario counted: (library, [(scenario
    name, updates identified)])."""
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "SIMULATE_BLOCK", block)
        simulate_identify = scenario_module._simulate_identify

        def counted_stream(config, *args, **kwargs):
            counts.append([config.name, 0])
            return simulate_identify(config, *args, **kwargs)

        def counted_identify(*args, **kwargs):
            run = identify(*args, **kwargs)
            counts[-1][1] += run.t.size
            return run

        mp.setattr(scenario_module, "_simulate_identify", counted_stream)
        mp.setattr(scenario_module, "identify", counted_identify)
        library = build_library_from_scenarios(configs, nominal, thresholds)
    return library, [tuple(c) for c in counts]


class TestLibraryStopsAtWindowEnd:
    """The library build reads only the disturbance window of each run, so
    it leaves each stream after the block that passes the window's end."""

    # 10**6: one block, which holds the whole run
    @pytest.mark.parametrize("block", [OFF_EDGE_BLOCK, START_BLOCK,
                                       LIBRARY_BLOCK, 10**6])
    def test_identifies_up_to_the_block_passing_t_end(self, default_cal,
                                                      tmp_path, block):
        nominal, thresholds, _, _ = default_cal
        config = load_scenario(base_ini(tmp_path, "base.ini"))
        _, counts = counting_library([config], nominal, thresholds, block)
        assert counts == [("base", library_updates(config, block))]
        if block < 10**6:
            assert counts[0][1] < updates_of(config)

    @pytest.mark.parametrize("block", [OFF_EDGE_BLOCK, START_BLOCK,
                                       LIBRARY_BLOCK])
    def test_later_scenarios_stop_at_their_own_window_end(
            self, default_cal, tmp_path, block):
        """The base stream stops after its window, past the disturbance
        start; each later stream still identifies from its own first
        update up to the block passing its own window's end, the one with
        the later t_end past the point where the base stream stopped, and
        the library holds the signatures of the three built alone."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(base_ini(tmp_path, "base.ini"))]
        configs += [load_scenario(base_ini(tmp_path, f"{name}.ini",
                                           CHANGES[name]))
                    for name in ("kind", "t_end")]
        library, counts = counting_library(configs, nominal, thresholds,
                                           block)
        assert counts == [(config.name, library_updates(config, block))
                          for config in configs]
        assert library_updates(configs[0], block) < \
            library_updates(configs[2], block)
        alone = [build_library_from_scenarios([c], nominal, thresholds)
                 for c in configs]
        assert library.to_json() == SignatureLibrary(
            order=3, signatures=[lib.signatures[0] for lib in alone]
        ).to_json()

    def test_window_reaching_the_run_end_identifies_every_update(
            self, default_cal, tmp_path):
        nominal, thresholds, _, _ = default_cal
        config = load_scenario(base_ini(tmp_path, "long.ini",
                                         ("t_end = 0.75", "t_end = 1.2")))
        _, counts = counting_library([config], nominal, thresholds,
                                     START_BLOCK)
        assert counts == [("long", updates_of(config))]

    @pytest.mark.parametrize("block", [OFF_EDGE_BLOCK, LIBRARY_BLOCK])
    def test_signatures_equal_build_library_on_a_full_pass(
            self, default_cal, tmp_path, block):
        """The oracle simulates and identifies each run whole, and takes
        the array form's np.max and np.mean over every row of it
        (`build_library_numpy`)."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(base_ini(tmp_path, "base.ini")),
                   load_scenario(base_ini(tmp_path, "load.ini",
                                           CHANGES["kind"]))]
        library, _ = counting_library(configs, nominal, thresholds, block)
        runs = []
        for config in configs:
            dist = config.disturbance
            sim = simulate(config.circuit, dist, config.excitation,
                           config.duration, config.ts, config.noise_std,
                           config.noise_seed, config.i_op)
            run = identify(sim, config.identifier)
            label = (Verdict.FAULT if dist.kind == "fault"
                     else Verdict.LOAD_INCREASE)
            runs.append((label, run.t, run.theta, dist.t_start, dist.t_end,
                         config.name))
        want = build_library_numpy(runs, nominal, thresholds, 3)
        assert library.to_json() == want.to_json()

    def test_stopped_streams_are_closed(self, default_cal, tmp_path):
        """No simulator of a stream left early is still alive when the
        next run's stream is made, or after the call: each stream was
        closed where it stopped."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(base_ini(tmp_path, "base.ini")),
                   load_scenario(base_ini(tmp_path, "load.ini",
                                           CHANGES["kind"]))]
        simulators, alive = [], []
        simulate_blocks = scenario_module.simulate_blocks

        def tracked(*args, **kwargs):
            alive.append([ref() is not None for ref in simulators])
            blocks = simulate_blocks(*args, **kwargs)
            simulators.append(weakref.ref(blocks))
            return blocks

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "simulate_blocks", tracked)
            build_library_from_scenarios(configs, nominal, thresholds)
        alive.append([ref() is not None for ref in simulators])
        assert alive == [[], [False], [False, False]]


class TestVerdictTimeline:
    @pytest.mark.parametrize("m", [0, 1, 200])
    def test_transitions_match_loop(self, m):
        """The transitions the kernel marks, at hold 1 (the codes as
        given), against a loop over the verdicts."""
        rng = np.random.default_rng(m)
        t = np.arange(m) * 2e-4
        members = list(Verdict)
        codes = rng.choice(4, m, p=[0.7, 0.1, 0.1, 0.1])
        verdicts = [members[k] for k in codes]
        want, prev = [], None
        for tk, v in zip(t, verdicts):  # the per-snapshot reference loop
            if v != prev:
                want.append((float(tk), v.value))
                prev = v
        _, at = _kernels.debounce_block(codes, 1, debounce_state(), 0, None,
                                        None, None, None)
        assert [(t[k], members[codes[k]].value) for k in at] == want


class TestRunHoldsOneBlock:
    """A run lets go of each block before it identifies the next: the
    IdentRun of block k, and its predictor trajectory, are dead once block
    k + 1 is identified, in a run, a calibration and a library build."""

    BLOCK = 500

    def runs_alive(self, monkeypatch, call):
        """Call `call()` with `identify` wrapped: at each block's identify
        call, whether each earlier block's IdentRun or trajectory is still
        alive; and how many blocks were identified."""
        refs, alive = [], []

        def tracked(*args, **kwargs):
            alive.extend(ref() is not None for ref in refs)
            run = identify(*args, **kwargs)
            refs[:] = [weakref.ref(run), weakref.ref(run.theta)]
            return run

        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", self.BLOCK)
        monkeypatch.setattr(scenario_module, "identify", tracked)
        call()
        return alive

    def test_run_scenario(self, default_cal, tmp_path, monkeypatch):
        nominal, thresholds, _, _ = default_cal
        config = ScenarioConfig(name="one_block", duration=1.0,
                                disturbance=DisturbanceSpec(
                                    "fault", 0.2077, 0.4, 0.8))
        alive = self.runs_alive(monkeypatch, lambda: run_scenario(
            config, nominal, thresholds, out_dir=str(tmp_path)))
        assert len(alive) == 2 * (sample_count(1.0, config.ts)
                                  // self.BLOCK)
        assert not any(alive)

    def test_calibration_and_library(self, default_cal, monkeypatch):
        nominal, thresholds, _, _ = default_cal
        config = ScenarioConfig(duration=1.0, calibration_window=2000)
        fault = replace(config, name="one_block", disturbance=DisturbanceSpec(
            "fault", 0.2077, 0.4, 0.8))
        for call in (lambda: run_calibration(config),
                     lambda: build_library_from_scenarios(
                         [fault], nominal, thresholds)):
            alive = self.runs_alive(monkeypatch, call)
            assert len(alive) >= 2 * 7
            assert not any(alive)


class TestDetector:
    """A run's `Detector` gives the same outputs however its updates are
    cut into blocks: one short run identified once, pushed whole and in
    slices of a few sizes."""

    CONFIGS = {
        # a fault inside the run, armed after 2000 updates
        "fault": ScenarioConfig(name="pushed", duration=3.0,
                                calibration_window=2000,
                                disturbance=DisturbanceSpec(
                                    "fault", 0.2077, 1.5, 2.5)),
        # a disturbance from the run end on, never armed: both warnings
        "late": ScenarioConfig(name="late", duration=3.0,
                               calibration_window=20000,
                               disturbance=DisturbanceSpec(
                                   "fault", 0.2077, 3.0, 4.0)),
        # a window below burn_in - 1 = 23: armed from update 23, the end
        # of the estimator's burn-in
        "burn_in": ScenarioConfig(name="burn_in", duration=3.0,
                                  calibration_window=1,
                                  disturbance=DisturbanceSpec(
                                      "fault", 0.2077, 1.5, 2.5)),
    }

    @staticmethod
    def identified(config):
        return identify(simulate(
            config.circuit, config.disturbance, config.excitation,
            config.duration, config.ts, config.noise_std, config.noise_seed,
            config.i_op), config.identifier)

    @staticmethod
    def pushed(config, nominal, thresholds, run, size):
        """What a Detector gives when `run` is pushed in slices of `size`
        updates: (d, transitions, first times (None for one not found),
        the detector's count of transitions, which is the number it
        returned, final verdict, warnings)."""
        detector = Detector(config, nominal, thresholds, random_library())
        ds, changes = [], []
        for lo in range(0, run.t.size, size):
            part = slice(lo, lo + size)
            d, block_changes = detector.push(replace(
                run, t=run.t[part], theta=run.theta[part]))
            ds.append(d)
            changes += block_changes
        assert detector.transitions == len(changes)
        verdict = detector.finish()
        found = tuple(None if np.isnan(v) else v
                      for v in detector.found.tolist())
        return (np.concatenate(ds), changes, found, detector.transitions,
                verdict, detector.warnings)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_outputs_equal_across_block_sizes(self, default_cal, name):
        nominal, thresholds, _, _ = default_cal
        config = self.CONFIGS[name]
        run = self.identified(config)
        whole = self.pushed(config, nominal, thresholds, run, run.t.size)
        d, changes, found, transitions, verdict, warnings = whole
        assert d.size == run.t.size
        if name != "late":
            assert len(changes) > 2 and None not in found[:2]
            assert warnings == []
        else:
            assert [v for _, v, _ in changes] == ["normal"]
            assert found == (None,) * 5
            assert verdict is Verdict.NORMAL and len(warnings) == 2
        for size in (1, 3, 100, 8192):
            got = self.pushed(config, nominal, thresholds, run, size)
            assert np.array_equal(got[0].view(np.uint64),
                                  d.view(np.uint64)), size
            assert got[1:] == whole[1:], size

    def test_burn_in_end_arms_below_the_window(self, default_cal):
        """A calibration window of 1 arms the detector at update
        burn_in - 1 = 23, where the estimator's burn-in ends: its outputs
        are those of a window of 23, and differ from those of a window of
        24, whose first non-normal verdict comes one update later."""
        nominal, thresholds, _, _ = default_cal
        config = self.CONFIGS["burn_in"]
        assert config.identifier.burn_in - 1 == 23
        run = self.identified(config)
        got = {window: self.pushed(replace(config, calibration_window=window),
                                   nominal, thresholds, run, run.t.size)
               for window in (1, 23, 24)}
        assert got[1][1:] == got[23][1:]
        first = [next(t for t, verdict, _ in got[window][1]
                      if verdict != "normal") for window in (23, 24)]
        k = np.searchsorted(run.t, first)
        assert k[1] == k[0] + 1

    def test_pinned_thresholds_take_precedence(self, default_cal):
        nominal, thresholds, _, _ = default_cal
        pinned = Thresholds(d_high=2.0, d_low=1.0)
        config = self.CONFIGS["fault"]
        assert Detector(config, nominal, thresholds).thresholds == thresholds
        detector = Detector(replace(config, thresholds=pinned), nominal,
                            thresholds)
        assert detector.thresholds == pinned
        assert detector.window == (1.5, 2.5, 1.0, 2.0)


class TestRunSuite:
    """Each run of a suite shares nothing with the others: it writes the
    bytes of a lone run of its scenario."""

    @pytest.fixture(scope="class")
    def suite_and_lone_runs(self, default_cal, tmp_path_factory):
        nominal, thresholds, _, _ = default_cal
        root = tmp_path_factory.mktemp("suite")
        library = random_library()
        paths = [base_ini(root, "base.ini")]
        paths += [base_ini(root, f"{name}.ini", (old, new))
                  for name, old, new in VARIANTS]
        reports, counts = counting_suite(paths, nominal, thresholds, library,
                                         str(root / "suite"))
        errors = {}
        for path in paths:
            name = os.path.splitext(os.path.basename(path))[0]
            errors[name] = lone_run(path, nominal, thresholds, library,
                                    str(root / "lone" / name))
        return root, paths, reports, counts, errors

    def test_block_edges_around_the_disturbance_start(self, tmp_path):
        config = load_scenario(base_ini(tmp_path, "b.ini"))
        k_on = int(round(config.disturbance.t_start / config.ts))
        assert k_on == disturbance_start(config.disturbance, config.duration,
                                         config.ts)
        assert k_on % START_BLOCK == 0
        assert k_on // START_BLOCK == 4
        assert k_on // OFF_EDGE_BLOCK * OFF_EDGE_BLOCK == k_on - 1
        assert 2 * LIBRARY_BLOCK == k_on + 2

    def test_every_artifact_equals_a_lone_run(self, suite_and_lone_runs):
        """The order-2 variant is rejected before it simulates, against the
        order-3 library, the same way in both; every other run writes the
        same bytes."""
        root, paths, reports, _, errors = suite_and_lone_runs
        failed = [name for name, rep in reports.items() if rep is None]
        assert failed == ["order"]
        assert errors["order"] == ("the library is of model order 3, but "
                                   "the run's model order is 2")
        assert not (root / "suite" / "order").exists()
        for path in paths:
            name = os.path.splitext(os.path.basename(path))[0]
            if name != "order":
                assert errors[name] is None
                assert_same_artifacts(str(root / "suite" / name),
                                      str(root / "lone" / name))

    def test_suite_verdicts_are_mixed(self, suite_and_lone_runs):
        """The rows before the disturbance carry every verdict, so a wrong
        verdict shows in the artifacts compared with a lone run's."""
        root = suite_and_lone_runs[0]
        events = (root / "suite" / "match_floor" / "events.jsonl")
        seen = {json.loads(line)["verdict"]
                for line in events.read_text().splitlines()
                if json.loads(line)["t"] < 0.5}
        assert seen == {"normal", "fault", "load_increase", "unclassified"}

    def test_every_run_identifies_every_update(self, suite_and_lone_runs):
        """Each run identifies its whole stream from its first update,
        whatever ran before it; the rejected order-2 run identifies
        none."""
        _, paths, _, counts, _ = suite_and_lone_runs
        want = []
        for path in paths:
            config = load_scenario(path)
            want.append((config.name, 0 if config.name == "order"
                         else updates_of(config)))
        assert counts == want

    # 7 puts the last block edge before the disturbance start one sample
    # before it, 2500 on it, with one block before it
    @pytest.mark.parametrize("sim_block", [OFF_EDGE_BLOCK, 2500])
    def test_simulator_blocks_change_no_byte(self, default_cal,
                                             suite_and_lone_runs, tmp_path,
                                             sim_block):
        nominal, thresholds, _, _ = default_cal
        root, paths, _, _, _ = suite_and_lone_runs
        reports, _ = counting_suite(paths, nominal, thresholds,
                                    random_library(),
                                    str(tmp_path / "suite"),
                                    block=sim_block)
        assert [name for name, rep in reports.items() if rep is None] == \
            ["order"]
        for name in reports:
            if name != "order":
                assert_same_artifacts(str(tmp_path / "suite" / name),
                                      str(root / "lone" / name))

    @pytest.mark.parametrize("block", [START_BLOCK, OFF_EDGE_BLOCK])
    def test_run_after_a_failure_in_the_block_holding_the_start(
            self, default_cal, tmp_path, block, monkeypatch):
        """A fault of 1e306 p.u. overflows the disturbed model, so the first
        run fails in the simulator block that holds its disturbance start,
        after it has drawn its noise start. The second run, of the same
        noise seed and duration, identifies its whole stream and writes
        the bytes of a lone run.

        The loader rejects such a value, so the file holds 1e300 p.u.,
        whose model is finite, and the simulator is handed the overflowing
        model of 1e306 p.u. in its place."""
        def overflowing_model(params, disturbance=None):
            if disturbance == ("fault", 1e300):
                return circuit_module._circuit_model(params, ("fault", 1e306))
            return full_circuit_model(params, disturbance)

        monkeypatch.setattr(simulate_module, "full_circuit_model",
                            overflowing_model)
        nominal, thresholds, _, _ = default_cal
        paths = [base_ini(tmp_path, "in/huge.ini",
                          ("r_fault_pu = 0.2077", "r_fault_pu = 1e300")),
                 base_ini(tmp_path, "in/base.ini")]
        with pytest.warns(RuntimeWarning, match="overflow"):
            reports, counts = counting_suite(paths, nominal, thresholds,
                                             random_library(),
                                             str(tmp_path / "suite"),
                                             block=block)
        assert reports["huge"] is None
        assert not (tmp_path / "suite" / "huge").exists()
        config = load_scenario(paths[1])
        k_on = disturbance_start(config.disturbance, config.duration,
                                 config.ts)
        # the failed run identified the blocks before the one holding k_on
        assert counts == [("huge", k_on // block * block
                           - config.identifier.order - 1),
                          ("base", updates_of(config))]
        library = random_library()
        with pytest.warns(RuntimeWarning, match="overflow"):
            error = lone_run(paths[0], nominal, thresholds, library,
                             str(tmp_path / "lone" / "huge"))
        assert error.startswith("[simulate] non-finite voltage trajectory")
        assert lone_run(paths[1], nominal, thresholds, library,
                        str(tmp_path / "lone" / "base")) is None
        assert_same_artifacts(str(tmp_path / "suite" / "base"),
                              str(tmp_path / "lone" / "base"))

    def test_every_run_hands_its_writers_all_its_rows(self, default_cal,
                                                      tmp_path):
        """Each run of a suite hands its writers every row of its
        artifacts. The rows are counted where each writer's `write`
        receives them."""
        nominal, thresholds, _, _ = default_cal
        paths = [base_ini(tmp_path, "in/base.ini"),
                 base_ini(tmp_path, "in/value.ini", CHANGES["value"])]
        given = {}  # the rows handed to the writers, by (run, artifact)

        def counted(write):
            def counted_write(writer, data):
                # the writer's file is its run's `.<artifact>.partial`
                run, temporary = os.path.split(writer.fh.name)
                key = (os.path.basename(run),
                       temporary[1:-len(".partial")])
                given[key] = given.get(key, 0) + data.shape[0]
                write(writer, data)
            return counted_write

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_NpyWriter, "write", counted(_NpyWriter.write))
            _, counts = counting_suite(paths, nominal, thresholds,
                                       random_library(),
                                       str(tmp_path / "suite"))
        config = load_scenario(paths[0])
        assert counts == [("base", updates_of(config)),
                          ("value", updates_of(config))]
        for name in ("samples.npy", "distance.npy", "theta.npy"):
            for run in ("base", "value"):
                path = tmp_path / "suite" / run / name
                rows = np.load(path, allow_pickle=False).shape[0]
                assert given[run, name] == rows > 0, (run, name)

    @pytest.mark.parametrize("block", [START_BLOCK, OFF_EDGE_BLOCK])
    def test_samples_npy_holds_the_simulator_bits(self, default_cal,
                                                  tmp_path, block):
        """samples.npy loads without pickle as the simulator's [t, v_dq,
        i_dq], bit for bit, under the shape and dtype its header gives: in
        each run of a suite and in a lone run. OFF_EDGE_BLOCK puts no
        block edge at the disturbance start."""
        nominal, thresholds, _, _ = default_cal
        paths = [base_ini(tmp_path, "in/base.ini"),
                 base_ini(tmp_path, "in/value.ini", CHANGES["value"])]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", block)
            run_suite(paths, nominal, thresholds, random_library(),
                      out_dir=str(tmp_path / "suite"))
            run_scenario(load_scenario(paths[1]), nominal, thresholds,
                         random_library(), out_dir=str(tmp_path / "lone"))
        for out, path in ((tmp_path / "suite" / "base", paths[0]),
                          (tmp_path / "suite" / "value", paths[1]),
                          (tmp_path / "lone", paths[1])):
            config = load_scenario(path)
            sim = simulate(config.circuit, config.disturbance,
                           config.excitation, config.duration, config.ts,
                           config.noise_std, config.noise_seed, config.i_op)
            want = np.column_stack([sim.t, sim.v_dq, sim.i_dq])
            with open(out / "samples.npy", "rb") as fh:
                version = np.lib.format.read_magic(fh)
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_1_0(fh)
            assert version == (1, 0)
            assert (shape, fortran, dtype) == (
                (sample_count(config.duration, config.ts), 5), False,
                np.dtype("<f8"))
            got = np.load(out / "samples.npy", allow_pickle=False)
            assert got.shape == want.shape == shape
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64)), out

    @staticmethod
    def back_to_back(tmp_path, nominals, thresholds, between=lambda out: None):
        """The base scenario run twice in one process, the first run with
        nominals[0] and the second with nominals[1], and `between` called
        with the first run's out_dir in between; then the second run alone
        with a cold noise-start memo. (second run's out_dir, lone run's
        out_dir)."""
        path = base_ini(tmp_path, "in/base.ini")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", START_BLOCK)
            for run, nominal in enumerate(nominals):
                out = str(tmp_path / "suite" / str(run))
                run_scenario(load_scenario(path), nominal, thresholds,
                             random_library(), out_dir=out)
                if not run:
                    between(out)
            lone = str(tmp_path / "lone")
            simulate_module._noise_start.cache_clear()
            run_scenario(load_scenario(path), nominals[1], thresholds,
                         random_library(), out_dir=lone)
        return out, lone

    def test_run_with_another_nominal_writes_its_own_rows(
            self, default_cal, tmp_path):
        """A run after one of the same scenario with another nominal
        predictor writes the distances of its own predictor, as its lone
        run does."""
        nominal, thresholds, _, _ = default_cal
        other = replace(nominal, theta_star=nominal.theta_star * 1.01)
        second, lone = self.back_to_back(tmp_path, (nominal, other),
                                         thresholds)
        assert_same_artifacts(second, lone)

    def test_run_outlives_an_earlier_runs_files(self, default_cal,
                                                tmp_path):
        """A run reads no file of an earlier run of its scenario: it still
        writes the bytes of its lone run after that run's out_dir is
        deleted."""
        nominal, thresholds, _, _ = default_cal
        second, lone = self.back_to_back(tmp_path, (nominal, nominal),
                                         thresholds, between=shutil.rmtree)
        assert_same_artifacts(second, lone)

    @pytest.mark.parametrize("second", ["other/y.ini", "other/Y.ini",
                                        "in/y.ini"])
    def test_same_name_scenarios_rejected_before_any_run(
            self, default_cal, tmp_path, second):
        """Two scenarios whose artifacts would share a directory: the suite
        runs neither of them."""
        nominal, thresholds, _, _ = default_cal
        paths = [base_ini(tmp_path, "in/base.ini"),
                 base_ini(tmp_path, "in/y.ini"),
                 base_ini(tmp_path, second)]
        with pytest.raises(ValueError, match=r"(?i)scenarios .*in/y\.ini and "
                           r".*y\.ini have the same name"):
            run_suite(paths, nominal, thresholds, random_library(),
                      out_dir=str(tmp_path / "suite"))
        assert not (tmp_path / "suite").exists()

    def test_empty_manifest_rejected(self, default_cal, tmp_path):
        nominal, thresholds, _, _ = default_cal
        with pytest.raises(ValueError, match="lists no scenarios"):
            run_suite([], nominal, thresholds, out_dir=str(tmp_path / "s"))
        assert not (tmp_path / "s").exists()

    def test_library_build_equals_per_run_builds(self, default_cal,
                                                 tmp_path):
        """A library built from two scenarios holds the signatures of the
        two built one at a time. Blocks of LIBRARY_BLOCK samples put an
        edge inside the window the library reads."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(base_ini(tmp_path, "base.ini")),
                   load_scenario(base_ini(tmp_path, "load.ini",
                                          CHANGES["kind"]))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", LIBRARY_BLOCK)
            both = build_library_from_scenarios(configs, nominal, thresholds)
            alone = [build_library_from_scenarios([c], nominal, thresholds)
                     for c in configs]
        assert json.loads(both.to_json())["signatures"] == [
            json.loads(lib.to_json())["signatures"][0] for lib in alone]

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
    @pytest.mark.parametrize("sizes", [[3000], [1, 98, 1, 2900],
                                       [50, 49, 1, 100, 2800], [1] * 250])
    def test_history_carried_across_blocks(self, sizes):
        """Blocks give the bits of one running window sum over the whole
        stream in Python floats, short first blocks included, and are
        within 1e-13 of np.convolve's average."""
        rng = np.random.default_rng(3)
        v = 1.0 + 0.1 * rng.standard_normal((sum(sizes), 2))
        n = 100
        want = np.empty_like(v)
        for c in range(2):
            column, total = v[:, c].tolist(), 0.0
            for k, x in enumerate(column):
                total += x - (column[k - n] if k >= n else 0.0)
                want[k, c] = total / min(k + 1, n)
        average = _CycleAverage(2e-4, 50.0)
        cuts = np.cumsum([0] + sizes)
        got = np.concatenate([average(v[a:b])
                              for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        convolved = np.column_stack([
            np.convolve(v[:, c], np.ones(n))[:len(v)] for c in range(2)])
        convolved /= np.minimum(np.arange(1, len(v) + 1), n)[:, None]
        np.testing.assert_allclose(got, convolved, rtol=0, atol=1e-13)

    def test_50hz_window_is_100_samples(self):
        v = np.zeros((400, 2))
        v[200] = 1.0
        out = _CycleAverage(2e-4, 50.0)(v)
        assert np.allclose(out[200:300], 0.01, rtol=0, atol=1e-15)
        assert np.all(out[300:] == 0.0)

    def test_60hz_averages_out_one_cycle(self):
        # 100 samples per cycle at 60 Hz; a fixed 20 ms window would span
        # 1.2 cycles and leave the ripple in
        ts, f = 1.0 / 6000.0, 60.0
        t = np.arange(1200) * ts
        ripple = 0.1 * np.sin(2 * np.pi * f * t)
        v = np.column_stack([1.0 + ripple, ripple])
        out = _CycleAverage(ts, f)(v)
        assert np.allclose(out[100:], [1.0, 0.0], rtol=0, atol=1e-12)
