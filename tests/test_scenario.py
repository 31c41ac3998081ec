"""Scenario configuration files, artifact round-trips, and reproducibility
of end-to-end runs."""

import configparser
import filecmp
import json
import os
import signal
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from gridarx import scenario as scenario_module
from gridarx.circuit import CircuitParams
from gridarx.detector import (
    Signature,
    SignatureLibrary,
    Thresholds,
    Verdict,
    build_library,
    verdict_codes,
)
from gridarx.pipeline import identify
from gridarx.rls import ArxConfig
from gridarx.scenario import (
    CSV_CHUNK_ROWS,
    FLOAT_FMT,
    SCENARIO_SCHEMA,
    ScenarioConfig,
    StageError,
    _CsvProcess,
    _CsvWriter,
    _CycleAverage,
    _transitions,
    _write_csv,
    build_library_from_scenarios,
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
from gridarx.signals import RbsConfig
from gridarx.simulate import (
    DisturbanceSpec,
    SimResult,
    disturbance_start,
    sample_count,
    simulate,
)

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

    @pytest.mark.parametrize("overrides, message", [
        ({"rho": 0}, "order must be >= 1, got 0"),
        ({"forgetting": 1.5}, "forgetting factor must be in (0, 1], got 1.5"),
        ({"seed": -2}, "--seed: seed must be >= 0, got -2"),
    ])
    def test_bad_override_does_not_blame_the_file(self, tmp_path, overrides,
                                                  message):
        path = write_ini(tmp_path, "ovr.ini", "[run]\nduration = 2.0\n")
        with pytest.raises(ValueError) as err:
            load_scenario(path, overrides)
        assert str(err.value) == message

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
        ("[run]\nduration = 0\n", "[run] duration: must be > 0, got 0.0"),
        ("[run]\nts = -2e-4\n", "[run] ts: must be > 0, got -0.0002"),
        ("[run]\nhold = 0\n", "[run] hold: must be >= 1, got 0"),
        ("[run]\ncalibration_window = 0\n",
         "[run] calibration_window: must be >= 1, got 0"),
        ("[run]\nnoise_std = -1\n", "[run] noise_std: must be >= 0, got -1.0"),
        ("[run]\nnoise_std = nan\n", "[run] noise_std: must be finite, got 'nan'"),
        ("[run]\nmatch_floor = nan\n",
         "[run] match_floor: must be finite, got 'nan'"),
        ("[run]\nmatch_floor = 5\n",
         "[run] match_floor: must be in [-1, 1], got 5.0"),
        ("[run]\nnoise_seed = -3\n", "[run] noise_seed: must be >= 0, got -3"),
        ("[excitation]\nseed = -1\n", "[excitation] seed must be >= 0, got -1"),
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
    ("[excitation]\nchip_rate = 10000\n",
     {"excitation": RbsConfig(amplitude=0.1, chip_rate=10000.0, seed=1)},
     "[excitation] chip_rate: must be <= the sampling rate 1/ts = 5000.0, "
     "got 10000.0"),
    ("[run]\nts = 1e-3\n", {"ts": 1e-3},
     "[excitation] chip_rate: must be <= the sampling rate 1/ts = 1000.0, "
     "got 5000.0"),
]


class TestScenarioConfigChecks:
    @pytest.mark.parametrize("text, values, message", CONFIG_CHECKS)
    def test_built_in_code_checked_as_loaded(self, tmp_path, text, values,
                                             message):
        with pytest.raises(ValueError) as err:
            ScenarioConfig(**values)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            replace(default_profile(), **values)
        assert str(err.value) == message
        path = write_ini(tmp_path, "bad.ini", text)
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("section, dataclass", [
        ("circuit", CircuitParams), ("excitation", RbsConfig),
        ("identifier", ArxConfig), ("run", ScenarioConfig)])
    def test_schema_keys_are_dataclass_fields(self, section, dataclass):
        """A key is given to its section's dataclass by name; `enabled` is
        the one key that chooses whether [excitation] builds one at all."""
        keys = set(SCENARIO_SCHEMA[section]) - {"enabled"}
        assert keys <= {f.name for f in fields(dataclass)}


def write_in_blocks(path, header, data, head=None):
    """`data` written to `path` by one `_CsvWriter` given `head`, in two
    blocks."""
    with open(path, "wb") as fh:
        writer = _CsvWriter(fh, header, head)
        writer.write(data[:CSV_CHUNK_ROWS + 1])
        writer.write(data[CSV_CHUNK_ROWS + 1:])


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

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS - 1,
                                      CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
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

    @pytest.mark.parametrize("split", [0, 1, CSV_CHUNK_ROWS - 1,
                                       CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                       2 * CSV_CHUNK_ROWS + 3])
    def test_split_and_copied_head(self, tmp_path, rng, split):
        """The file's size after its header and first `split` rows ends
        them; a file that copies them from it and is given the rows after
        them is the file written whole."""
        rows = 2 * CSV_CHUNK_ROWS + 3
        first = rng.standard_normal((rows, 3))
        second = np.concatenate([first[:split],
                                 rng.standard_normal((rows - split, 3))])
        a, b, want = (str(tmp_path / n) for n in ("a.csv", "b.csv", "w.csv"))
        with open(a, "wb") as fh:
            writer = _CsvWriter(fh, "x,y,z")
            writer.write(first[:split])
            size = fh.tell()
            writer.write(first[split:])
        with open(a, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert size == sum(map(len, lines[:split + 1]))
        write_in_blocks(b, "x,y,z", second[split:], (a, size))
        _write_csv(want, "x,y,z", second)
        with open(b, "rb") as got, open(want, "rb") as wanted:
            assert got.read() == wanted.read()

    def test_copy_from_short_file_fails(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        _write_csv(a, "x,y", np.ones((4, 2)))
        size = os.path.getsize(a)
        with open(a, "r+b") as fh:
            fh.truncate(size - 1)
        with pytest.raises(OSError, match="ends 1 bytes short"):
            write_in_blocks(b, "x,y", np.ones((0, 2)), (a, size))

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
        good = ScenarioConfig(duration=1.0, disturbance=dist)

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


# The run of `block_edge_config` has 35,001 samples, the disturbance on at
# sample 24,004 and off at 32,004. Each simulator block is identified with
# the last order + 1 = 4 samples of the stream before it prepended, so the
# first update of the block from sample k is update k - 4. Of the block
# sizes, 3 is shorter than those 4 samples and puts an edge on the switch
# off; 4 puts edges on both switches, on both settle-window edges and on
# the arming update, and leaves a 1-sample final block; 999 = -1 mod 50
# puts them on most offsets from the theta.csv rows; 8001 puts one on the
# switch off and 24004 on the switch on; the last is one block for the
# whole run, the reference.
SETTLE_UPDATES = 4000
BLOCK_SIZES = [3, 4, 999, 8001, 24004, 10**6]
RUN_ARTIFACTS = ("samples.csv", "distance.csv", "theta.csv", "events.jsonl",
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
        t = np.loadtxt(os.path.join(run_dir, "distance.csv"),
                       delimiter=",", skiprows=1)[:, 0]
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

    @pytest.mark.parametrize("name", ["report.json", "distance.csv",
                                      "theta.csv", "events.jsonl",
                                      "samples.csv"])
    def test_run_artifacts_equal_across_block_sizes(self, block_runs, name):
        whole = os.path.join(block_runs[BLOCK_SIZES[-1]][0], name)
        for block in BLOCK_SIZES[:-1]:
            got = os.path.join(block_runs[block][0], name)
            assert filecmp.cmp(got, whole, shallow=False), (name, block)

    def test_library_equal_across_block_sizes(self, block_runs):
        whole = block_runs[BLOCK_SIZES[-1]][1]
        for block in BLOCK_SIZES[:-1]:
            assert block_runs[block][1] == whole, block


class TestRunMemory:
    """A run holds its blocks and what it keeps, not its whole stream: its
    tracemalloc peak depends on the block size and the disturbance
    window, not on its length. Blocks of MEMORY_BLOCK put a dozen blocks
    into the short run, so both runs reach their steady state."""

    MEMORY_BLOCK = 2048

    def peaks(self, call, durations):
        """tracemalloc peak of `call(duration)` for each duration, the
        short run first."""
        peaks = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", self.MEMORY_BLOCK)
            for duration in durations:
                tracemalloc.start()
                try:
                    call(duration)
                    peaks[duration] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        return peaks

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
        """The CSV writer's exception reaches the caller as it was raised;
        the run leaves no artifact or temporary file, and an earlier run's
        artifacts stay whole."""
        nominal, thresholds, _, _ = default_cal
        out = tmp_path / "run"
        run_scenario(short_fault_config, nominal, thresholds,
                     out_dir=str(out))
        before = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}

        def disk_full(writer, data):
            raise OSError("disk full")

        monkeypatch.setattr(_CsvWriter, "write", disk_full)
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

    @pytest.mark.skipif(scenario_module._fork_context() is None,
                        reason="the CSVs are formatted in the run's process")
    def test_writer_process_exit_named(self, default_cal, short_fault_config,
                                       tmp_path, monkeypatch):
        """A writer process that dies without a word fails the run with its
        exit code, and leaves nothing behind."""
        nominal, thresholds, _, _ = default_cal
        monkeypatch.setattr(_CsvWriter, "write",
                            lambda writer, data: os._exit(3))
        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", 2000)
        out = tmp_path / "run"

        def hung(signum, frame):
            raise RuntimeError("the run hung on its dead writer")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(OSError, match="exit code 3 "):
                run_scenario(short_fault_config, nominal, thresholds,
                             out_dir=str(out))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
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

    def test_library_build_of_an_empty_settled_half(self, default_cal,
                                                     no_simulation):
        """Every scenario is checked before the first one is simulated: the
        second one's settled half holds no update of its run."""
        nominal, thresholds, _, _ = default_cal
        good = ScenarioConfig(name="good", duration=3.0,
                              disturbance=DisturbanceSpec(
                                  "fault", 0.2077, 2.0, 3.0))
        short = replace(good, name="short", disturbance=DisturbanceSpec(
            "fault", 0.2077, 2.0, 9.0))
        with pytest.raises(ValueError, match=r"^scenario 'short': no update "
                           r"of the run \(3 s\) falls in the settled half "
                           r"\[5\.5, 9\) s"):
            build_library_from_scenarios([good, short], nominal, thresholds)

    def test_library_build_of_another_order(self, default_cal,
                                            no_simulation):
        """Every scenario is checked before the first one is simulated."""
        nominal, thresholds, _, _ = default_cal
        dist = DisturbanceSpec("fault", 0.2077, 0.5, 0.8)
        good = ScenarioConfig(duration=1.0, disturbance=dist)
        other = replace(good, identifier=ArxConfig(order=2))
        with pytest.raises(ValueError, match=r"shape \(2, 12\) \(model "
                                             r"order 3\), but the run's "
                                             r"model order is 2"):
            build_library_from_scenarios([good, other], nominal, thresholds)


# Prefix sharing: 1 s runs with the disturbance from 0.5 s, so samples
# [0, 2500) come before it. Blocks of SHARE_BLOCK = 2500 / 4 samples put a
# block edge exactly there, and the updates of the blocks before it,
# [0, 2496), read only those samples; blocks of OFF_EDGE_BLOCK put the last
# edge before it at sample 2499. The detector arms at update 500, inside
# the prefix. The pinned thresholds put armed prefix rows on every side of
# both of them.
SHARE_BLOCK = 625
OFF_EDGE_BLOCK = 7
LIBRARY_BLOCK = (4 * SHARE_BLOCK + 2) // 2
SHARE_BASE = """\
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

# (variant, line replaced in SHARE_BASE, its replacement). The first group
# changes only what comes after the disturbance starts or how the rows are
# judged, and may reuse the base run's prefix; the second changes the
# prefix itself, and must not.
MAY_SHARE = [
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
]
MUST_NOT_SHARE = [
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
def share_ini(root, path, change=None):
    """SHARE_BASE with one line replaced, written to root / path."""
    text = SHARE_BASE
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
    lib = SignatureLibrary(order=3)
    for label in (Verdict.FAULT, Verdict.LOAD_INCREASE):
        vec = rng.standard_normal((2, 12))
        lib.signatures.append(Signature(label, vec / np.linalg.norm(vec)))
    return lib


def counting_suite(paths, nominal, thresholds, library, out_dir,
                   block=SHARE_BLOCK):
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
    """`path` run on its own, outside any suite, with the suite's block
    size; the message of the StageError or ValueError it raises, else
    None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "SIMULATE_BLOCK", SHARE_BLOCK)
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


def shared_updates(config, block):
    """The updates of the blocks before the last block edge at or before
    the disturbance start: those a run resumed from a record replays."""
    k_on = disturbance_start(config.disturbance, config.duration, config.ts)
    return k_on // block * block - config.identifier.order - 1


def expected_counts(paths, block):
    """The updates each run of the TestSharedPrefix suite identifies, in
    blocks of `block` samples: all of them, or, where the run may share
    the base run's prefix, all but those the base run recorded."""
    full = {os.path.splitext(os.path.basename(p))[0]:
            updates_of(load_scenario(p)) for p in paths}
    full["order"] = 0  # rejected before it simulates
    shared = shared_updates(load_scenario(paths[0]), block)
    want = [("base", full["base"])]
    want += [(name, full[name] - shared) for name, _, _ in MAY_SHARE]
    want += [(name, full[name]) for name, _, _ in MUST_NOT_SHARE]
    return want


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


class TestSharedPrefix:
    """Runs of one suite that share everything before the disturbance
    compute it once, and still write the bytes of a run on its own."""

    @pytest.fixture(scope="class")
    def shared_suite(self, default_cal, tmp_path_factory):
        nominal, thresholds, _, _ = default_cal
        root = tmp_path_factory.mktemp("share")
        library = random_library()
        paths = [share_ini(root, "base.ini")]
        paths += [share_ini(root, f"{name}.ini", (old, new))
                  for name, old, new in MAY_SHARE + MUST_NOT_SHARE]
        reports, counts = counting_suite(paths, nominal, thresholds, library,
                                         str(root / "suite"))
        errors = {}
        for path in paths:
            name = os.path.splitext(os.path.basename(path))[0]
            errors[name] = lone_run(path, nominal, thresholds, library,
                                    str(root / "lone" / name))
        return root, paths, reports, counts, errors

    def test_block_edge_on_disturbance_start(self, tmp_path):
        config = load_scenario(share_ini(tmp_path, "b.ini"))
        k_on = int(round(config.disturbance.t_start / config.ts))
        assert k_on % SHARE_BLOCK == 0
        assert k_on // SHARE_BLOCK == 4
        assert k_on // OFF_EDGE_BLOCK * OFF_EDGE_BLOCK == k_on - 1
        assert config.calibration_window < shared_updates(config,
                                                          OFF_EDGE_BLOCK)

    def test_every_artifact_equals_a_lone_run(self, shared_suite):
        """The order-2 variant is rejected before it simulates, against the
        order-3 library, the same way in both; every other run writes the
        same bytes."""
        root, paths, reports, _, errors = shared_suite
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

    def test_prefix_verdicts_are_mixed(self, shared_suite):
        """The reused rows carry every verdict, so a stale verdict shows."""
        root = shared_suite[0]
        events = (root / "suite" / "match_floor" / "events.jsonl")
        seen = {json.loads(line)["verdict"]
                for line in events.read_text().splitlines()
                if json.loads(line)["t"] < 0.5}
        assert seen == {"normal", "fault", "load_increase", "unclassified"}

    def test_identify_skips_the_prefix_only_where_shared(self, shared_suite):
        _, paths, _, counts, _ = shared_suite
        assert counts == expected_counts(paths, SHARE_BLOCK)

    # 7 puts the last block edge before the disturbance start one sample
    # before it, 2500 on it, with one block before it
    @pytest.mark.parametrize("sim_block", [OFF_EDGE_BLOCK, 2500])
    def test_simulator_blocks_change_no_byte(self, default_cal, shared_suite,
                                             tmp_path, sim_block):
        nominal, thresholds, _, _ = default_cal
        root, paths, _, _, _ = shared_suite
        reports, counts = counting_suite(paths, nominal, thresholds,
                                         random_library(),
                                         str(tmp_path / "suite"),
                                         block=sim_block)
        assert [name for name, rep in reports.items() if rep is None] == \
            ["order"]
        for name in reports:
            if name != "order":
                assert_same_artifacts(str(tmp_path / "suite" / name),
                                      str(root / "lone" / name))
        assert counts == expected_counts(paths, sim_block)

    def test_copied_heads_leave_only_later_rows_to_format(self, default_cal,
                                                          tmp_path):
        """A run resumed with the record's CSV heads hands its writer only
        the rows of the blocks after the edge; the recording run hands it
        all of them. Both write the bytes of a lone run either way, so only
        the rows given show a resumed run that formats every block. The
        rows are counted where the run sends them, in its own process."""
        nominal, thresholds, _, _ = default_cal
        paths = [share_ini(tmp_path, "in/base.ini"),
                 share_ini(tmp_path, "in/value.ini", MAY_SHARE[1][1:])]
        names = ("samples.csv", "distance.csv", "theta.csv")
        given = {}  # each run's writer: the rows handed to it per CSV
        send = _CsvProcess.send

        def counted_send(writer, message):
            if message != scenario_module.EDGE:
                rows = given.setdefault(writer, dict.fromkeys(names, 0))
                for name, block in zip(names, message):
                    rows[name] += block.shape[0]
            send(writer, message)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", SHARE_BLOCK)
            mp.setattr(_CsvProcess, "send", counted_send)
            run_suite(paths, nominal, thresholds, random_library(),
                      out_dir=str(tmp_path / "suite"))
        given = dict(zip(("base", "value"), given.values()))
        config = load_scenario(paths[0])
        edge = 4 * SHARE_BLOCK
        shared = shared_updates(config, SHARE_BLOCK)
        stride = scenario_module.THETA_STRIDE
        head_rows = {"samples.csv": edge, "distance.csv": shared,
                     "theta.csv": -(-shared // stride)}
        for name, head in head_rows.items():
            rows = {run: len((tmp_path / "suite" / run / name)
                             .read_bytes().splitlines()) - 1
                    for run in ("base", "value")}
            assert rows["base"] == rows["value"] > head > 0
            assert given["base"][name] == rows["base"]
            assert given["value"][name] == rows["value"] - head, name

    @pytest.mark.skipif(scenario_module._fork_context() is None,
                        reason="the CSVs are formatted in the run's process")
    def test_in_process_writer_writes_the_bytes_of_the_child(
            self, default_cal, tmp_path, monkeypatch):
        """Where no process may be forked, the run formats its CSVs itself,
        copied heads included, into the same bytes."""
        nominal, thresholds, _, _ = default_cal
        paths = [share_ini(tmp_path, "in/base.ini"),
                 share_ini(tmp_path, "in/value.ini", MAY_SHARE[1][1:])]
        monkeypatch.setattr(scenario_module, "SIMULATE_BLOCK", SHARE_BLOCK)
        taken = []  # the blocks formatted in this process
        take = scenario_module._CsvFormatter.take
        monkeypatch.setattr(scenario_module._CsvFormatter, "take",
                            lambda fmt, message: (taken.append(message),
                                                  take(fmt, message)))
        run_suite(paths, nominal, thresholds, random_library(),
                  out_dir=str(tmp_path / "forked"))
        assert taken == []
        monkeypatch.setattr(scenario_module, "_fork_context", lambda: None)
        run_suite(paths, nominal, thresholds, random_library(),
                  out_dir=str(tmp_path / "here"))
        assert taken
        for run in ("base", "value"):
            assert_same_artifacts(str(tmp_path / "here" / run),
                                  str(tmp_path / "forked" / run))

    @pytest.mark.parametrize("second", ["other/y.ini", "other/Y.ini",
                                        "in/y.ini"])
    def test_same_name_scenarios_rejected_before_any_run(
            self, default_cal, tmp_path, second):
        """Two scenarios whose artifacts would share a directory: the suite
        runs neither of them."""
        nominal, thresholds, _, _ = default_cal
        paths = [share_ini(tmp_path, "in/base.ini"),
                 share_ini(tmp_path, "in/y.ini"),
                 share_ini(tmp_path, second)]
        with pytest.raises(ValueError, match=r"(?i)scenarios .*in/y\.ini and "
                           r".*y\.ini have the same name"):
            counting_suite(paths, nominal, thresholds, random_library(),
                           str(tmp_path / "suite"))
        assert not (tmp_path / "suite").exists()

    def test_empty_manifest_rejected(self, default_cal, tmp_path):
        nominal, thresholds, _, _ = default_cal
        with pytest.raises(ValueError, match="lists no scenarios"):
            run_suite([], nominal, thresholds, out_dir=str(tmp_path / "s"))
        assert not (tmp_path / "s").exists()

    def test_library_build_shares_and_matches(self, default_cal, tmp_path):
        """Blocks of LIBRARY_BLOCK samples put an edge two samples past the
        disturbance start, inside the window the library reads: a record
        that ran past the last edge before it would show in the
        signature."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(share_ini(tmp_path, "base.ini")),
                   load_scenario(share_ini(tmp_path, "load.ini",
                                           MAY_SHARE[0][1:]))]
        counts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "SIMULATE_BLOCK", LIBRARY_BLOCK)

            def counted_identify(*args, **kwargs):
                run = identify(*args, **kwargs)
                counts.append(run.t.size)
                return run

            mp.setattr(scenario_module, "identify", counted_identify)
            shared = build_library_from_scenarios(configs, nominal,
                                                  thresholds)
            alone = [build_library_from_scenarios([c], nominal, thresholds)
                     for c in configs]
        # each of the four streams stops after the block that passes
        # t_end, and the shared build's second one resumes from the record
        stop = library_updates(configs[0], LIBRARY_BLOCK)
        assert stop < updates_of(configs[0])
        assert sum(counts) == 4 * stop - shared_updates(configs[0],
                                                        LIBRARY_BLOCK)
        assert json.loads(shared.to_json())["signatures"] == [
            json.loads(lib.to_json())["signatures"][0] for lib in alone]


class TestLibraryStopsAtWindowEnd:
    """The library build reads only the disturbance window of each run, so
    it leaves each stream after the block that passes the window's end."""

    # 10**6: one block, which holds the whole run
    @pytest.mark.parametrize("block", [OFF_EDGE_BLOCK, SHARE_BLOCK,
                                       LIBRARY_BLOCK, 10**6])
    def test_identifies_up_to_the_block_passing_t_end(self, default_cal,
                                                      tmp_path, block):
        nominal, thresholds, _, _ = default_cal
        config = load_scenario(share_ini(tmp_path, "base.ini"))
        _, counts = counting_library([config], nominal, thresholds, block)
        assert counts == [("base", library_updates(config, block))]
        if block < 10**6:
            assert counts[0][1] < updates_of(config)

    @pytest.mark.parametrize("block", [OFF_EDGE_BLOCK, SHARE_BLOCK,
                                       LIBRARY_BLOCK])
    def test_later_scenarios_resume_from_the_stopped_record(
            self, default_cal, tmp_path, block):
        """The base stream stops after its window, past the disturbance
        start; the others still resume from its record, the one with the
        later t_end past the point where the base stream stopped."""
        nominal, thresholds, _, _ = default_cal
        changes = {name: (old, new) for name, old, new in MAY_SHARE}
        configs = [load_scenario(share_ini(tmp_path, "base.ini"))]
        configs += [load_scenario(share_ini(tmp_path, f"{name}.ini",
                                            changes[name]))
                    for name in ("kind", "t_end")]
        library, counts = counting_library(configs, nominal, thresholds,
                                           block)
        shared = shared_updates(configs[0], block)
        assert counts == [
            ("base", library_updates(configs[0], block)),
            ("kind", library_updates(configs[1], block) - shared),
            ("t_end", library_updates(configs[2], block) - shared)]
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
        config = load_scenario(share_ini(tmp_path, "long.ini",
                                         ("t_end = 0.75", "t_end = 1.2")))
        _, counts = counting_library([config], nominal, thresholds,
                                     SHARE_BLOCK)
        assert counts == [("long", updates_of(config))]

    @pytest.mark.parametrize("block", [OFF_EDGE_BLOCK, LIBRARY_BLOCK])
    def test_signatures_equal_build_library_on_a_full_pass(
            self, default_cal, tmp_path, block):
        """The oracle simulates and identifies each run whole, and gives
        `build_library` every row of it."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(share_ini(tmp_path, "base.ini")),
                   load_scenario(share_ini(tmp_path, "load.ini",
                                           MAY_SHARE[0][1:]))]
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
        want = build_library(runs, nominal, thresholds, 3)
        assert library.to_json() == want.to_json()

    def test_stopped_streams_are_closed(self, default_cal, tmp_path):
        """No simulator of a stream left early is still alive when the
        signatures are built: each stream was closed where it stopped."""
        nominal, thresholds, _, _ = default_cal
        configs = [load_scenario(share_ini(tmp_path, "base.ini")),
                   load_scenario(share_ini(tmp_path, "load.ini",
                                           MAY_SHARE[0][1:]))]
        simulators, alive = [], []
        simulate_blocks = scenario_module.simulate_blocks

        def tracked(*args, **kwargs):
            blocks = simulate_blocks(*args, **kwargs)
            simulators.append(weakref.ref(blocks))
            return blocks

        def checked(*args, **kwargs):
            alive.extend(ref() is not None for ref in simulators)
            return build_library(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "simulate_blocks", tracked)
            mp.setattr(scenario_module, "build_library", checked)
            build_library_from_scenarios(configs, nominal, thresholds)
        assert alive == [False, False]


class TestVerdictTimeline:
    @pytest.mark.parametrize("m", [0, 1, 200])
    def test_transitions_match_loop(self, m):
        rng = np.random.default_rng(m)
        t = np.arange(m) * 2e-4
        members = list(Verdict)
        verdicts = [members[k]
                    for k in rng.choice(4, m, p=[0.7, 0.1, 0.1, 0.1])]
        want, prev = [], None
        for tk, v in zip(t, verdicts):  # the per-snapshot reference loop
            if v != prev:
                want.append((float(tk), v.value))
                prev = v
        assert _transitions(t, verdict_codes(verdicts)) == want


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
    @pytest.mark.parametrize("sizes", [[3000], [1, 98, 1, 2900],
                                       [50, 49, 1, 100, 2800], [1] * 250])
    def test_history_carried_across_blocks(self, sizes):
        """Blocks give the bits of one np.convolve over the whole stream,
        short first blocks included."""
        rng = np.random.default_rng(3)
        v = 1.0 + 0.1 * rng.standard_normal((sum(sizes), 2))
        n = 100
        want = np.column_stack([np.convolve(v[:, c], np.ones(n) / n)[:len(v)]
                                for c in range(2)])
        want *= (n / np.minimum(np.arange(1, len(v) + 1), n))[:, None]
        average = _CycleAverage(2e-4, 50.0)
        cuts = np.cumsum([0] + sizes)
        got = np.concatenate([average(v[a:b])
                              for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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
