"""Command-line interface: each subcommand exercised end to end on
compressed scenarios."""

import configparser
import csv
import glob
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gridarx.circuit import (
    CircuitParams,
    fault_poles,
    load_poles,
    numeric_poles,
    simplified_fault_model,
    simplified_load_model,
)
from gridarx.cli import main
from gridarx.detector import SignatureLibrary
from gridarx.scenario import calibration_from_json, load_scenario

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scenarios")

MINI_CAL = """\
[run]
duration = 2.5
[disturbance]
kind = none
"""

MINI_FAULT = """\
[run]
duration = 8.0
[disturbance]
kind = fault
r_fault_pu = 0.2077
t_start = 6.0
t_end = 7.5
"""

MINI_LOAD = """\
[run]
duration = 8.0
[disturbance]
kind = load
l_load_pu = 0.35
t_start = 6.0
t_end = 7.5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario files plus a calibration produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    files = {}
    for name, text in [("cal.ini", MINI_CAL), ("fault.ini", MINI_FAULT),
                       ("load.ini", MINI_LOAD)]:
        path = root / name
        path.write_text(text)
        files[name] = str(path)
    (root / "manifest.txt").write_text("# compressed suite\nfault.ini\n")
    files["manifest.txt"] = str(root / "manifest.txt")

    cal_out = str(root / "cal_out")
    assert main(["calibrate", "--config", files["cal.ini"],
                 "--out", cal_out]) == 0
    files["calibration.json"] = os.path.join(cal_out, "calibration.json")
    files["root"] = str(root)
    return files


class TestCalibrate:
    def test_artifact_written(self, workspace):
        with open(workspace["calibration.json"]) as fh:
            doc = json.load(fh)
        assert doc["d_high"] > doc["d_low"] > 0
        assert len(doc["theta_star"]) == 2

    def test_missing_config_returns_error_code(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)]) == 2

    def test_unaddressable_order_exits_2_naming_key(self, tmp_path, capsys):
        """An order whose covariance no array can address is the file's
        error, raised before anything is simulated."""
        huge = 99999999999999999999
        bad = tmp_path / "huge_order.ini"
        bad.write_text(f"[run]\nduration = 0.05\n[identifier]\n"
                       f"order = {huge}\n")
        rc = main(["calibrate", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: [identifier] order {huge} needs a covariance P "
            f"of {4 * huge}**2 float64 values, more than {sys.maxsize} bytes "
            "can address\n")
        assert not (tmp_path / "out").exists()


class TestBuildLibrary:
    def test_two_signatures(self, workspace, tmp_path):
        out = str(tmp_path / "lib")
        rc = main(["build-library",
                   "--config", workspace["fault.ini"],
                   "--config", workspace["load.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--out", out])
        assert rc == 0
        with open(os.path.join(out, "library.json")) as fh:
            doc = json.load(fh)
        assert sorted(e["label"] for e in doc["signatures"]) == \
            ["fault", "load_increase"]

    def test_stage_failure_exits_2_with_message(self, workspace, tmp_path,
                                                capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulator broke")

        monkeypatch.setattr("gridarx.scenario.simulate_blocks", broken)
        rc = main(["build-library", "--config", workspace["fault.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--out", str(tmp_path / "lib")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [simulate] ")
        assert "simulator broke" in err


    def test_window_past_the_run_end_exits_2(self, workspace, tmp_path,
                                             capsys):
        """The settled half of the window, [5.5, 9) s, lies past the 3 s
        run: its signature would be the mean of no rows."""
        bad = tmp_path / "short.ini"
        bad.write_text(MINI_FAULT.replace("duration = 8.0", "duration = 3")
                       .replace("t_start = 6.0", "t_start = 2")
                       .replace("t_end = 7.5", "t_end = 9"))
        out = tmp_path / "lib"
        rc = main(["build-library", "--config", str(bad),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: scenario 'short': no armed update of the run (3 s) "
            "falls in the settled half [5.5, 9) s of its disturbance window, "
            "which the signature averages; the detector arms at 1.0008 s\n")
        assert not (out / "library.json").exists()

    def test_settled_half_before_arming_exits_2(self, workspace, tmp_path,
                                                capsys, monkeypatch):
        """A copy of hif_600ohm.ini with a 3 s run and the window
        [0.2, 0.9) s: its settled half, [0.55, 0.9) s, ends before the
        detector arms at update 5000 (1.0008 s), so its signature would
        average cold-start rows. The build refuses it before simulating."""
        parser = configparser.ConfigParser()
        parser.read(os.path.join(SCENARIOS, "hif_600ohm.ini"))
        for section, key, value in (("run", "duration", "3.0"),
                                    ("disturbance", "t_start", "0.2"),
                                    ("disturbance", "t_end", "0.9")):
            parser.set(section, key, value)
        early = tmp_path / "early.ini"
        with open(early, "w") as fh:
            parser.write(fh)

        def refuse(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr("gridarx.scenario.simulate_blocks", refuse)
        out = tmp_path / "lib"
        rc = main(["build-library", "--config", str(early),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: scenario 'early': no armed update of the run (3 s) "
            "falls in the settled half [0.55, 0.9) s of its disturbance "
            "window, which the signature averages; the detector arms at "
            "1.0008 s\n")
        assert not (out / "library.json").exists()


class TestRun:
    def test_report_artifacts(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--out", out])
        assert rc == 0
        with open(os.path.join(out, "report.json")) as fh:
            text = fh.read()
        # the run prints the report it writes
        assert capsys.readouterr().out == text + "\n"
        doc = json.loads(text)
        assert doc["name"] == "fault"
        assert doc["dt1_high"] is not None
        for fname in ("samples.npy", "distance.npy", "theta.npy"):
            assert os.path.exists(os.path.join(out, fname))

    @pytest.mark.parametrize("command", ["run", "build-library"])
    def test_zero_load_resistance_exits_2_naming_file(self, workspace,
                                                      tmp_path, capsys,
                                                      command):
        bad = tmp_path / "r1_zero.ini"
        bad.write_text(MINI_FAULT + "[circuit]\nr1 = 0\n")
        rc = main([command, "--config", str(bad),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: [circuit] r1 must be > 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["hold", "calibration_window"])
    def test_count_beyond_ssize_t_exits_2_naming_key(self, workspace,
                                                     tmp_path, capsys, key):
        huge = 99999999999999999999
        bad = tmp_path / "huge.ini"
        bad.write_text(MINI_FAULT.replace("[run]\n",
                                          f"[run]\n{key} = {huge}\n"))
        rc = main(["run", "--config", str(bad),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: [run] {key}: must be <= {sys.maxsize}, got "
            f"{huge}\n")
        assert not (tmp_path / "out").exists()

    def test_arming_after_window_end_reports_no_delays(self, workspace,
                                                       tmp_path, capsys):
        """The shipped 600 ohm fault in a 3 s run with the window
        [0.2, 0.9) s: the detector arms at 1.0008 s, after the window, so
        no delay is searched for, and the report says why."""
        parser = configparser.ConfigParser()
        parser.read(os.path.join(SCENARIOS, "hif_600ohm.ini"))
        parser["run"]["duration"] = "3.0"
        parser["disturbance"]["t_start"] = "0.2"
        parser["disturbance"]["t_end"] = "0.9"
        path = tmp_path / "early.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        rc = main(["run", "--config", str(path),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("dt1_high", "dt1_low", "dt2", "dt1_high_debounced",
                    "dt1_low_debounced"):
            assert doc[key] is None, key
        assert doc["warnings"][0] == (
            "the detector arms at 1.0008 s, at or after the disturbance "
            "window ends at 0.9 s; detection delays are reported as never")

    def test_writer_error_exits_2_with_message(self, workspace, tmp_path,
                                               capsys, monkeypatch):
        def disk_full(writer, data):
            raise OSError("disk full")

        monkeypatch.setattr("gridarx.scenario._NpyWriter.write", disk_full)
        out = tmp_path / "out"
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert not out.exists()


class TestOptions:
    """The scenario file is the one source of a run's settings: the
    options name the input files and the output directory."""

    @pytest.mark.parametrize("command, options", [
        ("calibrate", {"--config"}),
        ("build-library", {"--config", "--calibration"}),
        ("run", {"--config", "--calibration", "--library"}),
        ("suite", {"--manifest", "--calibration", "--library"}),
    ])
    def test_options_name_files_only(self, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == \
            options | {"--help", "--out"}

    @pytest.mark.parametrize("option", ["--seed", "--lambda", "--rho"])
    def test_setting_option_exits_2_before_any_run(self, workspace, tmp_path,
                                                   capsys, option):
        """A run's seed, forgetting factor and order are set in its
        scenario file; the option is an error, not a silent no-op."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", workspace["fault.ini"],
                  "--calibration", workspace["calibration.json"],
                  option, "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSuite:
    def test_comparison_table(self, workspace, tmp_path):
        out = str(tmp_path / "suite")
        rc = main(["suite", "--manifest", workspace["manifest.txt"],
                   "--calibration", workspace["calibration.json"],
                   "--out", out])
        assert rc == 0
        with open(os.path.join(out, "comparison.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "scenario,method,detected,verdict,dt1,dt2"
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods == {"rarx", "limit_check"}

    def test_indented_comment_lines_skipped(self, workspace, tmp_path):
        manifest = tmp_path / "commented_manifest.txt"
        manifest.write_text(f"  # indented note\n\t# tab note\n"
                            f"{workspace['fault.ini']}\n")
        out = tmp_path / "suite"
        rc = main(["suite", "--manifest", str(manifest),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["fault", "fault"]

    def test_failing_scenario_propagates_exit_code(self, workspace,
                                                   tmp_path):
        manifest = tmp_path / "bad_manifest.txt"
        manifest.write_text("does_not_exist.ini\n")
        rc = main(["suite", "--manifest", str(manifest),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_error_rows_read_back_whole(self, workspace, tmp_path, capsys):
        """A failed scenario's message, which holds commas, is one quoted
        field: every row of comparison.csv and of stdout reads back as six
        fields through csv.reader."""
        bad = tmp_path / "typo.ini"
        bad.write_text("[run]\ndurtion = 1\n")
        with pytest.raises(ValueError) as err:
            load_scenario(str(bad))
        message = str(err.value)
        assert "," in message
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{workspace['fault.ini']}\n{bad}\n")
        out = tmp_path / "suite"
        rc = main(["suite", "--manifest", str(manifest),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 1
        with open(out / "comparison.csv", newline="") as fh:
            table = list(csv.reader(fh))
        printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert printed == table[1:]
        assert [len(row) for row in table] == [6] * 5
        assert table[3:] == [["typo", method, "error", message, "", ""]
                             for method in ("rarx", "limit_check")]


def _library_file(tmp_path, **entry):
    """A library.json with one signature, its fields overridden by
    `entry` (a None value drops the field)."""
    sig = {"label": "fault", "delta_theta": [1.0] + [0.0] * 23,
           "shape": [2, 12], "source_scenario": "load_0p35"}
    sig.update(entry)
    sig = {k: v for k, v in sig.items() if v is not None}
    path = tmp_path / "library.json"
    path.write_text(json.dumps({"version": 1, "order": 3,
                                "signatures": [sig]}))
    return str(path)


class TestLibraryFile:
    """`run` and `suite` load --library the same way; a malformed library
    exits 2 with a message that names the file."""

    def _args(self, command, workspace, tmp_path, library):
        source = ["--config", workspace["fault.ini"]] if command == "run" \
            else ["--manifest", workspace["manifest.txt"]]
        return [command, *source,
                "--calibration", workspace["calibration.json"],
                "--library", library, "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("entry, message", [
        ({"label": "normal"}, "label 'normal' is not a signature label"),
        ({"shape": None}, "missing key 'shape'"),
        ({"delta_theta": [float("nan")] * 24},
         "library entry 0 ('load_0p35'): delta_theta holds a non-finite "
         "value"),
    ])
    def test_bad_library_names_file(self, workspace, tmp_path, capsys,
                                    command, entry, message):
        library = _library_file(tmp_path, **entry)
        rc = main(self._args(command, workspace, tmp_path, library))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {library}: ")
        assert message in err
        assert not (tmp_path / "out").exists()


class TestCalibrationFile:
    """`run`, `suite` and `build-library` load --calibration the same way;
    a malformed calibration exits 2 with a message that names the file."""

    def _args(self, command, workspace, calibration, out):
        if command == "build-library":
            return [command, "--config", workspace["fault.ini"],
                    "--calibration", calibration, "--out", out]
        source = ["--config", workspace["fault.ini"]] if command == "run" \
            else ["--manifest", workspace["manifest.txt"]]
        return [command, *source, "--calibration", calibration,
                "--out", out]

    @pytest.mark.parametrize("command", ["run", "suite", "build-library"])
    @pytest.mark.parametrize("change, message", [
        ({"calibrated_at": None}, "missing key 'calibrated_at'"),
        ({"d_low": 1e9}, "need 0 < d_low < d_high"),
        ({"d_high": "high"}, "d_high: expected a number, got 'high'"),
        # an integer beyond the float range, which JSON allows
        ({"d_high": 10**400}, "int too large to convert to float"),
    ])
    def test_bad_calibration_names_file(self, workspace, tmp_path, capsys,
                                        command, change, message):
        with open(workspace["calibration.json"]) as fh:
            doc = json.load(fh)
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(self._args(command, workspace, str(path), str(out)))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert not out.exists()


def _set(key, value):
    """A change to a parsed JSON file: `key` set to `value`."""
    return lambda doc: doc.update({key: value})


def _nan_in_theta_star(doc):
    doc["theta_star"][1][3] = float("nan")


class TestFileValues:
    """A calibration or library value of the wrong type, or not finite,
    fails `run` at load with exit 2, and the error names the file and the
    key; nothing is simulated."""

    @pytest.mark.parametrize("name, change, message", [
        ("calibration.json", _set("d_high", "4.5"),
         "d_high: expected a number, got '4.5'"),
        ("calibration.json", _set("d_low", None),
         "d_low: expected a number, got None"),
        ("calibration.json", _nan_in_theta_star,
         "theta_star holds a non-finite value"),
        ("calibration.json", _set("d_high", 10**400),
         "d_high: int too large to convert to float"),
        ("library.json", _set("order", None),
         "order: expected an integer >= 1, got None"),
        ("library.json", _set("order", "3"),
         "order: expected an integer >= 1, got '3'"),
    ], ids=["d_high_string", "d_low_null", "theta_star_nan",
            "d_high_huge_int", "order_null", "order_string"])
    def test_run_names_the_key(self, workspace, tmp_path, capsys, name,
                               change, message):
        with open(workspace["calibration.json"]) as fh:
            docs = {"calibration.json": json.load(fh)}
        with open(_library_file(tmp_path)) as fh:
            docs["library.json"] = json.load(fh)
        change(docs[name])
        for file, doc in docs.items():
            (tmp_path / file).write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", str(tmp_path / "calibration.json"),
                   "--library", str(tmp_path / "library.json"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / name}: {message}\n"
        assert not out.exists()


def _set_entry(key, value):
    """A change to a parsed library.json: its one entry's `key` set to
    `value`."""
    return lambda doc: doc["signatures"][0].update({key: value})


def _top_level_list(doc):
    """A change that replaces the whole document with a list."""
    return [1]


# A malformed calibration or library file, as (file, change, message): the
# file fails at load with ValueError naming the key or the entry.
MALFORMED = {
    "signatures_object": ("library.json", _set("signatures", {"a": 1}),
                          "signatures: expected a list, got {'a': 1}"),
    "signatures_null": ("library.json", _set("signatures", None),
                        "signatures: expected a list, got None"),
    "entry_list": ("library.json", _set("signatures", [["fault"]]),
                   "library entry 0: expected an object, got ['fault']"),
    "shape_number": ("library.json", _set_entry("shape", 8),
                     "library entry 0 ('load_0p35'): shape 8 does not match "
                     "the library's order 3, which needs (2, 12)"),
    "source_number": ("library.json", _set_entry("source_scenario", 5),
                      "library entry 0: source_scenario: expected a string, "
                      "got 5"),
    "library_list": ("library.json", _top_level_list,
                     "top level: expected an object, got [1]"),
    "calibration_list": ("calibration.json", _top_level_list,
                         "top level: expected an object, got [1]"),
    "window_zero": ("calibration.json", _set("calibration_window", 0),
                    "calibration_window: expected an integer >= 1, got 0"),
    "window_fraction": ("calibration.json", _set("calibration_window", 2.5),
                        "calibration_window: expected an integer >= 1, got "
                        "2.5"),
}


class TestMalformedFiles:
    """A calibration or library file of the wrong structure raises
    ValueError naming the key or the entry, at its parser and through
    `run` (exit 2, naming the file), instead of a traceback."""

    @staticmethod
    def documents(workspace, tmp_path, name, change):
        """The workspace calibration and a one-entry library, `change`
        applied to `name`'s (in place, or by returning the new document),
        as JSON texts by file name."""
        with open(workspace["calibration.json"]) as fh:
            docs = {"calibration.json": json.load(fh)}
        with open(_library_file(tmp_path)) as fh:
            docs["library.json"] = json.load(fh)
        docs[name] = change(docs[name]) or docs[name]
        return {file: json.dumps(doc) for file, doc in docs.items()}

    @pytest.mark.parametrize("case", MALFORMED)
    def test_parser_names_the_key(self, workspace, tmp_path, case):
        name, change, message = MALFORMED[case]
        text = self.documents(workspace, tmp_path, name, change)[name]
        parse = SignatureLibrary.from_json if name == "library.json" \
            else calibration_from_json
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("case", MALFORMED)
    def test_run_names_the_file_and_key(self, workspace, tmp_path, capsys,
                                        case):
        name, change, message = MALFORMED[case]
        for file, text in self.documents(workspace, tmp_path, name,
                                         change).items():
            (tmp_path / file).write_text(text)
        out = tmp_path / "out"
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", str(tmp_path / "calibration.json"),
                   "--library", str(tmp_path / "library.json"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / name}: {message}\n"
        assert not out.exists()


class TestManifest:
    """A manifest whose scenarios would overwrite each other's artifacts,
    or that lists none, exits 2 before any run."""

    @pytest.mark.parametrize("lines, message", [
        ("fault.ini\nsub/FAULT.ini\n", "have the same name 'FAULT'"),
        ("# nothing here\n", "the manifest lists no scenarios"),
    ])
    def test_rejected_before_any_run(self, workspace, tmp_path, capsys,
                                     lines, message):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "FAULT.ini").write_text(MINI_FAULT)
        (tmp_path / "fault.ini").write_text(MINI_FAULT)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(lines)
        out = tmp_path / "out"
        rc = main(["suite", "--manifest", str(manifest),
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ")
        assert message in err
        assert not out.exists()


class TestPoles:
    def test_defaults_agree_with_oracle(self, capsys):
        assert main(["poles"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for entry in doc["fault"] + doc["load"]:
            assert entry["max_abs_error"] < 1e-6

    def test_custom_points(self, capsys):
        assert main(["poles", "--r-fault", "1.0", "--l-load", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fault"][0]["r_fault_pu"] == 1.0
        assert doc["load"][0]["l_load_pu"] == 0.2

    def test_whole_document(self, capsys):
        """The printed JSON of one fault and one load point, key order
        included, against the closed forms and the eigenvalue oracle."""
        params = CircuitParams()

        def entry(key, value, formula, model):
            formula = sorted(formula, key=lambda z: z.imag)
            numeric = sorted(numeric_poles(model), key=lambda z: z.imag)
            return {key: value,
                    "formula": [[z.real, z.imag] for z in formula],
                    "numeric": [[z.real, z.imag] for z in numeric],
                    "max_abs_error": max(abs(f - n) for f, n in
                                         zip(formula, numeric))}

        want = {
            "normalization": "s in units of the grid frequency omega_g",
            "fault": [entry("r_fault_pu", 1.0, fault_poles(1.0, params),
                            simplified_fault_model(1.0, params))],
            "load": [entry("l_load_pu", 0.2, load_poles(0.2, params),
                           simplified_load_model(0.2, params))],
        }
        assert main(["poles", "--r-fault", "1.0", "--l-load", "0.2"]) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_installed_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gridarx.cli", "poles"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"fault"' in proc.stdout


# The OpenBLAS that a numpy wheel bundles; a numpy built against another
# BLAS bundles none.
BLAS_LIBRARY = "numpy.libs/libscipy_openblas64_*"
# Loads that library (argv[1]) before gridarx is imported and sets it to
# two threads; then runs the code in argv[2] and prints the thread count.
BLAS_THREADS_PROBE = """\
import ctypes, sys
blas = ctypes.CDLL(sys.argv[1])
blas.scipy_openblas_set_num_threads64_(2)
exec(sys.argv[2])
print(blas.scipy_openblas_get_num_threads64_())
"""


class TestBlasThreads:
    """Importing gridarx leaves the thread count of numpy's BLAS as it
    was."""

    def threads_after(self, code):
        found = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
            np.__file__)), BLAS_LIBRARY))
        if not found:
            pytest.skip(f"numpy bundles no {BLAS_LIBRARY}")
        (path,) = found
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE,
                               path, code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1])

    def test_import_keeps_the_thread_count(self):
        assert self.threads_after(
            "import gridarx, gridarx.cli, gridarx._kernels") == 2
