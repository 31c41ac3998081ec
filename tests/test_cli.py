"""Command-line interface: each subcommand exercised end to end on
compressed scenarios."""

import json
import os
import subprocess
import sys

import pytest

from gridarx.cli import main

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
            "error: scenario 'short': no update of the run (3 s) falls in "
            "the settled half [5.5, 9) s of its disturbance window, which "
            "the signature averages\n")
        assert not (out / "library.json").exists()


class TestRun:
    def test_report_artifacts(self, workspace, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--out", out])
        assert rc == 0
        with open(os.path.join(out, "report.json")) as fh:
            doc = json.load(fh)
        assert doc["name"] == "fault"
        assert doc["dt1_high"] is not None
        for fname in ("samples.csv", "distance.csv", "theta.csv"):
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

    def test_negative_seed_override_exits_2_naming_option(self, workspace,
                                                          tmp_path, capsys):
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--seed", "-2", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: --seed: seed must be >= 0, got -2\n"
        assert not (tmp_path / "out").exists()

    def test_writer_error_exits_2_with_message(self, workspace, tmp_path,
                                               capsys, monkeypatch):
        def disk_full(writer, data):
            raise OSError("disk full")

        monkeypatch.setattr("gridarx.scenario._CsvWriter.write", disk_full)
        out = tmp_path / "out"
        rc = main(["run", "--config", workspace["fault.ini"],
                   "--calibration", workspace["calibration.json"],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert not out.exists()


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
        ({"d_high": "high"}, "not supported between"),
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


def test_installed_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gridarx.cli", "poles"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"fault"' in proc.stdout
