"""The bytes of the CLI's files: the 28 calibrate, build-library and suite
files of the shipped scenarios against the committed record
`scenarios/golden.sha256`, a short pass whose files do not depend on
the CPU code paths of numpy or of its BLAS library, and a check of the
source for products whose summation order numpy picks."""

import ast
import configparser
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridarx
from gridarx.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RECORD = SCENARIOS / "golden.sha256"

# Other CPU code paths than the machine's own: OpenBLAS's oldest x86-64
# kernels, and numpy's SIMD loops without AVX2 and AVX-512 (numpy 2.4's
# feature names).
OTHER_CPU = {"OPENBLAS_CORETYPE": "Prescott",
             "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}

# calibrate, build-library and run of the scenario files in argv[1:3] into
# the directory argv[3]
SHORT_PASS = """\
import sys
from gridarx.cli import main
cal_ini, hif_ini, out = sys.argv[1:]
cal = out + "/cal/calibration.json"
for argv in (
        ["calibrate", "--config", cal_ini, "--out", out + "/cal"],
        ["build-library", "--config", hif_ini, "--calibration", cal,
         "--out", out + "/lib"],
        ["run", "--config", hif_ini, "--calibration", cal, "--library",
         out + "/lib/library.json", "--out", out + "/run"]):
    if main(argv) != 0:
        sys.exit(argv[0] + " failed")
"""


def digests(root: Path) -> dict:
    """{path relative to root: sha256} of every file under root."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_cli_files_match_the_record(tmp_path):
    cal = tmp_path / "cal" / "calibration.json"
    for argv in (
            ["calibrate", "--config", SCENARIOS / "calibration.ini",
             "--out", tmp_path / "cal"],
            ["build-library", "--config", SCENARIOS / "hif_600ohm.ini",
             "--config", SCENARIOS / "load_0p35.ini", "--calibration", cal,
             "--out", tmp_path / "lib"],
            ["suite", "--manifest", SCENARIOS / "manifest.txt",
             "--calibration", cal, "--library",
             tmp_path / "lib" / "library.json", "--out", tmp_path / "suite"]):
        assert main([str(arg) for arg in argv]) == 0
    record = {path: digest for digest, path in
              (line.split() for line in RECORD.read_text().splitlines())}
    assert len(record) == 28
    assert digests(tmp_path) == record


def scaled_copy(name: str, out: Path, **run) -> str:
    """The shipped scenario `name` with the [run] and [disturbance] keys
    of `run` replaced, written into `out`."""
    parser = configparser.ConfigParser()
    parser.read(SCENARIOS / name)
    for key, value in run.items():
        section = "run" if key == "duration" else "disturbance"
        parser.set(section, key, str(value))
    path = out / name
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the other code paths named are x86-64's")
def test_bytes_do_not_depend_on_the_cpu_path(tmp_path):
    """A 3 s calibration and a 3 s 600 ohm fault from 1 s to 2 s, with a
    library built from that fault, in two processes: one on the machine's
    own code paths and one on OTHER_CPU's. Every file is byte-equal."""
    files = [scaled_copy("calibration.ini", tmp_path, duration=3.0),
             scaled_copy("hif_600ohm.ini", tmp_path, duration=3.0,
                         t_start=1.0, t_end=2.0)]
    env = {key: value for key, value in os.environ.items()
           if key not in OTHER_CPU}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(gridarx.__file__)),
         env.get("PYTHONPATH", "")])
    for name, extra in (("own", {}), ("other", OTHER_CPU)):
        proc = subprocess.run(
            [sys.executable, "-c", SHORT_PASS, *files, str(tmp_path / name)],
            env={**env, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    own = digests(tmp_path / "own")
    assert len(own) == 7
    assert digests(tmp_path / "other") == own


PACKAGE = Path(gridarx.__file__).resolve().parent
# numpy's products, whose summation order numpy or its BLAS library picks
PRODUCTS = {"dot", "einsum", "matmul", "inner", "tensordot", "vdot"}
# numpy's float reductions and scans, whose summation order numpy picks
# (pairwise along a contiguous axis, one row after another across rows):
# called from np, or as a method given an axis; `reduce` and `accumulate`
# are those of any ufunc, np.add's among them
REDUCTIONS = {"sum", "nansum", "mean", "nanmean", "average", "std", "var",
              "nanstd", "nanvar", "cumsum", "nancumsum", "reduce",
              "accumulate"}
# the functions that may call them: the spectral clamp of P, and the
# eigenvalues of the `poles` command, which no run calls
EXEMPT = {("rls.py", "_clamp"), ("circuit.py", "numeric_poles")}
# the C API's products, and any CBLAS routine
C_PRODUCTS = re.compile(r"\b(PyArray_EinsteinSum|PyArray_MatrixProduct\w*"
                        r"|PyArray_InnerProduct|cblas_\w+)\s*\(")


def dotted(node) -> str:
    """`np.linalg.eigh` for the expression np.linalg.eigh, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def product_sites(path: Path):
    """(function, line, what) of each `@` and each call of a numpy product,
    reduction or scan, or of an np.linalg routine (its exception classes
    aside), in the module at `path`; function is the innermost enclosing
    def, or ''."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            sites.append((func, node.lineno, "@"))
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            attr = getattr(node.func, "attr", None)
            if (attr in PRODUCTS
                    or attr in REDUCTIONS and (name.startswith("np.")
                                               or node.args or node.keywords)
                    or ".linalg." in name and not name.endswith("Error")):
                sites.append((func, node.lineno, name or attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), "")
    return sites


def test_no_product_order_left_to_numpy():
    """README's Artifacts promise, read from the source, since the record
    holds no similarity: outside EXEMPT, no module of the package makes a
    product, a float reduction along an axis or a scan whose summation
    order numpy or its BLAS picks, and the C kernels call no product of
    numpy's C API and no CBLAS routine. Each EXEMPT function still holds
    such a product, so the check sees them."""
    found = [(path.name, *site) for path in sorted(PACKAGE.glob("*.py"))
             for site in product_sites(path)]
    assert [site for site in found if site[:2] not in EXEMPT] == []
    assert {site[:2] for site in found} == EXEMPT
    code = re.sub(r"/\*.*?\*/|//[^\n]*", "",
                  (PACKAGE / "_kernels.c").read_text(), flags=re.S)
    assert C_PRODUCTS.findall(code) == []


def test_the_source_check_sees_reductions(tmp_path):
    """`product_sites` flags the reductions and scans the package gave up
    for loops of its own (`RunningMean`'s and `calibrate_nominal`'s axis-0
    sums, the baseline's window sum); a maximum, which has one value
    whatever the order, and a method of that name given no axis (such as
    `RunningMean.mean`) stay unflagged."""
    module = tmp_path / "module.py"
    module.write_text(
        "def f(x, settled):\n"
        "    a = np.mean(x, axis=0)\n"
        "    b = np.add.reduce(x, axis=0)\n"
        "    c = np.cumsum(x, axis=0)\n"
        "    d = x.sum(axis=1) + x.mean(0) + settled.mean()\n"
        "    return a + b + c + d + np.max(x, axis=0)\n")
    assert product_sites(module) == [
        ("f", 2, "np.mean"), ("f", 3, "np.add.reduce"), ("f", 4, "np.cumsum"),
        ("f", 5, "x.sum"), ("f", 5, "x.mean")]
