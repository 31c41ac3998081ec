"""Building and loading the C extension module of the step loops: each
check imports a copy of the package in its own process, into an empty
module cache."""

import os
import shutil
import subprocess
import sys

import pytest

import gridarx

# The sha256 of the bits of a short simulate + identify run.
DIGEST = """
import hashlib

import gridarx
from gridarx.rls import ArxConfig
from gridarx.signals import RbsConfig
from gridarx.simulate import simulate


def digest():
    sim = simulate(gridarx.CircuitParams(), None, RbsConfig(
        amplitude=0.1, chip_rate=5000.0, seed=1), 0.2)
    run = gridarx.identify(sim, ArxConfig())
    return hashlib.sha256(sim.v_dq.tobytes() + run.theta.tobytes()
                          + run.final_state.P.tobytes()).hexdigest()
"""
# Imports gridarx, prints the loaded extension's path, then the digest.
PROBE = DIGEST + """
from gridarx import _kernels
print(_kernels.EXTENSION.__file__)
print(digest())
"""


def digest_here():
    namespace = {}
    exec(DIGEST, namespace)
    return namespace["digest"]()


@pytest.fixture
def package(tmp_path):
    """A copy of the gridarx sources without their library cache: the
    directory to put on PYTHONPATH."""
    source = os.path.dirname(gridarx.__file__)
    shutil.copytree(source, tmp_path / "gridarx",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def start_probe(package):
    env = dict(os.environ, PYTHONPATH=str(package))
    return subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def run_probe(package):
    probe = start_probe(package)
    out, err = probe.communicate(timeout=120)
    return probe.returncode, out.split(), err


def cache(package):
    return package / "gridarx" / "__pycache__"


def libraries(package):
    return sorted(p.name for p in cache(package).glob("*.so"))


def test_missing_compiler_names_command_and_source(package):
    loader = package / "gridarx" / "_kernels.py"
    text = loader.read_text()
    assert text.count('CC = "cc"\n') == 1
    loader.write_text(text.replace('CC = "cc"\n', 'CC = "gridarx-no-cc"\n'))
    code, _, err = run_probe(package)
    assert code != 0
    last = err.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert "'gridarx-no-cc'" in last
    assert str(package / "gridarx" / "_kernels.c") in last
    assert libraries(package) == []


def test_missing_python_header_names_include_dir(package):
    loader = package / "gridarx" / "_kernels.py"
    text = loader.read_text()
    line = 'INCLUDE = sysconfig.get_paths()["include"]\n'
    assert text.count(line) == 1
    missing = package / "no-python-include"
    loader.write_text(text.replace(line, f"INCLUDE = {str(missing)!r}\n"))
    code, _, err = run_probe(package)
    assert code != 0
    last = err.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert f"no Python.h in {missing}" in last
    assert libraries(package) == []


def test_missing_numpy_header_names_include_dir(package):
    loader = package / "gridarx" / "_kernels.py"
    text = loader.read_text()
    line = "NUMPY_INCLUDE = np.get_include()\n"
    assert text.count(line) == 1
    missing = package / "no-numpy-include"
    loader.write_text(text.replace(line, f"NUMPY_INCLUDE = {str(missing)!r}\n"))
    code, _, err = run_probe(package)
    assert code != 0
    last = err.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert f"no numpy/arrayobject.h in {missing}" in last
    assert libraries(package) == []


def test_library_of_another_numpy_is_never_loaded(package):
    """The module is built against numpy's headers and ABI: another numpy
    version compiles a module of its own, which replaces the first."""
    code, (first, digest), err = run_probe(package)
    assert code == 0, err
    loader = package / "gridarx" / "_kernels.py"
    text = loader.read_text()
    line = "NUMPY_VERSION = np.__version__\n"
    assert text.count(line) == 1
    loader.write_text(text.replace(line, 'NUMPY_VERSION = "0.0.0"\n'))
    code, (second, digest_after), err = run_probe(package)
    assert code == 0, err
    assert second != first
    assert digest_after == digest
    assert libraries(package) == [os.path.basename(second)]


def test_library_of_another_source_is_never_loaded(package):
    """The new library replaces the stale one in the cache; another
    process's compiler output, under a temporary name, stays."""
    code, (first, digest), err = run_probe(package)
    assert code == 0, err
    assert libraries(package) == [os.path.basename(first)]
    # the cached library is now unloadable, and the source changes
    with open(first, "wb") as fh:
        fh.write(b"not a shared library")
    with open(package / "gridarx" / "_kernels.c", "a") as fh:
        fh.write("/* another source */\n")
    (cache(package) / "tmp_compiling.so").write_bytes(b"")
    code, (second, digest_after), err = run_probe(package)
    assert code == 0, err
    assert second != first
    assert digest_after == digest == digest_here()
    assert libraries(package) == [os.path.basename(second),
                                  "tmp_compiling.so"]


def test_two_processes_compile_into_one_empty_cache(package):
    probes = [start_probe(package) for _ in range(2)]
    results = [probe.communicate(timeout=120) for probe in probes]
    for probe, (_, err) in zip(probes, results):
        assert probe.returncode == 0, err
    (path_a, digest_a), (path_b, digest_b) = (out.split()
                                              for out, _ in results)
    assert path_a == path_b
    assert digest_a == digest_b == digest_here()
    # one library, and no compiler output left under a temporary name
    assert libraries(package) == [os.path.basename(path_a)]
