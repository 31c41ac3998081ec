"""The per-sample loops of gridarx, a C extension module compiled at import.

`_kernels.c` holds the block kernels of `rls.run_block` (for
`pipeline.identify` and `rls.rls_update`), `detector.classify_series`,
`detector.distances` and `scenario.Detector`'s debounce with a run's first
times (and `detector.debounce`), the running sums of `detector.RunningMean`
and of the baseline's one-cycle average, and the step loop that
`simulate._simulate_blocks` calls for each block's overlap with each
topology segment (`sim_rows`). It is built on numpy's C API: it is
compiled with the C compiler `CC` against the headers of the running
Python (`INCLUDE`) and numpy (`NUMPY_INCLUDE`) into an extension module in
the `__pycache__` directory beside it, whose name carries the sha256 of
the source, the compiler command with its flags and include directories,
numpy's version and the interpreter's `EXT_SUFFIX`; a module under any
other name is never loaded, and a process that compiles a new one removes
the other `_kernels.*.so` files there. The compiler
writes under a temporary name, which is then moved into place, so
processes that import into one empty cache at once each load a whole
module.

A stream block takes three calls: `rls_block` converts the streams,
allocates every output of `identify` and steps the block, making each
update's regressor as it goes (`regressor_rows` makes them all, for
`IdentRun.y` and `.phi`), and calls the spectral clamp of the covariance
(`rls._clamp`, a Python callable in `ArxConfig.kernel_params`) when a step
needs it;
`classify_block` takes each snapshot's distance, its band products with
the signatures and its verdict in one pass; `debounce_block` debounces
the verdicts and returns the block's transitions, and updates in place
two arrays that a run carries: the debounce's state (int64 current,
candidate and streak) and the five first times of the disturbance window
(float64, NaN until found), written only when the call succeeds. The
arrays an entry point reads or writes in place are checked for dtype,
shape, C-contiguity and writability, raising ValueError naming the
function and the argument.
Every product sums left to right in C, so no output depends on the BLAS
library numpy was built with. A missing compiler, Python or
numpy header or a failed compile raises ImportError naming what was
looked for.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.machinery
import os
import sysconfig

import numpy as np

CC = "cc"
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
INCLUDE = sysconfig.get_paths()["include"]
NUMPY_INCLUDE = np.get_include()
NUMPY_VERSION = np.__version__
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_kernels.c")
COMMAND = (CC, *CFLAGS, f"-I{INCLUDE}", f"-I{NUMPY_INCLUDE}")
# the extension's module name; its last part names the init function,
# PyInit__kernels_ext in _kernels.c
MODULE = "gridarx._kernels_ext"


def _compile(path: str) -> None:
    """Compile SOURCE into the extension module `path`."""
    import subprocess
    import tempfile

    if not os.path.isfile(os.path.join(INCLUDE, "Python.h")):
        raise ImportError(
            f"no Python.h in {INCLUDE}: gridarx compiles {SOURCE} against "
            "the headers of the running Python (a python3-dev package)")
    if not os.path.isfile(os.path.join(NUMPY_INCLUDE, "numpy",
                                       "arrayobject.h")):
        raise ImportError(
            f"no numpy/arrayobject.h in {NUMPY_INCLUDE}: gridarx compiles "
            f"{SOURCE} against the headers of the running numpy")
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
        done = subprocess.run([*COMMAND, "-o", tmp, SOURCE],
                              capture_output=True, text=True)
        if done.returncode == 0:
            os.replace(tmp, path)
    except OSError as exc:
        raise ImportError(f"cannot compile {SOURCE} with the C compiler "
                          f"{CC!r}: {exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
    if done.returncode != 0:
        raise ImportError(f"{' '.join(COMMAND)} failed on {SOURCE}:\n"
                          f"{done.stderr}")


def _load():
    """The extension module, compiled into the cache if need be."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(b"\0".join(
        [source, " ".join(COMMAND).encode(), NUMPY_VERSION.encode(),
         EXT_SUFFIX.encode()]))
    path = os.path.join(os.path.dirname(SOURCE), "__pycache__",
                        f"_kernels.{digest.hexdigest()}{EXT_SUFFIX}")
    if not os.path.exists(path):
        _compile(path)
        # the modules of other sources, compilers, Pythons or numpys;
        # another process's compiler output, under its temporary
        # name, is not one
        for stale in glob.glob(os.path.join(os.path.dirname(path),
                                            "_kernels.*.so")):
            if stale != path:
                try:
                    os.remove(stale)
                except FileNotFoundError:  # removed by another process
                    pass
    loader = importlib.machinery.ExtensionFileLoader(MODULE, path)
    spec = importlib.machinery.ModuleSpec(MODULE, loader, origin=path)
    try:
        module = loader.create_module(spec)
        loader.exec_module(module)
    except ImportError as exc:
        raise ImportError(
            f"cannot load {path}, compiled from {SOURCE}: {exc}") from None
    return module


EXTENSION = _load()

# the entry points (see their docstrings) and their exception
rls_block = EXTENSION.rls_block
regressor_rows = EXTENSION.regressor_rows
sim_rows = EXTENSION.sim_rows
distance_block = EXTENSION.distance_block
classify_block = EXTENSION.classify_block
debounce_block = EXTENSION.debounce_block
add_rows = EXTENSION.add_rows
cycle_average = EXTENSION.cycle_average
UpdateRejectedError = EXTENSION.UpdateRejectedError
