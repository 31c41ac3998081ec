"""The C step loops of `rls.rls_run` and `simulate._step`, compiled at import.

`_kernels.c` is compiled with the C compiler `CC` into a shared library in
the `__pycache__` directory beside it, whose name carries the sha256 of the
source, the compiler command with its flags and the BLAS path; a library
under any other name is never loaded, and a process that compiles a new
one removes the other `_kernels.*.so` files there. The compiler writes
under a temporary name, which is then moved into place, so processes that
import into one empty cache at once each load a whole library.

The kernels make their matrix-vector and dot products through the BLAS
functions that `np.dot` calls: those of the scipy-openblas64 that numpy's
wheels bundle in `numpy.libs`. So they give the bits of the numpy loops
they replace. A missing compiler, a failed compile or a numpy without that
BLAS raises ImportError naming what was looked for.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os

import numpy as np

CC = "cc"
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_kernels.c")
BLAS_DIR = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
BLAS_PREFIX = "libscipy_openblas64_"
DGEMV, DDOT = "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_"

# gridarx_rls_rows' return values, as in _kernels.c
RLS_DONE, RLS_CHECK_SPECTRUM, RLS_REJECTED = 0, 1, 2


def _numpy_blas() -> str:
    """Path of the scipy-openblas64 library bundled with numpy."""
    try:
        names = [n for n in os.listdir(BLAS_DIR) if n.startswith(BLAS_PREFIX)]
    except OSError:
        names = []
    if len(names) != 1:
        raise ImportError(
            f"gridarx needs the {BLAS_PREFIX}*.so that numpy's wheels "
            f"bundle; found {len(names)} in {BLAS_DIR}")
    return os.path.join(BLAS_DIR, names[0])


def _compile(path: str) -> None:
    """Compile SOURCE into the library `path`."""
    import subprocess
    import tempfile

    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
        done = subprocess.run([CC, *CFLAGS, "-o", tmp, SOURCE],
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
        raise ImportError(f"{CC} {' '.join(CFLAGS)} failed on {SOURCE}:\n"
                          f"{done.stderr}")


def _load():
    """(library, dgemv address, ddot address, BLAS path)."""
    blas_path = _numpy_blas()
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(b"\0".join(
        [source, " ".join((CC, *CFLAGS)).encode(), blas_path.encode()]))
    path = os.path.join(os.path.dirname(SOURCE), "__pycache__",
                        f"_kernels.{digest.hexdigest()}.so")
    if not os.path.exists(path):
        _compile(path)
        # the libraries of other sources, compilers or BLAS builds; another
        # process's compiler output, under its temporary name, is not one
        for stale in glob.glob(os.path.join(os.path.dirname(path),
                                            "_kernels.*.so")):
            if stale != path:
                try:
                    os.remove(stale)
                except FileNotFoundError:  # removed by another process
                    pass
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise ImportError(
            f"cannot load {path}, compiled from {SOURCE}: {exc}") from None
    try:
        blas = ctypes.CDLL(blas_path)
        dgemv, ddot = getattr(blas, DGEMV), getattr(blas, DDOT)
    except (OSError, AttributeError) as exc:
        raise ImportError(
            f"no {DGEMV} and {DDOT} in {blas_path}: {exc}") from None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.gridarx_rls_rows.argtypes = (
        [ptr, ptr, i64, i64, i64] + [ptr] * 5 + [f64, f64, i64, i64, f64]
        + [ptr] * 3)
    lib.gridarx_rls_rows.restype = ctypes.c_int
    lib.gridarx_sim_rows.argtypes = [ptr, i64, i64, i64] + [ptr] * 5
    lib.gridarx_sim_rows.restype = None
    address = ctypes.cast(dgemv, ptr).value, ctypes.cast(ddot, ptr).value
    return lib, *address, blas_path


LIBRARY, DGEMV_ADDRESS, DDOT_ADDRESS, BLAS_PATH = _load()


def _pointer(a: np.ndarray, shape: tuple, dtype=np.float64) -> int:
    """Address of `a`'s data, once `a` is checked to be a C-contiguous
    array of `shape` and `dtype`."""
    if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(
            f"kernel argument of shape {a.shape}, dtype {a.dtype}: expected "
            f"a C-contiguous {np.dtype(dtype)} array of shape {shape}")
    return a.ctypes.data


def rls_rows(Y, Phi, stack, theta_traj, innovation, lam, min_denom, count0,
             interval, ceiling_sq, row, denom) -> int:
    """Run `gridarx_rls_rows` from row `row[0]` of the block (see
    _kernels.c); `row` (one int64) and `denom` (one float64) are its
    outputs."""
    m, r = Y.shape
    n = Phi.shape[1]
    work = np.empty(2 * n + r)
    return LIBRARY.gridarx_rls_rows(
        DGEMV_ADDRESS, DDOT_ADDRESS, m, n, r, _pointer(Y, (m, r)),
        _pointer(Phi, (m, n)), _pointer(stack, (n + r, n)),
        _pointer(theta_traj, (m, r, n)), _pointer(innovation, (m, r)),
        lam, min_denom, count0, interval, ceiling_sq,
        _pointer(work, (2 * n + r,)),
        _pointer(row, (1,), np.int64), _pointer(denom, (1,)))


def sim_rows(FC, x, drive, v) -> None:
    """Step state `x` over the rows of `drive` (see _kernels.c)."""
    m, nv = v.shape
    nx = x.shape[0]
    work = np.empty(nx + nv)
    LIBRARY.gridarx_sim_rows(
        DGEMV_ADDRESS, m, nx, nv, _pointer(FC, (nx + nv, nx)),
        _pointer(x, (nx,)), _pointer(drive, (m, nx)), _pointer(v, (m, nv)),
        _pointer(work, (nx + nv,)))
