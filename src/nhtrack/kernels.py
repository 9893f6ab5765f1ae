"""Compiled kernels: fixed-step RK4 rollouts for the particle flows, and CSV text.

Shooting evaluates a full state-costate integration for every residual
and every Jacobian, so the inner loop matters. The RK4 loop and the three
right-hand sides (reduced, unreduced, and coupled with the derived or
paper-literal adjoint) live in the C file `_rk4.c` next to this module,
which is compiled without floating-point contraction. The coupled rhs is
the package's one copy of the particle's state-costate equations; the
reduced and unreduced ones give, bit for bit, the IEEE double slopes of
the Python models in `tests/oracles.py`.

`rollout_paired` integrates the product flow [reduced | unreduced], whose
rhs in `_rk4.c` calls the reduced rhs on the first 5 entries and the
unreduced rhs on the last 6. RK4 acts entry by entry and the halves do
not interact, so columns [:5] and [5:] are, bit for bit, the rows of
`rollout_reduced` and `rollout_unreduced` from the same starts. Each
step of either flow waits on the divisions of the step before; one loop
over both overlaps the two chains, so a paired rollout takes about half
the time of the two single ones (0.37 against 0.72 ms for 4000 steps on
a 2-vCPU Xeon VM). `check_oracle_equivalence` compares the two halves.

Two entry points reach the coupled rhs. `rollout_coupled` integrates it.
Given a (10, 5) block that the caller owns and seeds, such as S =
dz/dalpha = [0; I] for the initial costate, the same loop advances it in
place as the forward sensitivity of the coupled flow, from the
hand-written Jacobian of the coupled rhs in `_rk4.c`; the states it
writes are those of a plain rollout, bit for bit. `coupled_rhs`
evaluates the rhs itself at stacked rows, as the checks, the Python
Hamiltonian (through `tracking.particle_slopes`) and the symbolic oracle
tests read it.

The reduced, unreduced and paired rollouts restart exactly: neither rhs
reads the half-grid index, so a rollout of m steps from the last row of
one of n steps gives, with its repeated first row dropped, the rows of
one rollout of n + m steps bit for bit. `check_oracle_equivalence`
streams its 40,000 paired steps in blocks this way. A coupled rollout
does not restart so: its half-grid index starts at 0 in every call, so a
second call reads its reference from the first row of the table again.

The same library formats float64 tables as CSV text (`format_csv`), each
value exactly as Python's repr writes it, from the C++17 file `_csv.cc`.

Both sources are compiled by one call of the system compiler `cc` on first
use (which must also compile C++17 with a floating-point std::to_chars) and
cached as `__pycache__/_rk4-<CRC-32 of sources and flags>.so` beside this
module. When `__pycache__` is not writable, each process builds it in a
private temporary directory and removes that directory once the library
is loaded. This module checks every array and step argument before a
pointer reaches the library, and calls it through ctypes. It allocates
every array but the two the caller owns: a sensitivity block and
`format_csv`'s output buffer.

State layouts (matching the CSV column order):
    reduced   [x, y, z, v1, v2]
    unreduced [x, y, z, vx, vy, vz]
    coupled   [x, y, z, v1, v2, l1, l2, l3, m1, m2]
    paired    [x, y, z, v1, v2, x, y, z, vx, vy, vz], reduced | unreduced
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import tempfile
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DomainError, KernelBuildError

_SOURCES = (Path(__file__).with_name("_rk4.c"), Path(__file__).with_name("_csv.cc"))
# no -ffast-math or -march=native: both may reorder or fuse the arithmetic
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lstdc++",)

# bytes format_csv needs per value: the longest repr of a double,
# '-2.2250738585072014e-308', and its separator
CSV_VALUE_BYTES = 25

# the system index and state dimension of each flow in _rk4.c
_REDUCED, _UNREDUCED, _COUPLED, _PAIRED = (0, 5), (1, 6), (2, 10), (3, 11)


def backend() -> str:
    """Name of the kernel backend, echoed in reports and benchmark output."""
    return "c"


def _build(out_dir: Path, compiler: str = "cc") -> ctypes.CDLL:
    """Load the kernel library cached in out_dir, compiling it there if absent.

    The file name carries a CRC-32 of the sources and the flags, so an
    edited source is compiled afresh. (Not a SHA-256: importing hashlib
    loads OpenSSL, which adds about 4 MB to the peak RSS of every process.)
    The compiler writes to a temporary name that is then moved into place,
    so a concurrent load never sees a partial file. Raises KernelBuildError
    when the compiler cannot run or fails.
    """
    path = Path(out_dir) / _library_name()
    if not path.exists():
        import subprocess  # only a cold cache needs it; it costs every import 6 ms

        fd, tmp = tempfile.mkstemp(suffix=".so", dir=out_dir)
        os.close(fd)
        try:
            cmd = [compiler, *_CFLAGS, "-o", tmp, *map(str, _SOURCES), *_LIBS]
            names = " and ".join(src.name for src in _SOURCES)
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True)
            except OSError as err:
                raise KernelBuildError(
                    f"cannot run the C compiler '{compiler}' to build {names}: {err}"
                ) from err
            if proc.returncode != 0:
                raise KernelBuildError(
                    f"the C compiler '{compiler}' failed to build {names}"
                    f" (exit {proc.returncode}):\n{proc.stderr}"
                )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    lib.nh_rk4.argtypes = [
        ctypes.c_int,  # system index
        ctypes.c_void_p,  # states, (n_steps+1, dim) C-contiguous float64
        ctypes.c_long,  # n_steps
        ctypes.c_double,  # h
        ctypes.c_void_p,  # half-grid reference table, (2*n_steps+1, 5), or NULL
        ctypes.c_double,  # eps
        ctypes.c_int,  # literal
        ctypes.c_void_p,  # coupled sensitivity block, (10, 5) C-contiguous float64, or NULL
    ]
    lib.nh_rk4.restype = ctypes.c_long
    lib.nh_coupled_rhs.argtypes = [
        ctypes.c_void_p,  # states, (m, 10) C-contiguous float64
        ctypes.c_long,  # m
        ctypes.c_void_p,  # reference rows, (m, 5) C-contiguous float64
        ctypes.c_double,  # eps
        ctypes.c_int,  # literal
        ctypes.c_void_p,  # out, (m, 10) C-contiguous float64
    ]
    lib.nh_coupled_rhs.restype = None
    lib.nh_csv_format.argtypes = [
        ctypes.c_void_p,  # table, (rows, cols) C-contiguous float64
        ctypes.c_long,  # rows
        ctypes.c_long,  # cols
        ctypes.c_void_p,  # text out, at least CSV_VALUE_BYTES*rows*cols bytes
    ]
    lib.nh_csv_format.restype = ctypes.c_long
    return lib


def _library_name() -> str:
    digest = 0
    for src in _SOURCES:
        digest = zlib.crc32(src.read_bytes(), digest)
    digest = zlib.crc32(" ".join(_CFLAGS + _LIBS).encode(), digest)
    return f"_rk4-{digest:08x}.so"


@functools.cache
def _library() -> ctypes.CDLL:
    cache = _SOURCES[0].with_name("__pycache__")
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(cache, os.W_OK):
        return _build(cache)
    # a private directory, removed once the library is loaded: on POSIX
    # the mapping outlives its file, and nothing is left behind
    private = tempfile.mkdtemp(prefix="nhtrack-")
    try:
        return _build(Path(private))
    finally:
        shutil.rmtree(private, ignore_errors=True)


def _grid(h, n_steps):
    """Check a rollout's step size and count; returns (float h, int n_steps).

    h must be finite and n_steps a non-negative int (numpy ints too, not
    bools): anything else raises ValueError before the library sees it.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValueError(f"n_steps must be a non-negative int, not {n_steps!r}")
    h = float(h)
    if not math.isfinite(h):
        raise ValueError(f"step size h must be finite, not {h!r}")
    return h, int(n_steps)


def _rk4(system, x0, h: float, n_steps: int, label: str, ref=None, eps=0.0, literal=False, sens=None):
    """Integrate one flow from x0 with n_steps steps of size h, both checked
    by `_grid`; returns (n_steps+1, dim).

    ref and sens, if given, are checked by the caller. Raises DomainError
    at the first step whose result is not finite, with the last finite
    state as payload.
    """
    kind, dim = system
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"{label} initial state must have length {dim}")
    states = np.empty((n_steps + 1, dim))
    states[0] = x0
    ref_ptr = None if ref is None else ref.ctypes.data
    sens_ptr = None if sens is None else sens.ctypes.data
    i = _library().nh_rk4(kind, states.ctypes.data, n_steps, h, ref_ptr, float(eps), int(literal), sens_ptr)
    if i >= 0:
        raise DomainError(f"{label} rollout left the finite domain at step {i}", x=states[i])
    return states


def rollout_reduced(x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Integrate the uncontrolled reduced flow; returns (n_steps+1, 5)."""
    return _rk4(_REDUCED, x0, *_grid(h, n_steps), "reduced")


def rollout_unreduced(x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Integrate the ambient multiplier flow; returns (n_steps+1, 6)."""
    return _rk4(_UNREDUCED, x0, *_grid(h, n_steps), "unreduced")


def rollout_paired(x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Integrate the reduced and the ambient multiplier flow side by side
    from x0 = [reduced 5 | unreduced 6]; returns (n_steps+1, 11).

    Columns [:5] and [5:] are bit for bit the rollouts of `rollout_reduced`
    and `rollout_unreduced` from x0[:5] and x0[5:]. Raises DomainError at
    the first step where either half is not finite.
    """
    return _rk4(_PAIRED, x0, *_grid(h, n_steps), "paired")


def rollout_coupled(
    z0: np.ndarray,
    h: float,
    n_steps: int,
    ref_half: np.ndarray,
    eps: float,
    literal: bool,
    sens: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Integrate the state-costate flow with u = -mu/eps; returns (n_steps+1, 10).

    ref_half must hold reference samples (x_r, y_r, z_r, v1_r, v2_r) on the
    half grid t0 + j*(h/2), shape (2*n_steps + 1, 5). literal selects the
    paper-literal adjoint instead of the derived one.

    sens, if given, is a caller-owned block dz/dp at z0 for some parameter
    p of the start, a writeable C-contiguous float64 array of shape (10, 5).
    It is advanced in place to dz_N/dp, the exact derivative of the
    discrete RK4 map, and is not checked for finiteness; the states are
    bit-identical to a rollout without it.
    """
    h, n_steps = _grid(h, n_steps)
    if ref_half.shape != (2 * n_steps + 1, 5):
        raise ValueError("reference table does not cover the half grid")
    if sens is not None and not (
        isinstance(sens, np.ndarray)
        and sens.shape == (10, 5)
        and sens.dtype == np.float64
        and sens.flags.c_contiguous
        and sens.flags.writeable
    ):
        raise ValueError("sens must be a writeable C-contiguous float64 array of shape (10, 5)")
    ref = np.ascontiguousarray(ref_half, dtype=float)
    return _rk4(_COUPLED, z0, h, n_steps, "coupled", ref, eps, literal, sens)


def coupled_rhs(z: np.ndarray, ref: np.ndarray, eps: float, literal: bool) -> np.ndarray:
    """The coupled rhs with u = -mu/eps at m stacked rows; returns (m, 10).

    z holds states [x, y, z, v1, v2, l1, l2, l3, m1, m2], shape (m, 10),
    and ref the reference rows (x_r, y_r, z_r, v1_r, v2_r), shape (m, 5);
    row i of the result reads row i of each. literal selects the
    paper-literal adjoint instead of the derived one. These are the slopes
    `rollout_coupled` takes at its stages, bit for bit.
    """
    z = np.ascontiguousarray(z, dtype=float)
    ref = np.ascontiguousarray(ref, dtype=float)
    if z.ndim != 2 or z.shape[1] != 10 or ref.shape != (z.shape[0], 5):
        raise ValueError(
            f"coupled_rhs needs states of shape (m, 10) and reference rows of shape (m, 5), "
            f"not {z.shape} and {ref.shape}"
        )
    out = np.empty_like(z)
    _library().nh_coupled_rhs(z.ctypes.data, z.shape[0], ref.ctypes.data, float(eps), int(literal), out.ctypes.data)
    return out


def format_csv(table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the (rows, cols) table into out as comma-separated lines, each
    ended by '\\n'; returns the view of out that holds them.

    Every value is written as repr(float(value)) writes it, so the text
    parses back to the same doubles. out is a contiguous uint8 buffer of
    at least CSV_VALUE_BYTES * rows * cols bytes; a binary file takes the
    result as is.
    """
    table = np.ascontiguousarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError("format_csv needs a 2-D table")
    rows, cols = table.shape
    need = CSV_VALUE_BYTES * rows * cols
    if out.dtype != np.uint8 or out.ndim != 1 or not out.flags.c_contiguous or out.size < need:
        raise ValueError(f"format_csv needs a contiguous uint8 buffer of at least {need} bytes")
    n = _library().nh_csv_format(table.ctypes.data, rows, cols, out.ctypes.data)
    return out[:n]
