"""Compiled Dormand–Prince kernel for paper System (1) under constant controls.

``system1.c`` beside this module integrates System (1) on (S, I), with R
rebuilt as ``(total + α·(t − t0)) − S − I`` and kept in the error norm,
under the control law of :func:`repro.numerics.ode.dopri45`.  Each row
of a batch is its own integration, so a stacked row is bitwise equal to
the same row alone, whichever thread solves it.
:func:`~repro.numerics.ode.dopri45` and
:func:`~repro.numerics.ode_batched.dopri45_batched` run it when passed
``system1=`` (a :class:`System1`).  They then call their right-hand
side once, at ``t0``, and the kernel refuses constants whose slope
there is not that one; the integration itself never calls it.

The source is compiled on first use with the platform C compiler
(``sysconfig``'s ``CC``) and :data:`FLAGS` into a shared library named
for a hash of the source, the flags and the machine.  ``-O3`` vectorizes
every per-group loop with the baseline ISA's vectors; the answers are
bitwise those of an unoptimised build, because ``-ffp-contract=off``
fuses no multiply-add and, without ``-ffast-math``, no sum is
reassociated.  There is no ``-march``, so they do not depend on the
host's vector or FMA units either.  The library lives in this package's
``__pycache__``, or in the user's cache directory (``$XDG_CACHE_HOME`` or
``~/.cache``, under ``repro-kernels``) when that is read-only, so a
checkout compiles it once and later processes load it.  A build into
``__pycache__`` deletes the checkout's libraries of other sources or
flags; the user's cache, which other checkouts share, is never pruned.
A directory that anyone but its owner, this user or root, can write is
neither read nor written, so no other user can plant a library there.
It is called through :mod:`ctypes`, which releases the GIL for the call.
:func:`run` solves a stack of B rows on ``min(B, CPUs)`` POSIX threads,
the CPUs being those of the process's affinity mask, when the network
has at least :data:`THREADED_GROUPS` degree groups, and on the calling
thread otherwise.  The kernel allocates its workspace per call and joins
its threads before it returns, so concurrent calls share nothing mutable
and no thread outlives its call.
Without a compiler, or when the build fails, :func:`library` logs one
``numerics.kernel_unavailable`` warning and returns ``None``, and the
solvers integrate the full (S, I, R) state in
:func:`~repro.numerics.ode.dopri45`'s Python loop, one row at a time.

``library().path`` names the library a process loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import stat
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.exceptions import ParameterError
from repro.obs.log import warning

__all__ = ["System1", "KernelRun", "FLAGS", "library", "run",
           "OK", "UNDERFLOW", "NONFINITE", "EXHAUSTED", "MISMATCH"]

SOURCE = Path(__file__).with_name("system1.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

#: Networks of fewer degree groups solve a stack on the calling thread:
#: there a row takes about as long as starting a helper thread.  At B = 2
#: on two CPUs, 8 groups lost ~30 us a call, 20-50 groups won or lost
#: with the host's load, and 64 and 100 groups won in all but one run
#: taken while the host was loaded.
THREADED_GROUPS = 64

#: Status codes of ``s1_dopri45`` (``S1_*`` in system1.c).
OK, UNDERFLOW, NONFINITE, EXHAUSTED, NOMEMORY, MISMATCH = range(6)


@dataclass(frozen=True)
class System1:
    """System (1)'s constants for B rows under constant controls.

    Attributes
    ----------
    phi:
        Infectivity profile φ(k), shape ``(n,)``.
    mean_degree:
        ⟨k⟩, the coupling's normalisation.
    lam:
        Acceptance rates λ(k): ``(n,)`` shared by every row, or
        ``(B, n)``.
    alpha, eps1, eps2:
        Per-row entering rate and controls, shape ``(B,)``.
    """

    phi: np.ndarray
    mean_degree: float
    lam: np.ndarray
    alpha: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray


class KernelRun(NamedTuple):
    """What one kernel call returns, and the form in which
    :func:`repro.numerics.ode._dopri45_rows` reports the rows of its
    Python loop.

    ``y`` is ``(m, B, 3n)``; the step counts and accepted-step ranges
    are ``(B,)``.  Every field is what solving the rows in order would
    give, however many threads solved them.  When ``status`` is not
    :data:`OK`, row ``row`` failed at time ``t`` with step ``h``.
    ``stuck`` rows exhausted their attempts: then ``row`` is the first of
    them unless a later row failed otherwise, which stops the call; the
    rows after it report no steps (``h_min`` inf, ``h_max`` 0).
    """

    y: np.ndarray
    accepted: np.ndarray
    rejected: np.ndarray
    h_min: np.ndarray
    h_max: np.ndarray
    status: int
    row: int
    t: float
    h: float
    stuck: int


_lock = threading.Lock()
_loaded: list[Callable[..., int] | None] = []


def library() -> Callable[..., int] | None:
    """The compiled ``s1_dopri45`` routine, or ``None`` when unavailable.

    The first call in a process loads the cached library, building it
    first when no cache holds it; later calls return the same result.
    """
    if not _loaded:
        with _lock:
            if not _loaded:
                _loaded.append(_load())
    return _loaded[0]


def _compiler() -> list[str]:
    import shlex
    import sysconfig
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dirs() -> list[Path]:
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return [Path(__file__).with_name("__pycache__"),
            Path(cache) / "repro-kernels"]


def _trusted(directory: Path) -> bool:
    """Whether only its owner, this user or root, can write ``directory``."""
    try:
        info = os.lstat(directory)
    except OSError:
        return False
    return (stat.S_ISDIR(info.st_mode)
            and info.st_uid in (0, os.getuid())
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _library_name() -> str:
    # CRC-32, not hashlib: hashlib loads OpenSSL, ~3.5 MB resident.
    key = SOURCE.read_bytes() + " ".join(
        FLAGS + (platform.machine(),)).encode()
    return f"system1-{zlib.crc32(key):08x}.so"


def _load() -> Callable[..., int] | None:
    try:
        name = _library_name()
        dirs = _cache_dirs()
        for directory in dirs:
            if _trusted(directory) and (directory / name).exists():
                return _bind(directory / name)
        directory = _writable(dirs)
        built = _build(directory, name)
        if directory == dirs[0]:
            _prune(directory, keep=name)
        return _bind(built)
    except Exception as error:  # noqa: BLE001 - any failure: Python loop
        reason = getattr(error, "stderr", None) or error
        warning("numerics.kernel_unavailable", reason=str(reason).strip(),
                fallback="Python dopri45 loop on (S, I, R)")
        return None


def _writable(dirs: list[Path]) -> Path:
    for directory in dirs:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if _trusted(directory) and os.access(directory, os.W_OK):
            return directory
    raise PermissionError(
        f"no kernel cache among {[str(d) for d in dirs]} is writable by "
        "this user and by no one else")


def _build(directory: Path, name: str) -> Path:
    """Compile once into ``directory``: to a unique name, then replace."""
    import fcntl
    import subprocess
    target = directory / name
    with open(directory / f"{name}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if target.exists():  # another process built it meanwhile
            return target
        fd, scratch = tempfile.mkstemp(dir=directory, prefix=f"{name}.",
                                       suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run([*_compiler(), *FLAGS, "-o", scratch,
                            str(SOURCE), "-lm"],
                           check=True, capture_output=True, text=True,
                           timeout=300)
            os.replace(scratch, target)
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    return target


def _prune(directory: Path, keep: str) -> None:
    """Delete ``directory``'s kernel libraries and locks but ``keep``'s."""
    for pattern in ("system1-*.so", "system1-*.so.lock"):
        for stale in directory.glob(pattern):
            if stale.name not in (keep, f"{keep}.lock"):
                with contextlib.suppress(OSError):
                    stale.unlink()


def _bind(path: Path) -> Callable[..., int]:
    routine = ctypes.CDLL(str(path)).s1_dopri45
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    routine.restype = i64
    routine.argtypes = [i64, i64, i64, ptr, ptr, ptr, f64, ptr, i64, ptr,
                        ptr, ptr, ptr, f64, f64, f64, f64, i64, ptr, ptr,
                        ptr, ptr, ptr, ptr, ptr, ptr, i64]
    routine.path = str(path)
    return routine


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity mask's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def run(system: System1, y0: np.ndarray, grid: np.ndarray, *,
        slope: np.ndarray | None, rtol: float, atol: float,
        h_init: float | None, h_max: float, max_attempts: int) -> KernelRun:
    """Integrate the ``(B, 3n)`` initial states ``y0`` over ``grid``.

    ``slope``, unless ``None``, is the caller's ``(B, 3n)`` right-hand
    side at ``(grid[0], y0)``; a row whose slope is not the kernel's, up
    to rounding, fails with :data:`MISMATCH` before it integrates.
    Every row gets at most ``max_attempts`` attempted steps.  The rows
    run on ``min(B, CPUs)`` threads (see :data:`THREADED_GROUPS`), with
    the answers of one.  Call only when :func:`library` is not ``None``.
    """
    routine = library()
    y0 = np.ascontiguousarray(y0, dtype=float)
    grid = np.ascontiguousarray(grid, dtype=float)
    rows, width = y0.shape
    phi = np.ascontiguousarray(system.phi, dtype=float)
    n = phi.size
    if width != 3 * n:
        raise ParameterError(
            f"System (1) state has {width} values, expected 3·{n}")
    if slope is not None:
        slope = np.ascontiguousarray(slope, dtype=float)
        if slope.shape != y0.shape:
            raise ParameterError(
                f"slope has shape {slope.shape}, expected {y0.shape}")
    lam = np.ascontiguousarray(system.lam, dtype=float)
    rates = [np.ascontiguousarray(np.broadcast_to(rate, (rows,)),
                                  dtype=float)
             for rate in (system.alpha, system.eps1, system.eps2)]
    y = np.empty((grid.size, rows, width))
    accepted = np.zeros(rows, dtype=np.int64)
    rejected = np.zeros(rows, dtype=np.int64)
    h_min = np.empty(rows)
    h_max_rows = np.empty(rows)
    fail = np.zeros(2)
    fail_row = ctypes.c_int64(0)
    stuck = ctypes.c_int64(0)
    status = routine(
        n, rows, grid.size, grid.ctypes.data, y0.ctypes.data,
        phi.ctypes.data, float(system.mean_degree), lam.ctypes.data,
        0 if lam.ndim == 1 else n, *(rate.ctypes.data for rate in rates),
        None if slope is None else slope.ctypes.data,
        rtol, atol, 0.0 if h_init is None else h_init, h_max,
        max_attempts, y.ctypes.data, accepted.ctypes.data,
        rejected.ctypes.data, h_min.ctypes.data, h_max_rows.ctypes.data,
        fail.ctypes.data, ctypes.byref(fail_row), ctypes.byref(stuck),
        1 if n < THREADED_GROUPS else min(rows, _cpus()))
    if status == NOMEMORY:
        raise MemoryError("System (1) kernel could not allocate its workspace")
    return KernelRun(y, accepted, rejected, h_min, h_max_rows, int(status),
                     int(fail_row.value), float(fail[0]), float(fail[1]),
                     int(stuck.value))

