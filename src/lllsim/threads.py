"""One thread budget per process: BLAS at one thread, the cores filling samples.

The BLAS calls of a run work on operands far too small to split (blocks of
a few hundred rows, d x d at most), so a multithreaded OpenBLAS only keeps
its extra threads spinning. The entry points (`driver.run_one`,
`driver.run_trials`, `refinement.refine`, `cli.main`) therefore run under
`one_blas_thread` (`run_trials` forks its pool inside that scope, so its
workers start at one thread), and the process's cores go where they pay:
`synthetic.sample_batch` fills the row chunks of a full-d batch on up to
`fill_share()` threads. The share is the available cores in the main
process; a `run_trials` pool worker gets cores // workers through
`set_fill_share`, its pool initializer.

Only OpenBLAS is lowered. MKL and Accelerate keep their own thread count,
since no setter is looked up for them.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager


def available_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_fill_share = available_cores()


def fill_share() -> int:
    """Threads one full-d sample batch may fill its chunks with."""
    return _fill_share


def set_fill_share(threads: int) -> None:
    """Set this process's fill share (the run_trials pool initializer)."""
    global _fill_share
    _fill_share = threads


# OpenBLAS thread-count setters, tried in this order (each has a matching
# getter, "_get_" for "_set_"): numpy's own wheels export the scipy_openblas
# names with the 64_ suffix of the 64-bit integer build.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process, if readable."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.readlines()
    except OSError:  # no procfs, e.g. macOS
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    return paths


@functools.cache
def _openblas_controls() -> tuple:
    """(getter, setter) of the thread count of each loaded OpenBLAS.

    Looked up on the first call and kept for the life of the process (a
    forked worker inherits them). Empty when no OpenBLAS, or none of its
    thread setters, is found.
    """
    import ctypes  # paid once, on the first BLAS scope

    controls = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapped file deleted since it was loaded
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is None or getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            controls.append((getter, setter))
            break
    return tuple(controls)


def _limit_blas_threads(threads: int) -> list:
    """Cap every loaded OpenBLAS at `threads` threads in this process.

    Only lowers the count, so a smaller OPENBLAS_NUM_THREADS still holds.
    Returns (setter, previous count) of each library it lowered.
    """
    lowered = []
    for getter, setter in _openblas_controls():
        before = getter()
        if before > threads:
            setter(threads)
            lowered.append((setter, before))
    return lowered


@contextmanager
def one_blas_thread():
    """Run the block, or the decorated function, with OpenBLAS at 1 thread.

    Every count lowered on entry is restored on exit, also when the block
    raises. Nested scopes lower nothing, so only the outermost restores.
    """
    lowered = _limit_blas_threads(1)
    try:
        yield
    finally:
        for setter, before in lowered:
            setter(before)
