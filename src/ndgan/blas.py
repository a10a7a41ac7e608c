"""OpenBLAS's thread count, and the CPUs this process may run on.

Training pins OpenBLAS to one thread: a multi-threaded product splits its
sums by thread count, and a trained model's last bits would follow.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os


@functools.cache
def openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:  # no /proc: not Linux
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_thread():
    """Run the body with OpenBLAS at one thread; yields whether that pin took effect.
    The old count is restored on every exit."""
    threads = openblas()
    if threads is None:
        yield False
        return
    get, put = threads
    old = get()
    put(1)
    try:
        yield get() == 1
    finally:
        put(old)


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
