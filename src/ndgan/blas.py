"""OpenBLAS's thread count, the CPUs this process may run on, and row blocks.

Training and scoring pin OpenBLAS to one thread: a multi-threaded product splits its
sums by thread count, and a model's or a score's last bits would follow.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor


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


def in_blocks(fn, n: int, most: int) -> list:
    """``[fn(start, stop)]`` over ``range(n)`` in the fewest blocks, even in count, of at most ``most`` rows, with OpenBLAS
    at one thread; if that pin holds and a second CPU is free, a second thread (joined on return) runs every other block."""
    size = max(1, -(-n // (2 * max(1, -(-n // (2 * most))))))  # rows per block, blocks in pairs
    bounds = [(start, min(start + size, n)) for start in range(0, max(n, 1), size)]
    with one_thread() as pinned:
        if len(bounds) == 1 or not pinned or cpu_count() < 2:
            return [fn(*b) for b in bounds]
        pool = ThreadPoolExecutor(1, thread_name_prefix="ndgan-lane")
        try:
            odd = [pool.submit(fn, *b) for b in bounds[1::2]]
            done = [fn(*b) for b in bounds[::2]], [f.result() for f in odd]
        finally:
            pool.shutdown(cancel_futures=True)
    return [done[i % 2][i // 2] for i in range(len(bounds))]
