"""OpenBLAS's thread count, the CPUs this process may run on, a lane and row blocks.

Training and scoring pin OpenBLAS to one thread: a multi-threaded product splits its
sums by thread count, and a model's or a score's last bits would follow. At one thread
a numpy call gives the same bits on any thread, so a second CPU can take whole calls.
Every helper thread of the package is a Lane's, and ``spare_lane`` alone decides when one runs.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import functools
import os
import threading


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


class _Job:
    """One queued call; the thread that takes it from the queue runs it."""

    __slots__ = ("context", "fn", "args", "result", "error", "done")

    def __init__(self, fn, args):
        self.context = contextvars.copy_context()  # numpy's error state, for one
        self.fn, self.args, self.result, self.error = fn, args, None, None
        self.done = threading.Event()

    def run(self):
        try:
            self.result = self.context.run(self.fn, *self.args)
        except BaseException as exc:  # raised again by Lane.join
            self.error = exc
        finally:
            self.done.set()


class Lane:
    """One worker thread that runs jobs beside the caller.

    ``submit`` queues ``fn(*args)``, which the thread takes from the front of
    the queue. ``join`` has the caller run the jobs not yet started from the
    back, waits for the rest, and returns the results of every job since the
    last join in submit order; if any job raised, it raises the first such
    exception, the same object, once all have ended. A job runs in a copy of
    its submitter's context, so numpy's error state holds in it too. Leaving
    the ``with`` block joins and stops the thread.
    """

    def __init__(self):
        self._queue = collections.deque()  # jobs not yet started
        self._jobs = []  # every job since the last join
        self._wake = threading.Semaphore(0)
        self._open = True
        self._thread = threading.Thread(target=self._work, name="ndgan-lane", daemon=True)
        self._thread.start()

    def _work(self):
        while True:
            self._wake.acquire()
            try:
                job = self._queue.popleft()
            except IndexError:  # the caller ran it, or the lane is closing
                if not self._open:
                    return
                continue
            job.run()

    def submit(self, fn, *args):
        job = _Job(fn, args)
        self._jobs.append(job)
        self._queue.append(job)
        self._wake.release()

    def join(self) -> list:
        while True:
            try:
                job = self._queue.pop()
            except IndexError:
                break
            job.run()
        jobs, self._jobs = self._jobs, []
        for job in jobs:
            job.done.wait()
        for job in jobs:
            if job.error is not None:
                raise job.error
        return [job.result for job in jobs]

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        try:
            self.join()
        except BaseException:
            if kind is None:
                raise
        finally:
            self._open = False
            self._wake.release()
            self._thread.join()


def each(fn, calls: list, lane: Lane | None = None) -> list:
    """``[fn(*args) for args in calls]``; a ``lane`` runs every other call, from the second, beside the caller."""
    if lane is None:
        return [fn(*args) for args in calls]
    for args in calls[1::2]:
        lane.submit(fn, *args)
    try:
        mine = [fn(*args) for args in calls[::2]]
    finally:
        theirs = lane.join()
    return [(mine, theirs)[i % 2][i // 2] for i in range(len(calls))]


def spare_lane(wanted: bool):
    """A Lane, stopped on leaving its ``with`` block, if ``wanted``, OpenBLAS runs one thread and a
    second CPU is free; otherwise a context that yields None."""
    threads = openblas()
    if wanted and threads is not None and threads[0]() == 1 and cpu_count() >= 2:
        return Lane()
    return contextlib.nullcontext()


def in_blocks(fn, n: int, most: int) -> list:
    """``[fn(start, stop)]`` over ``range(n)`` in the fewest blocks, even in count, of at most ``most`` rows, with
    OpenBLAS at one thread; a ``spare_lane`` (stopped on return) runs every other block of two or more."""
    size = max(1, -(-n // (2 * max(1, -(-n // (2 * most))))))  # rows per block, blocks in pairs
    bounds = [(start, min(start + size, n)) for start in range(0, max(n, 1), size)]
    with one_thread(), spare_lane(len(bounds) > 1) as lane:
        return each(fn, bounds, lane)
