"""OpenBLAS's thread count, the CPUs this process may run on, a lane and row blocks.

Training and scoring pin OpenBLAS to one thread: a multi-threaded product splits its
sums by thread count, and a model's or a score's last bits would follow. At one thread
a numpy call gives the same bits on any thread, so a second CPU can take whole calls.
Every helper thread of the package is a Lane's, and ``spare_lane`` alone decides when one runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import queue
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
    """One submitted call, run once: by the lane's thread or by the first waiter to claim it.
    It runs in a copy of its submitter's context, so numpy's error state holds in it too."""

    __slots__ = ("context", "fn", "args", "result", "error", "claim", "done")

    def __init__(self, fn, args):
        self.context = contextvars.copy_context()
        self.fn, self.args, self.result, self.error = fn, args, None, None
        self.claim, self.done = threading.Lock(), threading.Event()

    def run(self):
        """Run the call here unless a thread has claimed it."""
        if not self.claim.acquire(blocking=False):
            return
        try:
            self.result = self.context.run(self.fn, *self.args)
        except BaseException as exc:  # raised again by wait
            self.error = exc
        finally:
            self.context = self.fn = self.args = None  # no cycle through a bound method outlives the job
            self.done.set()

    def wait(self):
        """The call's result, run here if no thread has started it; its exception is raised again, the same object."""
        self.run()
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.result


class Lane:
    """One worker thread that runs jobs beside the caller.

    ``submit`` queues ``fn(*args)`` and returns its job, which the thread takes
    from the front of the queue unless a waiter claimed it first; every submitter
    waits on its own jobs. Leaving the ``with`` block lets the thread run the jobs
    still queued, then stops it.
    """

    def __init__(self):
        self._queue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._work, name="ndgan-lane", daemon=True)
        self._thread.start()

    def _work(self):
        for job in iter(self._queue.get, None):  # None: stop
            job.run()

    def submit(self, fn, *args) -> _Job:
        job = _Job(fn, args)
        self._queue.put(job)
        return job

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        self._queue.put(None)
        self._thread.join()


def wait_all(jobs: list) -> list:
    """The results of ``jobs``, waited on newest first; once all have ended, the first
    exception in submit order is raised, the same object."""
    for job in reversed(jobs):
        try:
            job.wait()
        except BaseException as exc:
            if exc is not job.error:
                raise
    for job in jobs:
        if job.error is not None:
            raise job.error
    return [job.result for job in jobs]


def each(fn, calls: list, lane: Lane | None = None) -> list:
    """``[fn(*args) for args in calls]``; a ``lane`` runs every other call, from the second, beside the caller."""
    if lane is None:
        return [fn(*args) for args in calls]
    jobs = [lane.submit(fn, *args) for args in calls[1::2]]
    try:
        mine = [fn(*args) for args in calls[::2]]
    finally:
        theirs = wait_all(jobs)
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
