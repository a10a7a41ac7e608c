"""Seeded random-number streams.

One master seed per run, split into independently seeded named streams so
that adding a consumer to one stream never perturbs the draws of another.
Stream identities are derived from the stream *name* (not creation order),
which keeps existing streams stable when new ones are introduced.
"""

from __future__ import annotations

import math
import queue
import threading
import zlib

import numpy as np

STREAM_NAMES = ("init", "noise", "sampling", "shuffling", "diagnostics")


def _stream_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic child seed for a labelled sub-run (e.g. one holdout split)."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), _stream_key(label)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class RngStreams:
    """Named, independently seeded ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gens = {
            name: np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(_stream_key(name),))
            )
            for name in STREAM_NAMES
        }

    @property
    def init(self) -> np.random.Generator:
        return self._gens["init"]

    @property
    def noise(self) -> np.random.Generator:
        return self._gens["noise"]

    @property
    def sampling(self) -> np.random.Generator:
        return self._gens["sampling"]

    @property
    def shuffling(self) -> np.random.Generator:
        return self._gens["shuffling"]

    @property
    def diagnostics(self) -> np.random.Generator:
        return self._gens["diagnostics"]


class NoiseAhead:
    """``gen.normal(loc, scale, size)``, bit for bit, from standard-normal buffers that
    one background thread fills ahead: ``Generator.normal`` is ``loc + scale * z`` over
    the sequence ``standard_normal`` fills. A returned array may view a buffer that is
    refilled after a later call, so use it first. ``gen`` belongs to the thread until
    ``close`` stops and joins it; an error there is raised by ``normal``."""

    SIZE = 1 << 18  # draws per buffer; smaller ones make the thread wait for the GIL more often
    COUNT = 3  # buffers: the one being read and two filled or filling

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._free, self._full = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in range(self.COUNT):
            self._free.put(np.empty(self.SIZE))
        self._buf, self._pos = np.empty(0), 0
        self._closed = False
        self._thread = threading.Thread(target=self._fill, name="ndgan-noise", daemon=True)
        self._thread.start()

    def _fill(self):
        try:
            while True:
                buf = self._free.get()
                if self._closed:
                    return
                self._gen.standard_normal(out=buf)  # releases the GIL
                self._full.put(buf)
        except BaseException as exc:  # raised again in the caller of normal
            self._full.put(exc)

    def _next(self):
        """Hand the spent buffer back to the thread and read from the next filled one."""
        if self._buf.size:
            self._free.put(self._buf)
        self._buf, self._pos = np.empty(0), 0
        item = self._full.get()
        if isinstance(item, BaseException):
            self._full.put(item)  # every later call fails too
            raise RuntimeError("the noise thread failed") from item
        self._buf = item

    def normal(self, loc: float, scale: float, size: tuple) -> np.ndarray:
        n = math.prod(size)
        if self._pos == len(self._buf):
            self._next()
        if n <= len(self._buf) - self._pos:  # the common case: a view, no copy
            z = self._buf[self._pos:self._pos + n]
            self._pos += n
        else:  # the request spans buffers
            z = np.empty(n)
            done = 0
            while done < n:
                if self._pos == len(self._buf):
                    self._next()
                k = min(n - done, len(self._buf) - self._pos)
                z[done:done + k] = self._buf[self._pos:self._pos + k]
                done, self._pos = done + k, self._pos + k
        np.multiply(z, scale, out=z)
        z += loc  # not skipped at loc 0: 0.0 + -0.0 is 0.0, as in Generator.normal
        return z.reshape(size)

    def close(self):
        self._closed = True
        self._free.put(None)  # wakes the thread if it waits for a buffer
        self._thread.join()
