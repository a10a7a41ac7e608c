"""Seeded random-number streams.

One master seed per run, split into independently seeded named streams so
that adding a consumer to one stream never perturbs the draws of another.
Stream identities are derived from the stream *name* (not creation order),
which keeps existing streams stable when new ones are introduced.
"""

from __future__ import annotations

import math
import zlib

import numpy as np


def _stream_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic child seed for a labelled sub-run (e.g. one holdout split)."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), _stream_key(label)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class RngStreams:
    """Named, independently seeded ``numpy.random.Generator`` streams, one attribute each."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.init, self.noise, self.sampling, self.shuffling, self.diagnostics = (
            np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(_stream_key(name),)))
            for name in ("init", "noise", "sampling", "shuffling", "diagnostics"))


class NoiseAhead:
    """``gen.normal(loc, scale, size)``, bit for bit, from two standard-normal buffers:
    ``Generator.normal`` is ``loc + scale * z`` over the sequence ``standard_normal``
    fills. When the caller starts reading one buffer, a job on ``lane`` (a ``blas.Lane``
    that nothing else joins) fills the other, so one fill at most is outstanding and the
    draws keep their order whichever thread runs it. A returned array may view a buffer
    that is refilled after a later call, so use it first. A failed fill raises its
    exception, the same object, in the call that needs it and in every later one."""

    SIZE = 1 << 18  # draws per buffer; smaller ones make the lane wait for the GIL more often

    def __init__(self, gen: np.random.Generator, lane):
        self._gen, self._lane, self._error = gen, lane, None
        self._buf = np.empty(self.SIZE)
        self._pos = self.SIZE  # read through, so the first call takes the first fill
        lane.submit(self._fill, np.empty(self.SIZE))

    def _fill(self, buf: np.ndarray) -> np.ndarray:
        self._gen.standard_normal(out=buf)  # releases the GIL
        return buf

    def _next(self):
        """Read from the buffer the lane filled, and have it fill the spent one."""
        if self._error is not None:
            raise self._error
        spent, self._buf, self._pos = self._buf, np.empty(0), 0
        try:
            (self._buf,) = self._lane.join()
        except BaseException as exc:
            self._error = exc
            raise
        self._lane.submit(self._fill, spent)

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
