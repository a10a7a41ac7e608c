"""Seeded random-number streams.

One master seed per run, split into independently seeded named streams so
that adding a consumer to one stream never perturbs the draws of another.
Stream identities are derived from the stream *name* (not creation order),
which keeps existing streams stable when new ones are introduced.
"""

from __future__ import annotations

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
