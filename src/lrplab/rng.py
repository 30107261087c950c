"""Deterministic stream/substream random generators.

Every random quantity in the package is drawn from a generator keyed by
(master_seed, stream_id, substream_id).  Streams identify replicates:
one `sample_graph` call builds exactly one generator, keyed by its
stream, and draws every displacement class from it.  Substreams are
left for per-stream jobs that need more than one generator.  Distinct
key triples give statistically independent PCG64 streams; identical
triples reproduce identical output byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

StreamKey = int | tuple[int, ...]


def _as_key(x: StreamKey) -> tuple[int, ...]:
    if isinstance(x, tuple):
        return x
    return (int(x),)


@dataclass(frozen=True)
class RngStream:
    """Key for one reproducible generator."""

    master_seed: int
    stream_id: StreamKey = 0
    substream_id: StreamKey = 0

    def generator(self) -> np.random.Generator:
        key = _as_key(self.stream_id) + _as_key(self.substream_id)
        ss = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, substream_id: StreamKey) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id, substream_id)


def generator(master_seed: int, stream_id: StreamKey = 0,
              substream_id: StreamKey = 0) -> np.random.Generator:
    """Shorthand for RngStream(...).generator()."""
    return RngStream(master_seed, stream_id, substream_id).generator()
