"""Deterministic stream random generators.

Every random quantity in the package is drawn from a generator keyed by
(master_seed, stream_id).  Streams identify replicates:
`graph.map_replicates` builds exactly one generator per replicate,
keyed by its stream (one `sample_graph` call builds one), and draws
every displacement class of that replicate from it.  Distinct keys give
statistically independent PCG64 streams; identical keys reproduce
identical output byte for byte.  The spawn key is the stream key
followed by 0, the former substream slot, kept so that every stream
keeps its bytes.

The first element of every stream key is a `Tag`, except for
`scaling.sample_distances`, whose keys are (box factor, ladder index,
replicate) with box factor 3 or 5.  Tags are distinct and never 0, 3
or 5, so no two call sites share a key.

`RngStream.built` counts the generators this process has built; a run
records the difference across its runner as `manifest.rng_streams`.
Work done in another process must add its own count to it, as
`graph.map_replicates` does for its pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum, unique
from typing import ClassVar

import numpy as np

StreamKey = int | tuple[int, ...]


@unique
class Tag(IntEnum):
    """First element of each stream key, one per call site."""

    DIM_SAMPLE = 77001              # experiments `dim`: graph r
    DIM_GEODESIC = 77002            # experiments `dim`: geodesics of graph r
    SPERNER_FAMILIES = 77011        # experiments `sperner`: families of n
    FIREWORK = 77021                # experiments `firework`: reach tail
    XI_VECTOR = 77031               # experiments `xi-coupling`: xi draws
    XI_FIREWORK = 77032             # experiments `xi-coupling`: firework
    THETA_BOOTSTRAP = 90002         # scaling: the ladder's bootstrap,
                                    # for theta's CI and each a_n's
    GOOD_CUBE_SAMPLE = 90021        # dimension: good-cube graph r
    CONNECTED_SET_SAMPLE = 90031    # dimension: connected-set graph r
    # the ladder index of the goodcubes a_s probe's `sample_distances`
    A_S_PROBE = 999


def _as_key(x: StreamKey) -> tuple[int, ...]:
    if isinstance(x, tuple):
        return x
    return (int(x),)


@dataclass(frozen=True)
class RngStream:
    """Key for one reproducible generator."""

    master_seed: int
    stream_id: StreamKey = 0

    built: ClassVar[int] = 0        # generators built in this process

    def generator(self) -> np.random.Generator:
        RngStream.built += 1
        key = _as_key(self.stream_id) + (0,)
        ss = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))
