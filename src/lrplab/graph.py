"""Sampling of percolation configurations on finite boxes of Z^d.

Vertices are [0, n)^d linearized row-major.  Nearest-neighbor edges
(ell-infinity distance 1, i.e. the full Moore neighborhood) are implicit
and always present; only long edges (||k||_inf >= 2) are stored.

Sampling walks the class table of the box: for each long displacement k
(one per unordered pair orbit) the candidate pair count is
N_k = prod(n - |k_m|) and the number of present edges is an exact
Binomial(N_k, p_k) draw, with positions a uniform sample without
replacement.  Cost is proportional to the number of classes plus edges
drawn, never to the number of vertex pairs.  Each sample consumes one
RNG stream keyed by (seed, stream_id), in a fixed order: all class
counts, then the positions of the one-edge classes, then those of the
other classes in table order; so replicates are independently keyed and
reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernel import DEFAULT_TOLERANCE, DisplacementKernel, class_array
from .rng import RngStream, StreamKey

_MAGIC = b"LRPG"
_VERSION = 1
_HEADER = struct.Struct("<4sHBQdQQ")


@dataclass(frozen=True)
class ModelConfig:
    """Model parameters: dimension, coupling, box side, master seed."""

    d: int
    beta: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.d > 3:
            raise ValueError("d > 3 is not supported")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if self.n < 2:
            raise ValueError("box side n must be >= 2")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        if self.n ** self.d > 2 ** 40:
            raise ValueError("box too large for the vertex address space")

    @property
    def n_vertices(self) -> int:
        return self.n ** self.d

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(self.n ** (self.d - 1 - m) for m in range(self.d))


@dataclass
class LrpGraph:
    """One sampled configuration: implicit lattice plus explicit long edges.

    `long_edges` is an (m, 2) array of linearized endpoints with
    i < j per row, sorted lexicographically.  Immutable once built.
    """

    config: ModelConfig
    long_edges: np.ndarray
    _adjacency: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.config.n_vertices

    def coords(self, v) -> np.ndarray:
        """Linear index -> lattice coordinates, vectorized."""
        v = np.asarray(v)
        n, d = self.config.n, self.config.d
        out = np.empty(v.shape + (d,), dtype=np.int64)
        rem = v
        for m in range(d - 1, -1, -1):
            out[..., m] = rem % n
            rem = rem // n
        return out

    def index(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        return coords @ np.asarray(self.config.strides, dtype=np.int64)

    def pad(self, v) -> np.ndarray:
        """Linear ids -> ids of the box padded by one ghost layer, the
        (n + 2)^d box whose coordinates are shifted by one."""
        n, d = self.config.n, self.config.d
        coords = np.unravel_index(v, (n,) * d)
        return np.ravel_multi_index(tuple(c + 1 for c in coords),
                                    (n + 2,) * d)

    def unpad(self, p) -> np.ndarray:
        """Padded ids -> linear ids; a ghost raises ValueError."""
        n, d = self.config.n, self.config.d
        coords = np.unravel_index(p, (n + 2,) * d)
        return np.ravel_multi_index(tuple(c - 1 for c in coords), (n,) * d)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, neighbors) over the long edges, both directions,
        on padded ids (see `pad`): the long neighbours of padded id p
        are nbrs[indptr[p]:indptr[p + 1]], those above p first, then
        those below, each ascending."""
        if self._adjacency is None:
            n, d = self.config.n, self.config.d
            ends = self.pad(self.long_edges)
            nodes = np.concatenate([ends[:, 0], ends[:, 1]])
            nbrs = np.concatenate([ends[:, 1], ends[:, 0]])
            order = np.argsort(nodes, kind="stable")
            indptr = np.zeros((n + 2) ** d + 1, dtype=np.int64)
            np.cumsum(np.bincount(nodes, minlength=(n + 2) ** d),
                      out=indptr[1:])
            object.__setattr__(self, "_adjacency", (indptr, nbrs[order]))
        return self._adjacency


@dataclass(frozen=True)
class ClassTable:
    """Every long displacement of an n-box, one per unordered pair orbit.

    Row r holds a displacement `k[r]` (||k||_inf >= 2, first nonzero
    coordinate positive, so each pair {i, j} matches exactly one row),
    its candidate pair count `pairs[r]` = prod(n - |k_m|), and the row
    `klass[r]` of its canonical class in the kernel table for
    max_norm n - 1.  Holds no beta; the arrays are read-only.
    """

    k: np.ndarray
    pairs: np.ndarray
    klass: np.ndarray


@functools.lru_cache(maxsize=16)
def class_table(d: int, n: int) -> ClassTable:
    """Vectorised enumeration of the long displacements of an n-box."""
    side = 2 * n - 1
    # in row-major order of k + (n - 1), the displacements after k = 0
    # are exactly those whose first nonzero coordinate is positive
    flat = np.arange(side ** d // 2 + 1, side ** d, dtype=np.int64)
    k = np.stack(np.unravel_index(flat, (side,) * d), axis=1) - (n - 1)
    k = k[np.abs(k).max(axis=1) >= 2]
    pairs = np.prod(n - np.abs(k), axis=1)
    # canonical classes (|k| sorted descending) keyed in base n
    weights = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = -np.sort(-np.abs(k), axis=1) @ weights
    table_keys = class_array(d, n - 1) @ weights
    order = np.argsort(table_keys)
    klass = order[np.searchsorted(table_keys, keys, sorter=order)]
    for arr in (k, pairs, klass):
        arr.flags.writeable = False
    return ClassTable(k=k, pairs=pairs, klass=klass)


def sample_graph(config: ModelConfig, stream_id: StreamKey = 0,
                 tolerance: float = DEFAULT_TOLERANCE) -> LrpGraph:
    """Draw one configuration; identical (config, stream_id) reproduce bytes.

    One generator, keyed by (seed, stream_id), draws every class count
    and position, so distinct replicate streams never collide.
    """
    d, n = config.d, config.n
    table = class_table(d, n)
    kernel = DisplacementKernel.build(d, config.beta, n - 1, tolerance)
    rng = RngStream(config.seed, stream_id).generator()
    counts = rng.binomial(table.pairs, kernel.probabilities[table.klass])
    one = np.flatnonzero(counts == 1)
    many = np.flatnonzero(counts > 1)
    rows = np.concatenate([one, np.repeat(many, counts[many])])
    pos = np.concatenate([rng.integers(0, table.pairs[one])] + [
        rng.choice(table.pairs[r], size=counts[r], replace=False)
        for r in many])
    # mixed-radix decode of each position to the base coordinates of
    # its pair; a class with k_m < 0 starts at -k_m so i + k stays in box
    k = table.k[rows]
    sizes = n - np.abs(k)
    base = np.empty_like(k)
    for m in range(d - 1, -1, -1):
        pos, base[:, m] = np.divmod(pos, sizes[:, m])
    base += np.maximum(-k, 0)
    strides = np.asarray(config.strides, dtype=np.int64)
    i = base @ strides
    j = i + k @ strides      # > i: k is lexicographically positive
    order = np.lexsort((j, i))
    return LrpGraph(config=config,
                    long_edges=np.stack([i[order], j[order]], axis=1))


def expected_long_edge_total(config: ModelConfig,
                             tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Exact mean number of long edges, sum of N_k p_k over classes."""
    table = class_table(config.d, config.n)
    kernel = DisplacementKernel.build(config.d, config.beta, config.n - 1,
                                      tolerance)
    return float(table.pairs @ kernel.probabilities[table.klass])


@contextlib.contextmanager
def _atomic_open(path, mode: str = "w"):
    """Handle on a temp file beside `path`, text by default or binary for
    mode "wb", that is renamed over `path` when the block ends cleanly,
    so a failed write leaves the old file intact and no temp file
    behind."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_binary(graph: LrpGraph, path) -> None:
    """Versioned binary dump: LRPG header then little-endian u64 pairs."""
    cfg = graph.config
    with _atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, cfg.d, cfg.n, cfg.beta,
                              cfg.seed, graph.long_edges.shape[0]))
        graph.long_edges.astype("<u8").tofile(fh)


def load_binary(path) -> LrpGraph:
    """Read a `save_binary` file; rejects truncated or trailing bytes and
    edges that no sample can hold (see `_check_edges`)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError("truncated header")
        magic, version, d, n, beta, seed, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a graph file (magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        body = fh.read()
    # sized against the bytes present, so a corrupt count allocates nothing
    if len(body) < 16 * count:
        raise ValueError("truncated edge list")
    if len(body) > 16 * count:
        raise ValueError("trailing bytes after the edge list")
    config = ModelConfig(d=d, beta=beta, n=n, seed=seed)
    # ends >= 2^63 wrap negative here and fail the range check
    edges = np.frombuffer(body, dtype="<u8").reshape(count, 2).astype(
        np.int64)
    _check_edges(config, edges)
    return LrpGraph(config=config, long_edges=edges)


def export_text(graph: LrpGraph, path) -> None:
    """Plain-text edge list: header '# d n beta seed', one 'i j' per line."""
    cfg = graph.config
    with _atomic_open(path) as fh:
        fh.write(f"# {cfg.d} {cfg.n} {cfg.beta:.17g} {cfg.seed}\n")
        for i, j in graph.long_edges:
            fh.write(f"{i} {j}\n")


def import_text(path) -> tuple[ModelConfig, np.ndarray]:
    """Read an `export_text` file; rejects edges that no sample can hold
    (see `_check_edges`)."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "#":
            raise ValueError("missing '# d n beta seed' header")
        d, n, beta, seed = (int(header[1]), int(header[2]),
                            float(header[3]), int(header[4]))
        edges = [tuple(map(int, line.split())) for line in fh if line.strip()]
    config = ModelConfig(d=d, beta=beta, n=n, seed=seed)
    if any(len(e) != 2 for e in edges):
        raise ValueError("each edge line must hold two vertices")
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    _check_edges(config, arr)
    return config, arr


def _check_edges(config: ModelConfig, edges: np.ndarray) -> None:
    """Raise ValueError unless `edges` is a long-edge list that
    `sample_graph` could return: ends in range, i < j,
    ||j - i||_inf >= 2, rows sorted and unique."""
    if ((edges < 0) | (edges >= config.n_vertices)).any():
        raise ValueError(f"edge end out of range [0, {config.n_vertices})")
    i, j = edges[:, 0], edges[:, 1]
    if (i >= j).any():
        raise ValueError("edges must satisfy i < j")
    shape = (config.n,) * config.d
    gap = np.abs(np.subtract(np.unravel_index(j, shape),
                             np.unravel_index(i, shape))).max(axis=0,
                                                             initial=0)
    if (gap < 2).any():
        raise ValueError("edges must have ||j - i||_inf >= 2")
    later = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    if not later.all():
        raise ValueError("edges must be sorted and unique")
