"""Sampling of percolation configurations on finite boxes of Z^d.

Vertices are [0, n)^d linearized row-major.  Nearest-neighbor edges
(ell-infinity distance 1, i.e. the full Moore neighborhood) are implicit
and always present; only long edges (||k||_inf >= 2) are stored.

Sampling walks displacement classes: for each representative
displacement k the candidate pair count is N_k = prod(n - |k_m|) and
the number of present edges is an exact Binomial(N_k, p_k) draw, with
positions a uniform sample without replacement.  Cost is proportional
to the number of classes plus edges drawn, never to the number of
vertex pairs.  Each class consumes its own RNG substream so replicates
and classes are independently keyed and reruns are byte-identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .kernel import DEFAULT_TOLERANCE, DisplacementKernel, kernel_integrals_d1
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

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, neighbors) over the long edges, both directions."""
        if self._adjacency is None:
            m = self.n_vertices
            if self.long_edges.size:
                nodes = np.concatenate(
                    [self.long_edges[:, 0], self.long_edges[:, 1]])
                nbrs = np.concatenate(
                    [self.long_edges[:, 1], self.long_edges[:, 0]])
                order = np.argsort(nodes, kind="stable")
                nodes, nbrs = nodes[order], nbrs[order]
                indptr = np.zeros(m + 1, dtype=np.int64)
                np.add.at(indptr, nodes + 1, 1)
                indptr = np.cumsum(indptr)
            else:
                indptr = np.zeros(m + 1, dtype=np.int64)
                nbrs = np.empty(0, dtype=np.int64)
            object.__setattr__(self, "_adjacency", (indptr, nbrs))
        return self._adjacency


def representative_displacements(d: int, n: int):
    """One displacement per unordered pair orbit: first nonzero coord > 0.

    Yields every long displacement (||k||_inf >= 2) that can occur in an
    n-box, each unordered pair {i, j} matching exactly one of +-k.
    """
    if d == 1:
        for k in range(2, n):
            yield (k,)
    elif d == 2:
        for a in range(1, n):
            for b in range(-(n - 1), n):
                if max(abs(a), abs(b)) >= 2:
                    yield (a, b)
        for b in range(2, n):
            yield (0, b)
    else:
        for a in range(1, n):
            for b in range(-(n - 1), n):
                for c in range(-(n - 1), n):
                    if max(abs(a), abs(b), abs(c)) >= 2:
                        yield (a, b, c)
        for b in range(1, n):
            for c in range(-(n - 1), n):
                if max(b, abs(c)) >= 2:
                    yield (0, b, c)
        for c in range(2, n):
            yield (0, 0, c)


def class_pair_count(k: tuple[int, ...], n: int) -> int:
    """Number of candidate pairs (i, i+k) with both endpoints in the box."""
    count = 1
    for c in k:
        count *= n - abs(c)
    return count


def sample_graph(config: ModelConfig, stream_id: StreamKey = 0,
                 kernel: DisplacementKernel | None = None,
                 tolerance: float = DEFAULT_TOLERANCE) -> LrpGraph:
    """Draw one configuration; identical (config, stream_id) reproduce bytes.

    Each displacement class k consumes the RNG substream keyed by its
    enumeration index, so relabeling substreams leaves the sampled law
    unchanged and replicate streams never collide.
    """
    d, n, beta = config.d, config.n, config.beta
    base = RngStream(config.seed, stream_id)
    if d == 1:
        return _sample_d1(config, base)
    if kernel is None:
        kernel = DisplacementKernel.build(d, beta, n - 1, tolerance)
    strides = np.asarray(config.strides, dtype=np.int64)
    chunks = []
    for idx, k in enumerate(representative_displacements(d, n)):
        p = kernel.probability(k)
        N = class_pair_count(k, n)
        rng = base.substream(idx).generator()
        cnt = int(rng.binomial(N, p))
        if cnt == 0:
            continue
        pos = np.sort(rng.choice(N, size=cnt, replace=False))
        base_coords = _decode_positions(pos, k, n)
        i = base_coords @ strides
        j = (base_coords + np.asarray(k, dtype=np.int64)) @ strides
        chunks.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1))
    return _finish(config, chunks)


def _sample_d1(config: ModelConfig, base: RngStream) -> LrpGraph:
    n, beta = config.n, config.beta
    ks = np.arange(2, n)
    ps = -np.expm1(-beta * kernel_integrals_d1(ks.astype(float)))
    chunks = []
    for idx, (k, p) in enumerate(zip(ks, ps)):
        N = n - int(k)
        rng = base.substream(idx).generator()
        cnt = int(rng.binomial(N, p))
        if cnt == 0:
            continue
        pos = np.sort(rng.choice(N, size=cnt, replace=False)).astype(np.int64)
        chunks.append(np.stack([pos, pos + int(k)], axis=1))
    return _finish(config, chunks)


def _decode_positions(pos: np.ndarray, k: tuple[int, ...],
                      n: int) -> np.ndarray:
    """Mixed-radix decode of flat candidate indices to base coordinates."""
    d = len(k)
    sizes = [n - abs(c) for c in k]
    out = np.empty((pos.size, d), dtype=np.int64)
    rem = pos.astype(np.int64)
    for m in range(d - 1, -1, -1):
        out[:, m] = rem % sizes[m]
        rem = rem // sizes[m]
    # classes with a negative coordinate start at -k_m so i + k stays in box
    for m, c in enumerate(k):
        if c < 0:
            out[:, m] += -c
    return out


def _finish(config: ModelConfig, chunks) -> LrpGraph:
    if chunks:
        edges = np.concatenate(chunks, axis=0)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return LrpGraph(config=config, long_edges=edges)


def expected_long_edge_total(config: ModelConfig,
                             tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Exact mean number of long edges, sum of N_k p_k over classes."""
    d, n, beta = config.d, config.n, config.beta
    if d == 1:
        ks = np.arange(2, n)
        ps = -np.expm1(-beta * kernel_integrals_d1(ks.astype(float)))
        return float(((n - ks) * ps).sum())
    kernel = DisplacementKernel.build(d, beta, n - 1, tolerance)
    return float(sum(class_pair_count(k, n) * kernel.probability(k)
                     for k in representative_displacements(d, n)))


def save_binary(graph: LrpGraph, path) -> None:
    """Versioned binary dump: LRPG header then little-endian u64 pairs."""
    cfg = graph.config
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, cfg.d, cfg.n, cfg.beta,
                              cfg.seed, graph.long_edges.shape[0]))
        graph.long_edges.astype("<u8").tofile(fh)


def load_binary(path) -> LrpGraph:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError("truncated header")
        magic, version, d, n, beta, seed, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a graph file (magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        edges = np.fromfile(fh, dtype="<u8", count=2 * count)
    if edges.size != 2 * count:
        raise ValueError("truncated edge list")
    config = ModelConfig(d=d, beta=beta, n=n, seed=seed)
    return LrpGraph(config=config,
                    long_edges=edges.reshape(count, 2).astype(np.int64))


def export_text(graph: LrpGraph, path) -> None:
    """Plain-text edge list: header '# d n beta seed', one 'i j' per line."""
    cfg = graph.config
    with open(path, "w") as fh:
        fh.write(f"# {cfg.d} {cfg.n} {cfg.beta:.17g} {cfg.seed}\n")
        for i, j in graph.long_edges:
            fh.write(f"{i} {j}\n")


def import_text(path) -> tuple[ModelConfig, np.ndarray]:
    """Read an `export_text` file; rejects edges that no sample can hold:
    ends out of range, i >= j, or ||j - i||_inf < 2."""
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
    i, j = arr[:, 0], arr[:, 1]
    if ((i < 0) | (j >= config.n_vertices)).any():
        raise ValueError(f"edge end out of range [0, {config.n_vertices})")
    if (i >= j).any():
        raise ValueError("edges must satisfy i < j")
    shape = (n,) * d
    gap = np.abs(np.subtract(np.unravel_index(j, shape),
                             np.unravel_index(i, shape))).max(axis=0,
                                                             initial=0)
    if (gap < 2).any():
        raise ValueError("edges must have ||j - i||_inf >= 2")
    return config, arr
