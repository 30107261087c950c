"""Sampling of percolation configurations on finite boxes of Z^d.

Vertices are [0, n)^d linearized row-major.  Nearest-neighbor edges
(ell-infinity distance 1, i.e. the full Moore neighborhood) are implicit
and always present; only long edges (||k||_inf >= 2) are stored.

Sampling walks the class list of the box, `kernel.class_table`.  A
class's M_c members (one displacement per unordered pair orbit) share
the edge probability p_c and the pair count N_c = prod(n - c_m), so
their edges are one exact Binomial(M_c * N_c, p_c) draw at a uniform
set of distinct positions; position s is pair s mod N_c of member
s // N_c, an independent Binomial(N_c, p_c) per member.  Cost is
proportional to classes plus edges drawn, never to vertex pairs.  Each
sample consumes one RNG stream keyed by (seed, stream_id), in a fixed
order: all class counts, then the positions of the classes hit in table
order; so replicates are independently keyed and reruns are
byte-identical.

The positions of a class with c edges among N = M_c * N_c are a uniform
c-subset of range(N) drawn by Floyd's algorithm (Bentley & Floyd 1987):
c draws bounded by N - c, ..., N - 1, bounds that depend on (N, c)
alone.  `sample_graph` draws a sample's class counts; its positions are
drawn when it is first read, by one `integers` call over all its bounds
in the order above.  Floyd's collision fix-up, the decode to edges, the
sort and the padded-box CSR then follow.  `map_replicates` applies a
function to the replicates of a list of keys: it draws each from its
own generator, runs these steps once per batch of keys, and inside a
`replicate_pool` block splits the keys over its worker processes.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import DisplacementKernel, class_table, orbit_members
from .rng import RngStream, StreamKey

_MAGIC = b"LRPG"
_VERSION = 2
_HEADER = struct.Struct("<4sHBQdQQ")
_CRC = struct.Struct("<I")

# the search labels two copies of the padded (n + 2)^d box in int32 and
# the CSR holds an int64 indptr over it: 48 GiB at 2^31 padded sites
_MAX_PADDED = 2 ** 31

# classes times replicates drawn in one batch, which bounds the
# batch's temporaries and the graphs it holds at once
_BATCH_ROWS = 1 << 13


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
        if (self.n + 2) ** self.d > _MAX_PADDED:
            raise ValueError(
                f"box too large for the search: (n + 2)^d = "
                f"{(self.n + 2) ** self.d} padded sites exceed 2^31")

    @property
    def n_vertices(self) -> int:
        return self.n ** self.d

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(self.n ** (self.d - 1 - m) for m in range(self.d))


class LrpGraph:
    """One sampled configuration: implicit lattice plus explicit long edges.

    `long_edges` is an (m, 2) array of linearized endpoints with
    i < j per row, sorted lexicographically.  Immutable once built.  A
    graph from `sample_graph` holds its generator and class counts
    until its edges or adjacency are first read, and then draws its
    positions and decodes them (`_decode`); `map_replicates` decodes
    the graphs of a batch together.
    """

    def __init__(self, config: ModelConfig, long_edges: np.ndarray | None):
        self.config = config
        self._edges = long_edges
        self._adjacency: tuple[np.ndarray, np.ndarray] | None = None
        # (generator, class counts) of a sample not yet decoded
        self._draw: tuple[np.random.Generator, np.ndarray] | None = None

    @property
    def long_edges(self) -> np.ndarray:
        if self._draw is not None:
            _decode([self])
        return self._edges

    @property
    def n_vertices(self) -> int:
        return self.config.n_vertices

    def coords(self, v) -> np.ndarray:
        """Linear index -> lattice coordinates, vectorized; an id outside
        the box raises ValueError."""
        n, d = self.config.n, self.config.d
        return np.stack(np.unravel_index(v, (n,) * d), axis=-1)

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
        if self._draw is not None:
            _decode([self])
        if self._adjacency is None:
            ends = self.pad(self.long_edges)
            self._adjacency = _csr(ends[:, 0], ends[:, 1], 0, 1,
                                   (self.config.n + 2) ** self.config.d)
        return self._adjacency


def sample_graph(config: ModelConfig, stream_id: StreamKey = 0) -> LrpGraph:
    """Draw one configuration; identical (config, stream_id) reproduce bytes.

    One generator, keyed by (seed, stream_id), draws every class count
    and position, so distinct replicate streams never collide.  The
    counts are drawn here, the positions when the graph is first read.
    The kernel is built at `kernel.TOLERANCE`.
    """
    table = class_table(config.d, config.n)
    kernel = DisplacementKernel.build(config.d, config.beta, config.n - 1)
    rng = RngStream(config.seed, stream_id).generator()
    graph = LrpGraph(config, None)
    graph._draw = (rng, rng.binomial(table.members * table.pairs,
                                     kernel.probabilities))
    return graph


# the workers of the open `replicate_pool` (1 outside one), its executor
_workers, _executor = 1, None


@contextlib.contextmanager
def replicate_pool(jobs: int):
    """A block in which `map_replicates` splits two or more keys over
    min(jobs, CPU count) spawned processes, started at the first such
    call and shut down, pending work cancelled, however the block exits;
    a script that opens one keeps its entry code under `__main__`."""
    global _workers, _executor
    outer = _workers, _executor
    _workers, _executor = min(jobs, os.cpu_count() or 1), None
    try:
        yield
    finally:
        if _executor is not None:
            _executor.shutdown(cancel_futures=True)
        _workers, _executor = outer


def map_replicates(config: ModelConfig, keys, fn) -> list:
    """`fn(key, sample_graph(config, key))` for each stream key, in key
    order.

    The graphs are decoded in batches of at most `_BATCH_ROWS` classes
    in all, a graph's arrays being views into its batch's, and each is
    dropped once `fn` returns.  In a `replicate_pool` of two or more
    workers each worker maps one chunk of consecutive keys, so `fn` must
    pickle (a module-level function or a `functools.partial` of one),
    and their generator counts are added to this process's.  Each key
    has its own generator, so the results do not depend on the pool.
    """
    global _executor
    keys = list(keys)
    if _workers > 1 and len(keys) > 1:
        if _executor is None:
            # imported here: a process that never starts a pool pays nothing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            _executor = ProcessPoolExecutor(
                max_workers=_workers,
                mp_context=multiprocessing.get_context("spawn"))
        step = -(-len(keys) // _workers)
        parts = list(_executor.map(_map_chunk, [
            (config, keys[lo:lo + step], fn)
            for lo in range(0, len(keys), step)]))
        RngStream.built += sum(built for _, built in parts)
        return [out for outs, _ in parts for out in outs]
    rows = class_table(config.d, config.n).pairs.size
    step = max(1, _BATCH_ROWS // max(1, rows))
    out = []
    for lo in range(0, len(keys), step):
        batch = keys[lo:lo + step]
        graphs = [sample_graph(config, key) for key in batch]
        _decode(graphs)
        graphs.reverse()
        out += [fn(key, graphs.pop()) for key in batch]
    return out


def _map_chunk(args) -> tuple[list, int]:
    """A pool worker's results for one chunk of keys, and the generators
    it built, which the parent's `RngStream.built` does not see."""
    before = RngStream.built
    return map_replicates(*args), RngStream.built - before


def _decode(graphs: list[LrpGraph]) -> None:
    """Draw the positions of the undecoded graphs among `graphs`, all of
    one config, each from its own generator (`_positions`), and build
    their edges and adjacency together."""
    graphs = [g for g in graphs if g._draw is not None]
    if not graphs:
        return
    config = graphs[0].config
    d, n = config.d, config.n
    table = class_table(d, n)
    rngs = [g._draw[0] for g in graphs]
    counts = [g._draw[1] for g in graphs]
    # one graph, as in every batch of a long table: no stacked copy
    counts = np.stack(counts) if len(counts) > 1 else counts[0][None]
    rep, row = np.nonzero(counts)
    c = counts[rep, row]
    # each temporary is dropped once used, so the peak stays a few arrays
    del counts
    members, pairs = table.members[row], table.pairs[row]
    pos = _positions(rngs, rep, members * pairs, c)
    rep = np.repeat(rep, c)
    # position -> (member, pair); entry e's members start at first[e]
    first = np.cumsum(members) - members
    member, pos = np.divmod(pos, np.repeat(pairs, c))
    k = orbit_members(table.classes[row])[np.repeat(first, c) + member]
    del member
    # mixed-radix decode of each position to the base coordinates of
    # its pair; a class with k_m < 0 starts at -k_m so i + k stays in box
    base = np.empty_like(k)
    for m in range(d - 1, -1, -1):
        pos, base[:, m] = np.divmod(pos, n - np.abs(k[:, m]))
    base += np.maximum(-k, 0)
    strides = np.asarray(config.strides, dtype=np.int64)
    i = base @ strides
    j = i + k @ strides      # > i: k is lexicographically positive
    order = _argsort_rows((rep, i, j), (len(graphs), config.n_vertices,
                                        config.n_vertices))
    edges = np.stack([i[order], j[order]], axis=1)
    del i, j, pos
    # padded ids (see `LrpGraph.pad`); replicate r's start at r * side
    side = (n + 2) ** d
    pstrides = np.asarray([(n + 2) ** (d - 1 - m) for m in range(d)],
                          dtype=np.int64)
    base += 1
    lo_end = (base @ pstrides)[order]
    base += k
    hi_end = (base @ pstrides)[order]
    rep = rep[order]
    del k, base, order
    ecut = np.searchsorted(rep, np.arange(len(graphs) + 1))
    indptr, nbrs = _csr(lo_end, hi_end, rep, len(graphs), side)
    del lo_end, hi_end, rep
    for r, g in enumerate(graphs):
        ptr = indptr[r * side:(r + 1) * side + 1]
        g._edges = edges[ecut[r]:ecut[r + 1]]
        g._adjacency = (ptr - ptr[0], nbrs[ptr[0]:ptr[-1]])
        g._draw = None


def _csr(lo: np.ndarray, hi: np.ndarray, rep, count: int,
         side: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, neighbors) of `count` padded boxes of `side` ids
    laid end to end, for the edges (lo, hi) of box `rep`, sorted by
    (rep, lo, hi): each id's neighbours above it first, then those
    below, each ascending.  Neighbours keep the ids of their own box."""
    nodes = np.concatenate([lo + rep * side, hi + rep * side])
    nbrs = np.concatenate([hi, lo])[np.argsort(nodes, kind="stable")]
    indptr = np.zeros(count * side + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=count * side), out=indptr[1:])
    return indptr, nbrs


def _positions(rngs: list, rep: np.ndarray, pairs: np.ndarray,
               c: np.ndarray) -> np.ndarray:
    """For each entry e, a uniform set of c[e] distinct positions in
    range(pairs[e]), drawn by generator rngs[rep[e]] (rep ascending);
    returned entry after entry, unsorted within one.

    Floyd's algorithm: step t = 0, ..., c - 1 of a c-subset of range(N)
    draws v uniform on [0, j], j = N - c + t, and takes v, or j if v is
    already in the subset.  Each generator draws every step of its
    entries in one `integers` call.  v is in the subset if an earlier
    step of its entry drew the same value, or if it equals the j of an
    earlier step that itself took j; the second case chains back through
    earlier steps, resolved by pointer jumping.
    """
    e = np.repeat(np.arange(c.size), c)
    start = np.cumsum(c) - c
    step = np.arange(e.size) - start[e]
    low = pairs[e] - c[e]
    j = low + step
    cut = np.append(start, e.size)[
        np.searchsorted(rep, np.arange(len(rngs) + 1))]
    vals = np.empty(e.size, dtype=np.int64)
    for r, rng in enumerate(rngs):
        vals[cut[r]:cut[r + 1]] = rng.integers(0, j[cut[r]:cut[r + 1]],
                                               endpoint=True)
    # ties break by step, so a repeated draw follows its entry's earlier ones
    order = _argsort_rows((e, vals, step), (c.size, int(pairs.max(initial=0)),
                                            int(c.max(initial=0))))
    e_in, vals_in = e[order], vals[order]
    hit = np.zeros(e.size, dtype=bool)
    hit[order[1:]] = ((e_in[1:] == e_in[:-1])
                      & (vals_in[1:] == vals_in[:-1]))
    del e_in, vals_in, order
    back = vals - low                   # the step whose j equals the draw
    parent = np.where((back >= 0) & (back < step), start[e] + back,
                      np.arange(e.size))
    while True:
        hit |= hit[parent]
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    return np.where(hit, j, vals)


def expected_long_edge_total(config: ModelConfig) -> float:
    """Exact mean number of long edges, sum of M_c N_c p_c over classes."""
    table = class_table(config.d, config.n)
    kernel = DisplacementKernel.build(config.d, config.beta, config.n - 1)
    return float((table.members * table.pairs) @ kernel.probabilities)


def _argsort_rows(cols, sizes) -> np.ndarray:
    """Indices that sort the rows of integer columns `cols`, first
    column major, where column m holds values in [0, sizes[m]).  One
    int64 key and `argsort` where the sizes' product fits in it,
    `lexsort` otherwise."""
    if math.prod(sizes) > 2 ** 63:
        return np.lexsort(cols[::-1])
    key = cols[0]
    for col, size in zip(cols[1:], sizes[1:]):
        key = key * size + col
    return np.argsort(key)


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
    """Versioned binary dump: LRPG header, little-endian u64 pairs, then
    a little-endian CRC-32 of both."""
    cfg = graph.config
    header = _HEADER.pack(_MAGIC, _VERSION, cfg.d, cfg.n, cfg.beta,
                          cfg.seed, graph.long_edges.shape[0])
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        edges = graph.long_edges.astype("<u8")
        edges.tofile(fh)
        fh.write(_CRC.pack(zlib.crc32(edges, zlib.crc32(header))))


def load_binary(path) -> LrpGraph:
    """Read a `save_binary` file; rejects truncated or trailing bytes, a
    checksum mismatch and edges that no sample can hold (see
    `_check_edges`)."""
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
    size = 16 * count + _CRC.size
    if len(body) < size:
        raise ValueError("truncated edge list")
    if len(body) > size:
        raise ValueError("trailing bytes after the edge list")
    payload = memoryview(body)[:-_CRC.size]
    if zlib.crc32(payload, zlib.crc32(raw)) != _CRC.unpack(
            body[-_CRC.size:])[0]:
        raise ValueError("checksum mismatch")
    config = ModelConfig(d=d, beta=beta, n=n, seed=seed)
    # ends >= 2^63 wrap negative here and fail the range check
    edges = np.frombuffer(payload, dtype="<u8").reshape(count, 2).astype(
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
