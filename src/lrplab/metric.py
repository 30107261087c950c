"""Chemical distance, restricted metrics, and the geodesic DAG.

All distances are exact BFS distances (unit edge weights) on a sampled
configuration, optionally restricted to a region: a boolean mask over
the linearized box.  A restricted path may only visit vertices inside
the region, endpoints included, so edges with an endpoint outside are
excluded.  Unreached targets are reported as None at the public API;
internally distance arrays use -1.

Searches run on padded ids (`LrpGraph.pad`): the box padded by one
ghost layer, (n + 2)^d ids, on which the graph's long-edge CSR is
built.  Every box vertex then has all 3^d - 1 lattice neighbours, so a
lattice step is the frontier plus cached id deltas, with no
coordinates and no bounds check.  Ghosts, and vertices outside the
region, start out labelled as visited.

A search toward a target is one lockstep BFS over two copies of the
padded box, interleaved as ids 2p + c: x grows in copy 0 and y in
copy 1, and each iteration expands both frontiers in the same numpy
calls.  At the first iteration r whose new vertices include one that
carries both labels, d(x, y) = D is the least dx + dy among them:
before that iteration no vertex was labelled twice, so D > 2(r - 1),
and the geodesic vertex with dx = r and dy = D - r <= r was labelled
in it.  A search thus takes ~D/2 iterations instead of D.

The geodesic DAG starts from that search.  With h = D - r, the split
layer {dx = h, dy = r} meets every geodesic once.  From it one walk
goes back toward x on x-levels and one goes forward toward y, taking
the neighbours of S_{L-1} with dy = D - L as S_L; both run in lockstep.
One expansion of every vertex found then gives each its predecessors,
its neighbours one level lower, in neighbour order: lattice offsets
first, then CSR order.  It holds, for every vertex on some geodesic,
its level, its predecessor list and the number of geodesics from x to
it, counted exactly with Python ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

UNREACHED = -1
_BLOCKED = -2     # label of ghosts and of vertices outside the region


def resolve_mask(graph, region) -> np.ndarray | None:
    """None (the whole box) or a boolean membership array over the box."""
    if region is None:
        return None
    mask = np.asarray(region, dtype=bool)
    if mask.size != graph.n_vertices:
        raise ValueError("mask size does not match box")
    return mask


@functools.lru_cache(maxsize=None)
def _nn_offsets(d: int) -> np.ndarray:
    """All 3^d - 1 ell-infinity unit displacements (read-only)."""
    grids = np.meshgrid(*([np.array([-1, 0, 1])] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    offs = offs[(offs != 0).any(axis=1)]
    offs.flags.writeable = False
    return offs


@functools.lru_cache(maxsize=64)
def _padded_deltas(d: int, n: int) -> np.ndarray:
    """Padded-id deltas of the `_nn_offsets` displacements (read-only)."""
    strides = (n + 2) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    deltas = _nn_offsets(d) @ strides
    deltas.flags.writeable = False
    return deltas


def _lattice_neighbours(graph, v) -> tuple[np.ndarray, np.ndarray]:
    """In-box lattice neighbours of vertices `v` as (position in v,
    neighbour), vertex by vertex in `_nn_offsets` order."""
    n, d = graph.config.n, graph.config.d
    deltas = _padded_deltas(d, n)
    nb = (graph.pad(v)[:, None] + deltas).ravel()
    inside = np.logical_and.reduce(
        [(c >= 1) & (c <= n) for c in np.unravel_index(nb, (n + 2,) * d)])
    pos = np.repeat(np.arange(len(v)), deltas.size)
    return pos[inside], graph.unpad(nb[inside])


def _expand(front, steps, indptr, nbrs):
    """Neighbours of interleaved ids 2p + c, keeping each one's copy c,
    and the long-edge count of each frontier vertex.  The lattice
    neighbours come first, vertex by vertex in `steps` order, then the
    long ones, vertex by vertex in CSR order."""
    near = (front[:, None] + steps).ravel()
    base = front >> 1
    starts = indptr[base]
    counts = indptr[base + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if not total:
        return near, counts
    idx = np.repeat(starts - ends + counts, counts) + np.arange(total)
    far = (nbrs[idx] << 1) | np.repeat(front & 1, counts)
    return np.concatenate([near, far]), counts


def _unique(cand, stamp):
    """The distinct ids of `cand`, by a scatter stamp over `stamp`."""
    ar = np.arange(cand.size, dtype=stamp.dtype)
    stamp[cand] = ar
    return cand[stamp[cand] == ar]


@dataclass
class _Search:
    """State of a finished lockstep search (see the module docstring)."""

    labels: np.ndarray     # over interleaved ids, -1/-2 where unlabelled
    inner: np.ndarray      # the box part of `labels`, shape (n,)*d + (2,)
    front: np.ndarray      # ids labelled in the last iteration
    level: int             # iterations run
    dist: int | None       # d(x, y); None without a target or if cut off
    stamp: np.ndarray      # stamp buffer for `_unique`


def _search(graph, x: int, y: int | None, mask) -> _Search:
    """BFS from x in copy 0 and, with a target y, from y in copy 1 in
    lockstep, until the copies meet or a frontier runs out."""
    n, d = graph.config.n, graph.config.d
    labels = np.full((n + 2,) * d + (2,), _BLOCKED, dtype=np.int32)
    inner = labels[(slice(1, -1),) * d]
    inner[...] = UNREACHED
    if mask is not None:
        inner[~mask.reshape((n,) * d)] = _BLOCKED
    labels = labels.reshape(-1)
    stamp = np.empty_like(labels)
    steps = 2 * _padded_deltas(d, n)
    indptr, nbrs = graph.adjacency()
    sources = [x] if y is None else [x, y]
    front = 2 * graph.pad(sources) + np.arange(len(sources))
    front = front[labels[front] == UNREACHED]
    labels[front] = 0
    level, dist = 0, None
    while front.size:
        if y is not None:
            other = labels[front ^ 1]
            if other.max() >= 0:
                dist = level + int(other[other >= 0].min())
                break
            # the box is connected, so only a region can cut a side off
            if mask is not None:
                in_y = np.count_nonzero(front & 1)
                if in_y == 0 or in_y == front.size:
                    break
        level += 1
        cand = _expand(front, steps, indptr, nbrs)[0]
        front = _unique(cand[labels[cand] == UNREACHED], stamp)
        labels[front] = level
    return _Search(labels=labels, inner=inner, front=front, level=level,
                   dist=dist, stamp=stamp)


def distance_field(graph, source: int, region=None,
                   target: int | None = None) -> np.ndarray:
    """BFS distance array from one source (-1 where unreached).

    When `target` is given, the search is the two-sided one toward it:
    it stops once the two sides meet, and the array holds the source
    side's labels with d(source, target) at the target's entry.
    """
    mask = resolve_mask(graph, region)
    search = _search(graph, source, target, mask)
    dist = search.inner[..., 0].ravel()
    if mask is not None:
        np.maximum(dist, UNREACHED, out=dist)
    if search.dist is not None:
        dist[target] = search.dist
    return dist


def distance(graph, x: int, y: int, region=None) -> int | None:
    """Chemical distance between vertices, or None if the region cuts them."""
    mask = resolve_mask(graph, region)
    if mask is not None and not (mask[x] and mask[y]):
        raise ValueError("endpoints must lie inside the region")
    d = distance_field(graph, x, mask, target=y)[y]
    return None if d == UNREACHED else int(d)


@dataclass
class GeodesicDag:
    """All geodesics between source and target, as a layered DAG.

    `levels` maps every on-geodesic vertex to its distance from the
    source; `preds` and `counts` satisfy counts[v] = sum of counts over
    preds[v] with counts[source] = 1.
    """

    source: int
    target: int
    dist: int
    levels: dict
    preds: dict
    counts: dict

    @property
    def count(self) -> int:
        return self.counts[self.target]


def geodesic_dag(graph, x: int, y: int, region=None,
                 exact_counts: bool = True) -> GeodesicDag:
    """Build the predecessor DAG of all x->y geodesics inside the region.

    One two-sided search, then walks from its split layer back toward x
    and on toward y (see the module docstring), then one expansion of
    the vertices found: the preds of v at level L are its neighbours at
    level L - 1 in neighbour order.  So preds holds exactly the edges
    (u, v) with dist(x,u) + 1 = dist(x,v) and dist(v,y) = dist(x,y) -
    dist(x,v), and counts[v] = sum of counts over preds[v], summed
    forward and exact.  `exact_counts` is ignored; it is accepted for
    callers written when counts could saturate.
    """
    search = _search(graph, x, y, resolve_mask(graph, region))
    if search.dist is None:
        raise ValueError("target unreached within region")
    D, r = search.dist, search.level
    labels, stamp = search.labels, search.stamp
    h = D - r
    steps = 2 * _padded_deltas(graph.config.d, graph.config.n)
    indptr, nbrs = graph.adjacency()

    def walk(front, level):
        cand = _expand(front, steps, indptr, nbrs)[0]
        return _unique(cand[labels[cand] == level], stamp)

    # the split layer in copy 0; its copy-1 twin starts the walk to y
    in_y = search.front[(search.front & 1) == 1]
    split = in_y[labels[in_y ^ 1] == h] ^ 1
    layers = [split]
    to_y = split ^ 1
    if r > h:       # odd D: one step toward y brings dy down to h
        to_y = walk(to_y, h)
        layers.append(to_y)
    front = np.concatenate([split, to_y])
    for level in range(h - 1, -1, -1):
        front = walk(front, level)
        layers.append(front)
    ids = np.concatenate(layers)
    lvl = np.where(ids & 1, D - labels[ids], labels[ids])
    verts = ids >> 1
    order = np.lexsort((verts, lvl))       # by level, then by vertex
    verts, lvl = verts[order], lvl[order]
    # preds: every neighbour one level lower, in neighbour order; only
    # x sits at level 0
    level_of = np.full(labels.size // 2, UNREACHED, dtype=np.int32)
    level_of[verts] = lvl
    cand, n_long = _expand(2 * verts[1:], steps, indptr, nbrs)
    rows = np.arange(verts.size - 1)
    pos = np.concatenate([np.repeat(rows, steps.size),
                          np.repeat(rows, n_long)])
    cand = cand >> 1
    keep = level_of[cand] == lvl[1:][pos] - 1
    pos, cand = pos[keep], cand[keep]
    order = np.argsort(pos, kind="stable")
    cuts = np.searchsorted(pos[order], np.arange(verts.size)).tolist()
    ps = graph.unpad(cand[order]).tolist()
    vs = graph.unpad(verts).tolist()
    levels = dict(zip(vs, lvl.tolist()))
    preds, counts = {}, {vs[0]: 1}
    for v, a, b in zip(vs[1:], cuts, cuts[1:]):
        preds[v] = vp = ps[a:b]
        counts[v] = sum(counts[u] for u in vp)
    return GeodesicDag(source=int(x), target=int(y), dist=D, levels=levels,
                       preds=preds, counts=counts)


def sample_geodesic(dag: GeodesicDag, rng) -> list[int]:
    """One geodesic drawn uniformly among all geodesics in the DAG.

    Walks backward from the target choosing each predecessor with
    probability proportional to its prefix count.  `rng` is a numpy
    Generator.
    """
    path = [dag.target]
    cur = dag.target
    while cur != dag.source:
        ps = dag.preds[cur]
        if len(ps) == 1:
            cur = ps[0]
        else:
            weights = np.array([dag.counts[u] for u in ps], dtype=float)
            cur = ps[int(rng.choice(len(ps), p=weights / weights.sum()))]
        path.append(cur)
    path.reverse()
    return path


def path_edges(path) -> set:
    """Undirected edge set of a vertex path."""
    return {(min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])}
