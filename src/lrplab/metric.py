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
copy 1, and each iteration expands both frontiers in one level step.
At the first iteration r whose new vertices include one that
carries both labels, d(x, y) = D is the least dx + dy among them:
before that iteration no vertex was labelled twice, so D > 2(r - 1),
and the geodesic vertex with dx = r and dy = D - r <= r was labelled
in it.  A search thus takes ~D/2 iterations instead of D.

A level step of the search takes one of two forms, chosen from the
level's expected candidate count: its front size times (3^d - 1 + the
graph's mean long degree).  Up to `_PY_CANDIDATES` the level expands
in Python over memoryviews of the labels and the CSR, and its front is
a list; above, it expands in numpy and its front is an array.  A numpy
level makes ~30 calls, at ~30-45 us whatever its size, while a Python
level costs ~0.3 us a candidate, and at d = 1 most fronts hold a few
ids.  Both forms label the same ids; only the order of a front's ids
may differ.

The geodesic DAG reads that search's labels on two short Python walks,
one vertex at a time: the DAG is thin, as the geodesic is a.s. unique.
With r the search's last level, copy 0 holds dx <= r and copy 1 dy <=
r, and D >= 2r - 1 puts every geodesic vertex past level r at dy < r.
The walk toward y starts from x's last front where dy = D - r, takes
as level L the neighbours of level L - 1 with dy = D - L, and gives
each L as its copy-0 label.  The walk back from y then reads the
predecessors of each vertex at level L: its neighbours with copy-0
label L - 1, in neighbour order (lattice offsets, then CSR order).
Such a neighbour u of a geodesic vertex v has dy(u) <= dy(v) + 1, so
it lies on a geodesic too.  The DAG holds, for every vertex on some
geodesic, its level, its predecessor list and the number of geodesics
from x to it, counted exactly with Python ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

UNREACHED = -1
_BLOCKED = -2     # label of ghosts and of vertices outside the region
# the most expected candidates a level expands in Python (see the
# module docstring): timed per level on 2 vCPUs (Python 3.11, numpy
# 2.4), the two forms tie at 128-144 at d = 1, where most levels are,
# and Python still leads at 192 at d = 2 and 3
_PY_CANDIDATES = 128


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
    """Neighbours of interleaved ids 2p + c, keeping each one's copy c:
    the lattice ones, vertex by vertex in `steps` order, then the long
    ones, vertex by vertex in CSR order."""
    near = (front[:, None] + steps).ravel()
    base = front >> 1
    starts = indptr[base]
    counts = indptr[base + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if not total:
        return near
    idx = np.repeat(starts - ends + counts, counts) + np.arange(total)
    far = (nbrs[idx] << 1) | np.repeat(front & 1, counts)
    return np.concatenate([near, far])


def _unique(cand, labels, label):
    """The distinct ids of `cand`, all labelled `label`: the positions
    whose code (below `_BLOCKED`, so no label) stays after a scatter."""
    codes = np.arange(_BLOCKED - 1, _BLOCKED - 1 - cand.size, -1,
                      dtype=labels.dtype)
    labels[cand] = codes
    out = cand[labels[cand] == codes]
    labels[out] = label
    return out


class _Levels:
    """The search's level step over interleaved ids, in the form its
    front's size picks (see the module docstring)."""

    def __init__(self, graph, labels):
        self.labels = labels
        self.steps = 2 * _padded_deltas(graph.config.d, graph.config.n)
        self.indptr, self.nbrs = graph.adjacency()
        self.width = self.steps.size + self.nbrs.size / graph.n_vertices
        self.views = (memoryview(labels), memoryview(self.indptr),
                      memoryview(self.nbrs), self.steps.tolist())

    def form(self, front):
        """`front` as a list if its level is small, else as an array."""
        if len(front) * self.width <= _PY_CANDIDATES:
            return front if isinstance(front, list) else front.tolist()
        return np.asarray(front, dtype=np.int64)

    def meet(self, front) -> int | None:
        """The least label of a twin (id ^ 1) of `front`, None if no
        twin is labelled."""
        if not isinstance(front, list):
            other = self.labels[front ^ 1]
            other = other[other >= 0]
            return int(other.min()) if other.size else None
        lab, least = self.views[0], None
        for v in front:
            t = lab[v ^ 1]
            if t >= 0 and (least is None or t < least):
                least = t
        return least

    def step(self, front, match: int, label: int):
        """The distinct neighbours of `front` whose label is `match`,
        relabelled `label`."""
        front = self.form(front)
        if not isinstance(front, list):
            cand = _expand(front, self.steps, self.indptr, self.nbrs)
            return _unique(cand[self.labels[cand] == match], self.labels,
                           label)
        # an id is relabelled when taken, so it is taken once
        lab, indptr, nbrs, steps = self.views
        out = []
        take = out.append
        for v in front:
            for u in steps:
                u += v
                if lab[u] == match:
                    lab[u] = label
                    take(u)
            c, p = v & 1, v >> 1
            k, end = indptr[p], indptr[p + 1]
            while k < end:
                u = 2 * nbrs[k] + c
                k += 1
                if lab[u] == match:
                    lab[u] = label
                    take(u)
        return out


@dataclass
class _Search:
    """State of a finished lockstep search (see the module docstring)."""

    labels: np.ndarray     # over interleaved ids, -1/-2 where unlabelled
    inner: np.ndarray      # the box part of `labels`, shape (n,)*d + (2,)
    front: np.ndarray      # ids labelled in the last iteration
    level: int             # iterations run
    dist: int | None       # d(x, y); None without a target or if cut off


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
    bfs = _Levels(graph, labels)
    sources = [x] if y is None else [x, y]
    front = 2 * graph.pad(sources) + np.arange(len(sources))
    front = front[labels[front] == UNREACHED]
    labels[front] = 0
    level, dist = 0, None
    while len(front):
        front = bfs.form(front)
        if y is not None:
            meet = bfs.meet(front)
            if meet is not None:
                dist = level + meet
                break
            # the box is connected, so only a region can cut a side off
            if mask is not None:
                in_y = np.count_nonzero(np.bitwise_and(front, 1))
                if in_y == 0 or in_y == len(front):
                    break
        level += 1
        front = bfs.step(front, UNREACHED, level)
    return _Search(labels=labels, inner=inner,
                   front=np.asarray(front, dtype=np.int64), level=level,
                   dist=dist)


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

    One two-sided search, then two walks over its labels (see the module
    docstring): the preds of v at level L are its neighbours at x-level
    L - 1 in neighbour order.  So preds holds exactly the edges (u, v) with
    dist(x,u) + 1 = dist(x,v) and dist(v,y) = dist(x,y) - dist(x,v),
    and counts[v] = sum of counts over preds[v], summed forward and
    exact.  The dicts list the vertices by level, then by id.
    `exact_counts` is ignored; it is accepted for callers written when
    counts could saturate.
    """
    search = _search(graph, x, y, resolve_mask(graph, region))
    if search.dist is None:
        raise ValueError("target unreached within region")
    D, r = search.dist, search.level
    # each copy's labels over padded ids
    dx, dy = (memoryview(search.labels[c::2]) for c in (0, 1))
    indptr, nbrs = map(memoryview, graph.adjacency())
    steps = _padded_deltas(graph.config.d, graph.config.n).tolist()

    def nearby(p, lab, label):
        """The padded ids next to padded id p whose label in `lab` is
        `label`, in neighbour order."""
        out = [p + s for s in steps if lab[p + s] == label]
        for u in nbrs[indptr[p]:indptr[p + 1]]:
            if lab[u] == label:
                out.append(u)
        return out

    # x's last front, at x-level r, and in it the geodesic's level r
    ends = search.front[(search.front & 1) == 0] >> 1
    front = ends[search.labels[2 * ends + 1] == D - r].tolist()
    for level in range(r + 1, D + 1):
        found = []
        for p in front:
            for u in nearby(p, dy, D - level):
                if dx[u] == UNREACHED:
                    dx[u] = level
                    found.append(u)
        front = found
    layers = [front]        # level D, which holds y alone
    preds = {}
    for level in range(D - 1, -1, -1):
        below = set()
        for v in layers[-1]:
            preds[v] = vp = nearby(v, dx, level)
            below.update(vp)
        layers.append(sorted(below))
    layers.reverse()
    ids = [v for layer in layers for v in layer]
    plain = dict(zip(ids, graph.unpad(np.array(ids)).tolist()))
    levels, dag_preds, counts = {int(x): 0}, {}, {int(x): 1}
    for level, layer in enumerate(layers[1:], 1):
        for v in layer:
            w = plain[v]
            levels[w] = level
            dag_preds[w] = vp = [plain[u] for u in preds[v]]
            counts[w] = sum(counts[u] for u in vp)
    return GeodesicDag(source=int(x), target=int(y), dist=D, levels=levels,
                       preds=dag_preds, counts=counts)


def sample_geodesic(dag: GeodesicDag, rng) -> list[int]:
    """One geodesic drawn uniformly among all geodesics in the DAG.

    Walks backward from the target choosing each predecessor u of v
    with probability counts[u] / counts[v], an int division that is
    correctly rounded at any count.  `rng` is a numpy Generator.
    """
    path = [dag.target]
    cur = dag.target
    while cur != dag.source:
        ps = dag.preds[cur]
        if len(ps) == 1:
            cur = ps[0]
        else:
            weights = [dag.counts[u] / dag.counts[cur] for u in ps]
            cur = ps[int(rng.choice(len(ps), p=weights))]
        path.append(cur)
    path.reverse()
    return path


def path_edges(path) -> set:
    """Undirected edge set of a vertex path."""
    return {(min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])}
