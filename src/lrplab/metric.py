"""Chemical distance, restricted metrics, and the geodesic DAG.

All distances are exact BFS distances (unit edge weights) on a sampled
configuration, optionally restricted to a region: a boolean mask over
the linearized box.  A restricted path may only visit vertices inside
the region, endpoints included, so edges with an endpoint outside are
excluded.  Unreached targets are reported as None at the public API;
internally distance arrays use -1.

The geodesic DAG between x and y comes from one BFS field from x, cut
off once y's level is settled, and a walk back from y one level at a
time: the predecessors of a vertex at level L are its neighbours at
distance L - 1 from x.  It holds, for every vertex on some geodesic,
its level, its predecessor list and the number of geodesics from x to
it, counted exactly with Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNREACHED = -1


def resolve_mask(graph, region) -> np.ndarray | None:
    """None (the whole box) or a boolean membership array over the box."""
    if region is None:
        return None
    mask = np.asarray(region, dtype=bool)
    if mask.size != graph.n_vertices:
        raise ValueError("mask size does not match box")
    return mask


def _nn_offsets(d: int) -> np.ndarray:
    """All 3^d - 1 ell-infinity unit displacements."""
    grids = np.meshgrid(*([np.array([-1, 0, 1])] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    return offs[(offs != 0).any(axis=1)]


def distance_field(graph, source: int, region=None,
                   target: int | None = None) -> np.ndarray:
    """BFS distance array from one source (-1 where unreached).

    When `target` is given the search stops once its level is settled.
    """
    m = graph.n_vertices
    mask = resolve_mask(graph, region)
    indptr, nbrs = graph.adjacency()
    offsets = _nn_offsets(graph.config.d)
    strides = np.asarray(graph.config.strides, dtype=np.int64)

    dist = np.full(m, UNREACHED, dtype=np.int32)
    if mask is not None and not mask[source]:
        return dist
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        if target is not None and dist[target] >= 0:
            break
        level += 1
        cand = _expand(graph, frontier, indptr, nbrs, offsets, strides)[1]
        cand = cand[dist[cand] < 0]
        if mask is not None and cand.size:
            cand = cand[mask[cand]]
        if cand.size == 0:
            break
        cand = np.unique(cand)
        dist[cand] = level
        frontier = cand
    return dist


def _expand(graph, frontier, indptr, nbrs, offsets, strides):
    """Neighbours of a frontier as (position in frontier, neighbour).

    Lattice neighbours come offset by offset in `offsets` order, then
    long neighbours in CSR order.
    """
    nc = graph.coords(frontier) + offsets[:, None]
    off_idx, pos = np.nonzero(((nc >= 0) & (nc < graph.config.n)).all(axis=2))
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    long_pos = np.repeat(np.arange(frontier.size), counts)
    long_idx = np.arange(long_pos.size) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)
    return (np.concatenate([pos, long_pos]),
            np.concatenate([frontier[pos] + (offsets @ strides)[off_idx],
                            nbrs[long_idx]]))


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

    One BFS field from x, stopped once y's level is settled; then a walk
    back from y, where the preds of v at level L are its neighbours at
    level L - 1 in neighbour order.  So preds holds exactly the edges
    (u, v) with dist(x,u) + 1 = dist(x,v) and dist(v,y) = dist(x,y) -
    dist(x,v), and counts[v] = sum of counts over preds[v], summed
    forward and exact.  `exact_counts` is ignored; it is accepted for
    callers written when counts could saturate.
    """
    dist = distance_field(graph, x, region, target=y)
    if dist[y] < 0:
        raise ValueError("target unreached within region")
    D = int(dist[y])
    indptr, nbrs = graph.adjacency()
    offsets = _nn_offsets(graph.config.d)
    strides = np.asarray(graph.config.strides, dtype=np.int64)
    layer = np.array([y], dtype=np.int64)
    walk = []  # levels D..1, each as (vertex, preds) in vertex order
    for lvl in range(D, 0, -1):
        pos, nb = _expand(graph, layer, indptr, nbrs, offsets, strides)
        keep = dist[nb] == lvl - 1
        order = np.argsort(pos[keep], kind="stable")
        pos, nb = pos[keep][order], nb[keep][order]
        cuts = np.searchsorted(pos, np.arange(layer.size + 1)).tolist()
        ps = nb.tolist()
        walk.append([(v, ps[a:b]) for v, a, b
                     in zip(layer.tolist(), cuts, cuts[1:])])
        layer = np.unique(nb)
    levels, preds, counts = {int(x): 0}, {}, {int(x): 1}
    for lvl, level_preds in enumerate(reversed(walk), start=1):
        for v, ps in level_preds:
            levels[v] = lvl
            preds[v] = ps
            counts[v] = sum(counts[u] for u in ps)
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
