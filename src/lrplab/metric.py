"""Chemical distance, restricted metrics, and the geodesic DAG.

All distances are exact BFS distances (unit edge weights) on a sampled
configuration, optionally restricted to a region: a restricted path may
only visit vertices inside the region, endpoints included, so edges
with an endpoint outside are excluded.  Unreached targets are reported
as None at the public API; internally distance arrays use -1.

The geodesic DAG between x and y holds, for every vertex on some
geodesic, its predecessor set and the number of geodesics through it,
counted exactly with Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regions import resolve_mask

UNREACHED = -1


def _nn_offsets(d: int) -> np.ndarray:
    """All 3^d - 1 ell-infinity unit displacements."""
    grids = np.meshgrid(*([np.array([-1, 0, 1])] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    return offs[(offs != 0).any(axis=1)]


def distance_field(graph, sources, region=None,
                   extra_edges=None, target: int | None = None) -> np.ndarray:
    """Multi-source BFS distance array (-1 where unreached).

    `extra_edges` optionally wires additional vertex pairs for this
    query only (used by the shortcut-pattern sweeps).  When `target`
    is given the search stops once its level is settled.
    """
    cfg = graph.config
    n, d, m = cfg.n, cfg.d, graph.n_vertices
    mask = resolve_mask(graph, region)
    indptr, nbrs = graph.adjacency()
    if extra_edges is not None and len(extra_edges):
        indptr, nbrs = _extend_adjacency(m, indptr, nbrs, extra_edges)
    offsets = _nn_offsets(d)
    strides = np.asarray(cfg.strides, dtype=np.int64)

    dist = np.full(m, UNREACHED, dtype=np.int32)
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if mask is not None:
        src = src[mask[src]]
    if src.size == 0:
        return dist
    dist[src] = 0
    frontier = np.unique(src)
    level = 0
    while frontier.size:
        if target is not None and dist[target] >= 0:
            break
        level += 1
        coords = graph.coords(frontier)
        cand_blocks = []
        # lattice neighbors, boundary-filtered per offset
        for off in offsets:
            nc = coords + off
            ok = ((nc >= 0) & (nc < n)).all(axis=1)
            if ok.any():
                cand_blocks.append(nc[ok] @ strides)
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total:
            rep = np.repeat(starts, counts)
            seg = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
            cand_blocks.append(nbrs[rep + seg])
        cand = np.concatenate(cand_blocks) if cand_blocks else \
            np.empty(0, dtype=np.int64)
        cand = cand[dist[cand] < 0]
        if mask is not None and cand.size:
            cand = cand[mask[cand]]
        if cand.size == 0:
            break
        cand = np.unique(cand)
        dist[cand] = level
        frontier = cand
    return dist


def _extend_adjacency(m, indptr, nbrs, extra_edges):
    extra = np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2)
    nodes = np.concatenate([np.repeat(np.arange(m), np.diff(indptr)),
                            extra[:, 0], extra[:, 1]])
    targets = np.concatenate([nbrs, extra[:, 1], extra[:, 0]])
    order = np.argsort(nodes, kind="stable")
    nodes, targets = nodes[order], targets[order]
    new_indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.at(new_indptr, nodes + 1, 1)
    return np.cumsum(new_indptr), targets


def distance(graph, x: int, y: int, region=None,
             extra_edges=None) -> int | None:
    """Chemical distance between vertices, or None if the region cuts them."""
    mask = resolve_mask(graph, region)
    if mask is not None and not (mask[x] and mask[y]):
        raise ValueError("endpoints must lie inside the region")
    d = distance_field(graph, x, mask, extra_edges=extra_edges, target=y)[y]
    return None if d == UNREACHED else int(d)


def set_distance(graph, region_a, region_b, region_u=None) -> int | None:
    """Distance between vertex sets A and B inside U (multi-source BFS)."""
    mask_u = resolve_mask(graph, region_u)
    mask_a = resolve_mask(graph, region_a)
    mask_b = resolve_mask(graph, region_b)
    if mask_u is not None:
        mask_a = mask_a & mask_u
        mask_b = mask_b & mask_u
    if not mask_a.any() or not mask_b.any():
        raise ValueError("A and B must intersect U")
    sources = np.where(mask_a)[0]
    dist = distance_field(graph, sources, mask_u)
    hits = dist[mask_b]
    hits = hits[hits >= 0]
    return int(hits.min()) if hits.size else None


def diameter(graph, region) -> int | None:
    """Exact diameter of the region under its internal metric.

    BFS from every vertex of the region; None if the region is
    disconnected (reported distinctly from any finite value).
    """
    mask = resolve_mask(graph, region)
    verts = np.where(mask)[0]
    if verts.size == 0:
        raise ValueError("region is empty")
    best = 0
    for v in verts:
        dist = distance_field(graph, v, mask)
        vals = dist[verts]
        if (vals < 0).any():
            return None
        best = max(best, int(vals.max()))
    return best


def diameter_two_sweep(graph, region) -> int | None:
    """Double-BFS lower bound on the diameter (exact on trees only)."""
    mask = resolve_mask(graph, region)
    verts = np.where(mask)[0]
    if verts.size == 0:
        raise ValueError("region is empty")
    d0 = distance_field(graph, verts[0], mask)
    vals = d0[verts]
    if (vals < 0).any():
        return None
    far = verts[int(np.argmax(vals))]
    d1 = distance_field(graph, far, mask)
    return int(d1[verts].max())


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

    def vertices(self):
        return self.counts.keys()


def _neighbors_of(graph, v, indptr, nbrs, offsets, strides):
    cfg = graph.config
    c = graph.coords(v)
    nc = c[None, :] + offsets
    ok = ((nc >= 0) & (nc < cfg.n)).all(axis=1)
    lattice = nc[ok] @ strides
    return np.concatenate([lattice, nbrs[indptr[v]:indptr[v + 1]]])


def geodesic_dag(graph, x: int, y: int, region=None,
                 exact_counts: bool = True) -> GeodesicDag:
    """Build the predecessor DAG of all x->y geodesics inside the region.

    preds holds exactly the edges (u, v) with dist(x,u) + 1 = dist(x,v)
    and dist(v,y) = dist(x,y) - dist(x,v); counts satisfy
    counts[v] = sum of counts over preds[v], exactly.  `exact_counts`
    is ignored; it is accepted for callers written when counts could
    saturate.
    """
    mask = resolve_mask(graph, region)
    dist_x = distance_field(graph, x, mask)
    if dist_x[y] < 0:
        raise ValueError("target unreached within region")
    dist_y = distance_field(graph, y, mask)
    D = int(dist_x[y])
    on = np.where((dist_x >= 0) & (dist_y >= 0) & (dist_x + dist_y == D))[0]
    on_set = set(on.tolist())
    indptr, nbrs = graph.adjacency()
    offsets = _nn_offsets(graph.config.d)
    strides = np.asarray(graph.config.strides, dtype=np.int64)

    order = sorted(on.tolist(), key=lambda v: int(dist_x[v]))
    levels = {int(v): int(dist_x[v]) for v in order}
    preds: dict[int, list[int]] = {}
    counts: dict[int, int] = {int(x): 1}
    for v in order:
        if v == x:
            continue
        lvl = int(dist_x[v])
        ps = [int(u) for u in _neighbors_of(graph, v, indptr, nbrs,
                                            offsets, strides)
              if int(u) in on_set and dist_x[u] == lvl - 1]
        preds[v] = ps
        counts[v] = sum(counts[u] for u in ps)
    return GeodesicDag(source=int(x), target=int(y), dist=D, levels=levels,
                       preds=preds, counts=counts)


def sample_geodesic(dag: GeodesicDag, rng) -> list[int]:
    """One geodesic drawn uniformly among all geodesics in the DAG.

    Walks backward from the target choosing each predecessor with
    probability proportional to its prefix count.  `rng` is a numpy
    Generator or an RngStream.
    """
    if hasattr(rng, "generator"):
        rng = rng.generator()
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


def is_valid_path(graph, path, region=None) -> bool:
    """Every hop uses a present edge and stays inside the region."""
    mask = resolve_mask(graph, region)
    if mask is not None and not all(mask[v] for v in path):
        return False
    long_set = {(int(i), int(j)) for i, j in graph.long_edges}
    for a, b in zip(path[:-1], path[1:]):
        ca, cb = graph.coords(a), graph.coords(b)
        if np.abs(ca - cb).max() == 1:
            continue
        if (min(a, b), max(a, b)) not in long_set:
            return False
    return True


def export_geodesic(path, dag: GeodesicDag, graph, fh) -> None:
    """Text dump, one vertex per line as comma-separated coordinates."""
    cx = ",".join(map(str, graph.coords(dag.source)))
    cy = ",".join(map(str, graph.coords(dag.target)))
    fh.write(f"# x={cx} y={cy} len={dag.dist} count={dag.count}\n")
    for v in path:
        fh.write(",".join(map(str, graph.coords(v))) + "\n")
