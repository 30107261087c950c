"""Independent reference implementations used as test oracles.

Everything here is deliberately written against different formulations
than the package code: closed antiderivatives, adaptive quadrature on
the difference-variable reduction, heap Dijkstra, exhaustive DFS path
enumeration, brute-force witness search, and the good-cube test pair
by pair.  None of it shares code with src/, except
`find_special_pairs`, which lists the package's special-pair mask so
that tests can check it pair by pair.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import deque

import numpy as np
from scipy import integrate

from lrplab.dimension import _special_edges


def kernel_closed_d1(k: int) -> float:
    """Closed form of the d=1 cube-pair integral: log(k^2 / (k^2 - 1))."""
    return math.log(k * k / (k * k - 1.0))


def kernel_quad_oracle(k, d: int) -> float:
    """Adaptive quadrature on the difference-variable reduction.

    I(k) = integral over [-1,1]^d of prod(1 - |t_m|) * |k + t|^(-2d) dt,
    split at the kinks, evaluated with scipy's adaptive rules.
    """
    k = np.asarray(k, dtype=float)
    if d == 1:
        f = lambda t: (1 - abs(t)) * abs(k[0] + t) ** -2.0
        total = 0.0
        for a, b in ((-1, 0), (0, 1)):
            v, _ = integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13)
            total += v
        return total
    if d == 2:
        def f(t2, t1):
            return ((1 - abs(t1)) * (1 - abs(t2))
                    * ((k[0] + t1) ** 2 + (k[1] + t2) ** 2) ** -2.0)
        total = 0.0
        for a1, b1 in ((-1, 0), (0, 1)):
            for a2, b2 in ((-1, 0), (0, 1)):
                v, _ = integrate.dblquad(f, a1, b1, a2, b2,
                                         epsabs=1e-16, epsrel=1e-12)
                total += v
        return total
    raise ValueError("oracle supports d in {1, 2}")


def dijkstra_distance(graph, src: int, dst: int, mask=None) -> int | None:
    """Unit-weight Dijkstra with a binary heap, lattice edges included."""
    cfg = graph.config
    n, d = cfg.n, cfg.d
    adj: dict[int, list[int]] = {}
    for i, j in graph.long_edges.tolist():
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)

    def lattice_neighbors(v):
        coords = graph.coords(v)
        out = []
        for off in _moore_offsets(d):
            nc = coords + off
            if ((nc >= 0) & (nc < n)).all():
                out.append(int(nc @ np.asarray(cfg.strides)))
        return out

    if mask is not None and not (mask[src] and mask[dst]):
        return None
    dist = {src: 0}
    pq = [(0, src)]
    while pq:
        dd, v = heapq.heappop(pq)
        if dd > dist.get(v, 1 << 60):
            continue
        if v == dst:
            return dd
        for u in lattice_neighbors(v) + adj.get(v, []):
            if mask is not None and not mask[u]:
                continue
            nd = dd + 1
            if nd < dist.get(u, 1 << 60):
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return None


def _moore_offsets(d):
    grids = np.meshgrid(*([np.array([-1, 0, 1])] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    return offs[(offs != 0).any(axis=1)]


def is_valid_path(graph, path, mask=None) -> bool:
    """Every hop uses a present edge and every vertex lies in the mask."""
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


def enumerate_geodesics(graph, src: int, dst: int, length: int,
                        mask=None, node_budget: int = 2_000_000):
    """Depth-limited DFS: every path of exactly `length` hops src -> dst.

    Returns the list of paths, or None if the expansion budget blows up
    (callers skip those instances).  Independent of the DAG machinery:
    only the target length comes from outside (use the Dijkstra oracle).
    """
    cfg = graph.config
    n, d = cfg.n, cfg.d
    adj: dict[int, list[int]] = {}
    for i, j in graph.long_edges.tolist():
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    strides = np.asarray(cfg.strides)
    offsets = _moore_offsets(d)

    @functools.cache
    def neighbors(v):
        """v's lattice then long-edge neighbours in the mask, built once
        per vertex from its coordinates."""
        coords = graph.coords(v)
        nc = coords[None, :] + offsets
        ok = ((nc >= 0) & (nc < n)).all(axis=1)
        out = [int(x) for x in nc[ok] @ strides]
        out.extend(adj.get(v, []))
        return [u for u in out if mask is None or mask[u]]

    paths = []
    budget = [node_budget]

    def dfs(v, depth, acc):
        if budget[0] <= 0:
            raise RuntimeError("budget")
        budget[0] -= 1
        if depth == length:
            if v == dst:
                paths.append(acc[:])
            return
        # prune: remaining hops must at least cover the lattice gap? no:
        # long edges jump arbitrarily far, so only depth prunes.
        for u in neighbors(v):
            acc.append(u)
            dfs(u, depth + 1, acc)
            acc.pop()

    try:
        dfs(src, 0, [src])
    except RuntimeError:
        return None
    return paths


def find_special_pairs(graph, z, s: float):
    """All ordered pairs (entering edge, exiting edge) of V_s / V_3s, as
    tuples (u1, v1, u2, v2) of linear indices read from the package's
    special-pair mask, entering edge first."""
    (u1, v1), (u2, v2), special = _special_edges(graph, z, s)
    i, j = np.nonzero(special)
    return list(map(tuple, np.c_[u1[i], v1[i], u2[j], v2[j]].tolist()))


def good_cube_per_pair(graph, z, s: float, pairs, params, a_s: float):
    """The (3s, alpha, b)-good test of V_3s(z) pair by pair, over the
    special pairs (u1, v1, u2, v2) in the order given.

    Returns (good, witness, number of pairs).  The witness is the first
    pair closer than alpha * s in Euclidean distance, else the first
    whose distance inside V_3s(z) is infinite or below
    (b * alpha)^theta * a_s.  Distances come from one breadth-first
    search per v1 over the cube's sites and edges.
    """
    cfg = graph.config
    coords = graph.coords(np.arange(cfg.n ** cfg.d))
    cube = np.abs(coords - np.asarray(z)).max(axis=1) <= math.floor(1.5 * s)
    for pair in pairs:
        if math.dist(coords[pair[1]], coords[pair[2]]) \
                < params.alpha * s - 1e-9:
            return False, pair, len(pairs)
    # every site's lattice neighbours, -1 off the box, then long edges
    near = coords[:, None] + _moore_offsets(cfg.d)
    nbrs = np.where(((near >= 0) & (near < cfg.n)).all(axis=2),
                    near @ np.asarray(cfg.strides), -1).tolist()
    for i, j in graph.long_edges.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    fields: dict[int, dict[int, int]] = {}

    def bfs(src):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in nbrs[v]:
                if u >= 0 and cube[u] and u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    threshold = (params.b * params.alpha) ** params.theta * a_s
    for pair in pairs:
        if pair[1] not in fields:
            fields[pair[1]] = bfs(pair[1])
        dd = fields[pair[1]].get(pair[2])
        if dd is None or dd < threshold - 1e-9:
            return False, pair, len(pairs)
    return True, None, len(pairs)


def brute_force_classify(n: int, members: list[int], A: int):
    """Definition-level witness search over all candidate witness sets.

    upward: exists B subset of complement(A), 2|B| >= n, such that no
    family member A' containing A intersects B outside A.
    downward: exists B' subset of A, 2|B'| >= n, contained in every
    family member inside A.  Vectorized enumeration over all masks.
    """
    full = (1 << n) - 1
    comp = full & ~A
    subs_up = _submasks(comp)
    pop = np.array([int(b).bit_count() for b in subs_up])
    ok = pop * 2 >= n
    cand = subs_up[ok]
    for Ap in members:
        if Ap & A == A:  # A' contains A
            extra = Ap & ~A
            cand = cand[(cand & extra) == 0]
            if cand.size == 0:
                break
    upward = cand.size > 0

    subs_down = _submasks(A)
    pop = np.array([int(b).bit_count() for b in subs_down])
    cand = subs_down[pop * 2 >= n]
    for Ap in members:
        if Ap & A == Ap:  # A' inside A
            cand = cand[(cand & ~Ap) == 0]
            if cand.size == 0:
                break
    downward = cand.size > 0
    return upward, downward


def _submasks(mask: int) -> np.ndarray:
    bits = [1 << b for b in range(mask.bit_length()) if mask >> b & 1]
    res = [0]
    for bit in bits:
        res = res + [r | bit for r in res]
    return np.asarray(res, dtype=np.int64)


def connected_subsets_brute(adj: dict[int, set], root: int, kmax: int):
    """All connected subsets containing root, sizes 1..kmax, by filtering
    every subset of the root's kmax-neighborhood."""
    import itertools

    # breadth-limit the universe: vertices within kmax-1 hops
    seen = {root}
    frontier = {root}
    for _ in range(kmax - 1):
        frontier = {u for v in frontier for u in adj.get(v, ())} - seen
        seen |= frontier
    universe = sorted(seen)
    counts = [0] * (kmax + 1)
    for size in range(1, kmax + 1):
        for combo in itertools.combinations(universe, size):
            if root not in combo:
                continue
            if _is_connected(set(combo), adj):
                counts[size] += 1
    return counts


def _is_connected(vertices: set, adj) -> bool:
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj.get(v, ()):
            if u in vertices and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vertices
