"""Output checks, computed apart from lrplab.

Each check takes plain data (edge arrays, coordinates, numbers read from
a run directory) and returns a list of failure messages, empty when the
check passes.  Distances come from `scipy.sparse.csgraph` on an explicit
adjacency (Moore lattice plus long edges), geodesic counts from dynamic
programming over those distances with exact Python ints, kernel values
from adaptive `scipy.integrate`, and connected-set counts from brute-force
enumeration.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
from scipy import integrate
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


def explicit_adjacency(n: int, d: int, long_edges) -> csr_matrix:
    """Moore lattice of the n-box plus the long edges, both directions."""
    shape = (n,) * d
    coords = np.indices(shape).reshape(d, -1)
    rows, cols = [], []
    for off in itertools.product((-1, 0, 1), repeat=d):
        if not any(off):
            continue
        nc = coords + np.asarray(off)[:, None]
        ok = ((nc >= 0) & (nc < n)).all(axis=0)
        rows.append(np.flatnonzero(ok))
        cols.append(np.ravel_multi_index(tuple(nc[:, ok]), shape))
    edges = np.asarray(long_edges, dtype=np.int64).reshape(-1, 2)
    rows += [edges[:, 0], edges[:, 1]]
    cols += [edges[:, 1], edges[:, 0]]
    r, c = np.concatenate(rows), np.concatenate(cols)
    m = n ** d
    adj = csr_matrix((np.ones(len(r), dtype=np.int8), (r, c)), shape=(m, m))
    adj.sum_duplicates()
    return adj


def bfs(adj: csr_matrix, source: int) -> np.ndarray:
    """Hop distances from `source`; -1 where unreached."""
    dist = shortest_path(adj, method="D", unweighted=True, indices=source)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def check_distance(adj, x: int, y: int, reported) -> list[str]:
    true = int(bfs(adj, x)[y])
    if reported != true:
        return [f"distance {x}->{y}: reported {reported}, csgraph {true}"]
    return []


def check_geodesic(n: int, d: int, long_edges, path, x: int, y: int,
                   dist: int) -> list[str]:
    """A path of present edges from x to y with exactly `dist` hops."""
    path = [int(v) for v in path]
    if not path or path[0] != x or path[-1] != y:
        return [f"geodesic {x}->{y}: wrong endpoints"]
    if len(path) - 1 != dist:
        return [f"geodesic {x}->{y}: {len(path) - 1} hops, distance {dist}"]
    present = {(int(i), int(j)) for i, j in
               np.asarray(long_edges).reshape(-1, 2)}
    coords = np.stack(np.unravel_index(path, (n,) * d), axis=1)
    for h, (a, b) in enumerate(zip(path, path[1:])):
        if np.abs(coords[h] - coords[h + 1]).max() == 1:
            continue
        if (min(a, b), max(a, b)) not in present:
            return [f"geodesic {x}->{y}: hop {a}-{b} is not an edge"]
    return []


def count_geodesics(adj: csr_matrix, x: int, y: int) -> int:
    """Exact number of shortest x-y paths, by dynamic programming."""
    dx, dy = bfs(adj, x), bfs(adj, y)
    total = int(dx[y])
    if total < 0:
        return 0
    on = np.flatnonzero((dx >= 0) & (dy >= 0) & (dx + dy == total))
    counts = {int(x): 1}
    for v in sorted(on.tolist(), key=lambda u: dx[u]):
        if v == x:
            continue
        nbrs = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        counts[v] = sum(counts.get(int(u), 0) for u in nbrs
                        if dx[u] == dx[v] - 1)
    return counts[int(y)]


def check_count(adj, x: int, y: int, reported) -> list[str]:
    true = count_geodesics(adj, x, y)
    if int(reported) != true:
        return [f"geodesic count {x}->{y}: reported {reported}, exact {true}"]
    return []


def box_labels(coords, s: float) -> int:
    """Number of half-open cubes of side s, anchored at 0, that the
    points meet; a point on a cube boundary belongs to the lower cube."""
    c = np.asarray(coords, dtype=float)
    return len(np.unique(np.ceil(c / s).astype(np.int64) - 1, axis=0))


def check_box_counts(coords, covers) -> list[str]:
    """`covers` is [(delta, L, count)] for one path.  Each count matches
    the cubes counted here, and N_delta <= N_{delta/2} <= 2^d N_delta."""
    coords = np.asarray(coords).reshape(len(coords), -1)
    d = coords.shape[1]
    errors = []
    by_delta = {}
    for delta, L, count in covers:
        true = box_labels(coords, delta * L)
        if count != true:
            errors.append(f"box count at delta={delta}: {count}, "
                          f"counted {true}")
        by_delta[delta] = count
    for delta, count in by_delta.items():
        finer = by_delta.get(delta / 2)
        if finer is not None and not count <= finer <= 2 ** d * count:
            errors.append(f"box counts {count} at delta={delta} and {finer} "
                          f"at delta/2 break the nesting bound")
    return errors


def check_theta_ci(theta_hat: float, ci) -> list[str]:
    if not ci[0] <= theta_hat <= ci[1]:
        return [f"theta_hat {theta_hat} outside its bootstrap CI {ci}"]
    return []


def check_theta_gap(theta_hat: float, dim_hat: float,
                    gap: float = 0.1) -> list[str]:
    """Criterion 08's gate: |dim_hat - theta_hat| <= gap."""
    if not abs(dim_hat - theta_hat) <= gap:
        return [f"|dim_hat - theta_hat| = {abs(dim_hat - theta_hat)} "
                f"> {gap}"]
    return []


def kernel_oracle(k, d: int) -> float:
    """I(k) = integral over [-1,1]^d of prod(1 - |t_m|) |k + t|^(-2d) dt,
    split at the kinks t_m = 0."""
    k = np.asarray(k, dtype=float)

    def f(*t):
        t = np.asarray(t)
        return np.prod(1 - np.abs(t)) * float(((k + t) ** 2).sum()) ** -d

    total = 0.0
    for box in itertools.product(((-1.0, 0.0), (0.0, 1.0)), repeat=d):
        val, _ = integrate.nquad(f, list(box),
                                 opts={"epsabs": 0.0, "epsrel": 1e-12,
                                       "limit": 200})
        total += val
    return total


def check_kernel(entries: dict, d: int, beta: float, tolerance: float,
                 classes) -> list[str]:
    """Kernel integral and probability of each class against the oracle,
    within the kernel's relative tolerance."""
    errors = []
    for klass in classes:
        I, p = entries[klass]
        true = kernel_oracle(klass, d)
        p_true = -math.expm1(-beta * true)
        if abs(I - true) > tolerance * true or \
                abs(p - p_true) > tolerance * p_true:
            errors.append(f"kernel class {klass}: I={I!r} p={p!r}, "
                          f"oracle I={true!r} p={p_true!r}")
    return errors


def check_good_rates(rows) -> list[str]:
    """`rows` is [(alpha, rate, ci_lo, ci_hi)].  Rates do not decrease
    as alpha falls; each Wilson interval contains its rate."""
    errors = []
    rows = sorted(rows, key=lambda r: -r[0])
    for (a1, r1, _, _), (a2, r2, _, _) in zip(rows, rows[1:]):
        if r2 < r1:
            errors.append(f"good rate falls from {r1} at alpha={a1} "
                          f"to {r2} at alpha={a2}")
    for alpha, rate, lo, hi in rows:
        if not lo <= rate <= hi:
            errors.append(f"Wilson interval [{lo}, {hi}] misses rate {rate} "
                          f"at alpha={alpha}")
    return errors


def check_cs_bound(means, mu_hat: float, replicates: int) -> list[str]:
    """Mean |CS_j| <= (4 (mu_hat + 3 sigma))^j, sigma = mu_hat/sqrt(R)."""
    base = 4.0 * (mu_hat + 3 * mu_hat / math.sqrt(replicates))
    return [f"mean |CS_{j}| = {m} exceeds {base ** j}"
            for j, m in enumerate(means, start=1) if m > base ** j]


def brute_force_connected_sets(adj: dict, root, k: int) -> list[int]:
    """|CS_j(root)| for j = 1..k by testing every vertex subset of the
    radius-(k-1) ball around the root for connectivity."""
    root = tuple(root)
    ball = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if ball[v] == k - 1:
            continue
        for u in adj.get(v, ()):
            if u not in ball:
                ball[u] = ball[v] + 1
                queue.append(u)
    others = sorted(u for u in ball if u != root)
    counts = []
    for j in range(1, k + 1):
        found = 0
        for subset in itertools.combinations(others, j - 1):
            members = set(subset) | {root}
            seen, stack = {root}, [root]
            while stack:
                v = stack.pop()
                for u in adj.get(v, ()):
                    if u in members and u not in seen:
                        seen.add(u)
                        stack.append(u)
            found += len(seen) == j
        counts.append(found)
    return counts


def check_connected_sets(adj: dict, root, k: int, reported) -> list[str]:
    true = brute_force_connected_sets(adj, root, k)
    if [int(c) for c in reported] != true:
        return [f"connected sets at {tuple(root)}: reported "
                f"{[int(c) for c in reported]}, brute force {true}"]
    return []
