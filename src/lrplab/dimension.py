"""Box-counting dimension of geodesics and the coarse-graining toolkit.

Box counts use half-open dyadic tilings anchored at multiples of the
cube side s = delta * L, with boundary points assigned to the lower
cube: label(v) = ceil(v / s) - 1 per axis.  Anchored tilings nest under
halving, so N_{delta/2} <= 2^d N_delta holds exactly.  The dimension
estimate is the slope of the log mean count over many paths against
log(1/delta).  The mass distribution check weighs a path by its unit
steps and compares each cube's mass with C (diam / L)^Delta.

The coarse-graining side covers: special crossing-edge pairs of a cube,
the (3s, alpha, b)-good cube test with its per-realization
monotonicity, empirical good rates, and exact enumeration of connected
cube sets through a root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import ModelConfig, sample_graph
from .metric import _lattice_neighbours, _nn_offsets, distance_field
from .rng import Tag
from .scaling import line_fit

# ---------------------------------------------------------------------------
# box counting


@dataclass
class BoxCover:
    delta: float
    L: float
    labels: frozenset
    count: int


def _labels(coords: np.ndarray, s: float) -> np.ndarray:
    """Half-open tiling label per axis, ties to the lower cube."""
    c = np.asarray(coords, dtype=np.int64)
    if float(s).is_integer():
        si = int(s)
        return (c - 1) // si
    return np.ceil(c / s).astype(np.int64) - 1


def box_count(path, delta: float, L: float, graph=None) -> BoxCover:
    """Cover of the path's vertex set by cubes of side delta * L.

    `path` is a sequence of linear indices (requires `graph`) or an
    (m, d) coordinate array.  Rejects covers finer than the lattice.
    """
    s = delta * L
    if s < 1:
        raise ValueError("delta * L must be at least one lattice unit")
    coords = _path_coords(path, graph)
    labs = _labels(coords, s)
    labels = frozenset(map(tuple, labs.tolist()))
    return BoxCover(delta=delta, L=L, labels=labels, count=len(labels))


def _path_coords(path, graph) -> np.ndarray:
    arr = np.asarray(path)
    if arr.ndim == 1:
        if graph is None:
            raise ValueError("linear-index paths need the graph")
        arr = graph.coords(arr)
    if arr.size == 0:
        raise ValueError("path is empty")
    return arr.reshape(len(arr), -1)


@dataclass
class DimFit:
    log_inv_delta: np.ndarray
    log_counts: np.ndarray
    dim_hat: float
    r_squared: float


def mean_dimension_fit(paths, deltas, L, graph=None) -> DimFit:
    """Dimension fit on per-scale mean counts over many paths."""
    counts = np.zeros(len(deltas))
    for path in paths:
        for i, dl in enumerate(deltas):
            counts[i] += box_count(path, dl, L, graph).count
    counts /= len(paths)
    x = np.log(1.0 / np.asarray(deltas))
    y = np.log(counts)
    slope, _, r2 = line_fit(x, y)
    return DimFit(log_inv_delta=x, log_counts=y, dim_hat=slope, r_squared=r2)


@dataclass
class MassCheckReport:
    deltas: np.ndarray
    max_ratio: np.ndarray
    passed: bool
    worst_ratio: float


def mass_distribution_check(path, deltas, L: float, Delta: float,
                            C: float, graph=None) -> MassCheckReport:
    """Check zeta_P(V) <= C (euclid_diam(V)/L)^Delta over dyadic covers.

    The path is parametrized by its unit steps; zeta_P(V) is the
    fraction of steps whose start vertex lies in V, so the masses sum
    to one exactly.  Returns the per-scale worst ratio of mass to
    threshold and the overall pass flag.
    """
    coords = _path_coords(path, graph)
    steps = coords[:-1]
    length = len(steps)
    if length == 0:
        raise ValueError("path has no steps")
    d = coords.shape[1]
    ratios = []
    for dl in deltas:
        s = dl * L
        if s < 1:
            raise ValueError("delta * L must be at least one lattice unit")
        labs = _labels(steps, s)
        _, counts = np.unique(labs, axis=0, return_counts=True)
        zeta = counts / length
        threshold = C * (dl * math.sqrt(d)) ** Delta
        ratios.append(float(zeta.max() / threshold))
    ratios = np.asarray(ratios)
    return MassCheckReport(deltas=np.asarray(list(deltas), dtype=float),
                           max_ratio=ratios,
                           passed=bool((ratios <= 1.0).all()),
                           worst_ratio=float(ratios.max()))


# ---------------------------------------------------------------------------
# good cubes


@dataclass(frozen=True)
class GoodCubeParams:
    alpha: float
    b: float
    theta: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        if self.b <= 0:
            raise ValueError("b must be positive")
        if not (0 < self.theta < 1):
            raise ValueError("theta must be in (0, 1)")


def _in_cube(coords, center, half):
    diff = np.abs(np.asarray(coords, dtype=float) - np.asarray(center,
                                                               dtype=float))
    return (diff <= half + 1e-9).all(axis=-1)


def find_special_pairs(graph, z, s: float):
    """All ordered pairs (entering edge, exiting edge) of V_s / V_3s.

    An entering edge has u1 outside V_s(z) and v1 inside; an exiting
    edge has u2 inside V_3s(z) and v2 outside.  Lattice edges count.
    Returns tuples (u1, v1, u2, v2) of linear indices; the two edges
    are distinct as undirected edges.
    """
    n = graph.config.n
    lo3 = np.asarray(z, dtype=float) - 1.5 * s
    hi3 = np.asarray(z, dtype=float) + 1.5 * s
    if (lo3 < -0.5).any() or (hi3 > n - 0.5).any():
        raise ValueError("V_3s(z) must fit inside the box")
    entering = _crossing_edges(graph, z, s / 2.0, inward=True)
    exiting = _crossing_edges(graph, z, 1.5 * s, inward=False)
    pairs = []
    for (u1, v1) in entering:
        for (u2, v2) in exiting:
            if {u1, v1} == {u2, v2}:
                continue
            pairs.append((u1, v1, u2, v2))
    return pairs


def _crossing_edges(graph, z, half: float, inward: bool):
    """Directed edges crossing the cube boundary |v - z|_inf <= half:
    long edges in edge order, then lattice edges by inner vertex."""
    # long edges, oriented (outside, inside) if inward else the reverse
    a, b = graph.long_edges[:, 0], graph.long_edges[:, 1]
    in_a = _in_cube(graph.coords(a), z, half)
    cross = in_a != _in_cube(graph.coords(b), z, half)
    flip = in_a[cross] == inward
    a, b = a[cross], b[cross]
    out = list(zip(np.where(flip, b, a).tolist(),
                   np.where(flip, a, b).tolist()))
    # lattice edges: vertices just inside the boundary paired with
    # ell-infinity neighbors outside
    inside = np.where(_in_cube(graph.coords(np.arange(graph.n_vertices)),
                               z, half))[0]
    shell = inside[(np.abs(graph.coords(inside) - np.asarray(z, dtype=float))
                    > half - 1.0 - 1e-9).any(axis=1)]
    pos, u = _lattice_neighbours(graph, shell)
    outside = ~_in_cube(graph.coords(u), z, half)
    v, u = shell[pos[outside]].tolist(), u[outside].tolist()
    return out + list(zip(u, v) if inward else zip(v, u))


@dataclass
class CubeClassification:
    good: bool
    witness: tuple | None
    n_special_pairs: int


def classify_good_cube(graph, z, s: float, grid: list[GoodCubeParams],
                       a_s: float) -> list[CubeClassification]:
    """(3s, alpha, b)-good test for the cube V_3s(z), one result per entry
    of `grid`.

    Good iff every special pair keeps Euclidean separation
    |v1 - u2| >= alpha * s and rescaled internal distance
    d(v1, u2; V_3s(z)) / a_s >= (b * alpha)^theta.  Monotone per
    realization: good at (alpha, b) implies good at any smaller pair.
    Returns the violating pair as witness otherwise.  The special pairs,
    the cube mask and each BFS field are computed once for the grid.
    """
    pairs = find_special_pairs(graph, z, s)
    if not pairs:
        return [CubeClassification(good=True, witness=None,
                                   n_special_pairs=0) for _ in grid]
    cube_mask = _in_cube(graph.coords(np.arange(graph.n_vertices)), z,
                         1.5 * s)
    seps = np.array([np.linalg.norm(graph.coords(v1) - graph.coords(u2))
                     for _, v1, u2, _ in pairs])
    fields = {}

    def witness(params):
        # euclidean screen first: any failure decides the cube
        close = np.flatnonzero(seps < params.alpha * s - 1e-9)
        if close.size:
            return pairs[close[0]]
        threshold = (params.b * params.alpha) ** params.theta * a_s
        for pair in pairs:
            v1, u2 = pair[1], pair[2]
            if v1 not in fields:
                fields[v1] = distance_field(graph, v1, cube_mask)
            dd = fields[v1][u2]
            if dd < 0 or dd < threshold - 1e-9:
                return pair
        return None

    return [CubeClassification(good=w is None, witness=w,
                               n_special_pairs=len(pairs))
            for w in map(witness, grid)]


@dataclass
class GoodRate:
    alpha: float
    b: float
    rate: float
    ci_lo: float
    ci_hi: float
    replicates: int


def good_cube_rate(d: int, beta: float, s: int,
                   grid: list[GoodCubeParams], a_s: float, replicates: int,
                   seed: int, box_factor: int = 9) -> list[GoodRate]:
    """Monte Carlo P[cube is good] with a Wilson 95% interval, one rate
    per entry of `grid`; each replicate's configuration is sampled once
    and classified under every entry."""
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    n = box_factor * s
    z = tuple([n // 2] * d)
    hits = np.zeros(len(grid), dtype=np.int64)
    for r in range(replicates):
        cfg = ModelConfig(d=d, beta=beta, n=n, seed=seed)
        g = sample_graph(cfg, stream_id=(Tag.GOOD_CUBE_SAMPLE, r))
        hits += [c.good for c in classify_good_cube(g, z, s, grid, a_s)]
    out = []
    for params, h in zip(grid, hits.tolist()):
        lo, hi = _wilson(h, replicates)
        out.append(GoodRate(alpha=params.alpha, b=params.b,
                            rate=h / replicates, ci_lo=lo, ci_hi=hi,
                            replicates=replicates))
    return out


def _wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    margin = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - margin, center + margin


# ---------------------------------------------------------------------------
# renormalized cube graph and connected sets

CS_SIZE_CAP = 7


@dataclass
class RenormGraph:
    """Cubes of side s as vertices; adjacency via any connecting edge."""

    shape: tuple[int, ...]
    s: int
    adj: dict

    def degree(self, cube) -> int:
        return len(self.adj.get(tuple(cube), ()))

    def interior_cubes(self):
        for cube in np.ndindex(*self.shape):
            if all(0 < c < m - 1 for c, m in zip(cube, self.shape)):
                yield cube


def renormalize(graph, s: int) -> RenormGraph:
    """Coarse-grain the box into side-s cubes.

    Cubes are adjacent iff they are ell-infinity lattice neighbors
    (sure nearest-neighbor vertex edges join touching cubes) or some
    long edge connects them.
    """
    cfg = graph.config
    n, d = cfg.n, cfg.d
    if n % s:
        raise ValueError("cube side must divide the box side")
    m = n // s
    shape = tuple([m] * d)
    adj: dict[tuple, set] = {}

    def link(a, b):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for cube in np.ndindex(*shape):
        arr = np.asarray(cube)
        for off in _nn_offsets(d):
            nb = arr + off
            if ((nb >= 0) & (nb < m)).all():
                link(cube, tuple(int(x) for x in nb))
    e = graph.long_edges
    if e.size:
        ca = graph.coords(e[:, 0]) // s
        cb = graph.coords(e[:, 1]) // s
        for a, b in zip(ca, cb):
            ta, tb = tuple(int(x) for x in a), tuple(int(x) for x in b)
            if ta != tb:
                link(ta, tb)
    return RenormGraph(shape=shape, s=s, adj=adj)


def mean_renormalized_degree(rg: RenormGraph) -> float:
    """Mean degree over interior cubes (full lattice neighborhoods)."""
    degs = [rg.degree(c) for c in rg.interior_cubes()]
    if not degs:
        raise ValueError("no interior cubes at this scale")
    return float(np.mean(degs))


def enumerate_connected_sets(rg: RenormGraph, root, k: int) -> np.ndarray:
    """Exact counts |CS_j(root)| of connected cube sets, sizes 1..k.

    Include/exclude recursion on the extension frontier: at each step
    one frontier cube is either added to the set or banned for the rest
    of the branch, so every connected superset of {root} is generated
    exactly once.  Refuses k beyond the explosion guard rather than
    truncating.
    """
    if k > CS_SIZE_CAP:
        raise ValueError(f"size cap exceeded: k={k} > {CS_SIZE_CAP}")
    if k < 1:
        raise ValueError("k must be >= 1")
    root = tuple(root)
    counts = np.zeros(k + 1, dtype=np.int64)
    current = {root}

    def rec(ext: list, banned: set):
        counts[len(current)] += 1
        if len(current) == k:
            return
        ext = sorted(ext)
        banned = set(banned)
        while ext:
            v = ext.pop()
            ext_set = set(ext)
            grown = ext + [u for u in rg.adj.get(v, ())
                           if u not in current and u not in banned
                           and u not in ext_set and u != v]
            current.add(v)
            rec(grown, banned)
            current.discard(v)
            banned.add(v)

    rec(list(rg.adj.get(root, ())), set())
    return counts[1:]


@dataclass
class RenormStats:
    mu_hat: float
    cs_means: np.ndarray
    cs_bound: np.ndarray
    replicates: int


def connected_set_growth(d: int, beta: float, n: int, s: int, k: int,
                         replicates: int, seed: int) -> RenormStats:
    """Empirical mean |CS_j| at the center cube against (4 mu_hat)^j."""
    totals = np.zeros(k, dtype=float)
    degs = []
    root = None
    for r in range(replicates):
        cfg = ModelConfig(d=d, beta=beta, n=n, seed=seed)
        g = sample_graph(cfg, stream_id=(Tag.CONNECTED_SET_SAMPLE, r))
        rg = renormalize(g, s)
        if root is None:
            root = tuple(c // 2 for c in rg.shape)
        totals += enumerate_connected_sets(rg, root, k)
        degs.append(mean_renormalized_degree(rg))
    mu = float(np.mean(degs))
    means = totals / replicates
    bound = (4.0 * mu) ** np.arange(1, k + 1)
    return RenormStats(mu_hat=mu, cs_means=means, cs_bound=bound,
                       replicates=replicates)
