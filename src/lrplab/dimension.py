"""Box-counting dimension of geodesics and the coarse-graining toolkit.

Box counts use half-open dyadic tilings anchored at multiples of the
cube side s = delta * L, with boundary points assigned to the lower
cube: label(v) = ceil(v / s) - 1 per axis.  Anchored tilings nest under
halving, so N_{delta/2} <= 2^d N_delta holds exactly.  The dimension
estimate is the slope of the log mean count over many paths against
log(1/delta).  The mass distribution check weighs a path by its unit
steps and compares each cube's mass with C (diam / L)^Delta.

The coarse-graining side covers: a cube's special pairs, one boolean
mask over its entering x exiting crossing edges; the (3s, alpha, b)-good
test, classified on the pairs' distinct endpoints, monotone per
realization; empirical good rates; and exact counts of the connected
cube sets through a root, by Redelmeier's untried-set recursion
(Discrete Math. 36, 1981).  A cube is a flat boolean box mask (`_cube`).
Replicate loops use `map_replicates`, so a `replicate_pool` splits them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .graph import ModelConfig, map_replicates
# also bound here, unused: the benchmark's probe self-test wraps this
# name in every lrplab module that holds it (perfbench/test_checks.py)
from .graph import sample_graph  # noqa: F401
from .metric import _lattice_neighbours, _nn_offsets, distance_field
from .rng import Tag
from .scaling import line_fit

# ---------------------------------------------------------------------------
# box counting


@dataclass
class BoxCover:
    delta: float
    L: float
    count: int


def _labels(coords: np.ndarray, s: float) -> np.ndarray:
    """Half-open tiling label per axis, ties to the lower cube."""
    c = np.asarray(coords, dtype=np.int64)
    if float(s).is_integer():
        si = int(s)
        return (c - 1) // si
    return np.ceil(c / s).astype(np.int64) - 1


def box_count(path, delta: float, L: float) -> BoxCover:
    """Cover of the path's vertex set by cubes of side delta * L.

    `path` is an (m, d) coordinate array.  Rejects covers finer than
    the lattice.
    """
    s = delta * L
    if s < 1:
        raise ValueError("delta * L must be at least one lattice unit")
    labs = _labels(_path_coords(path), s).tolist()
    return BoxCover(delta=delta, L=L, count=len(set(map(tuple, labs))))


def _path_coords(path) -> np.ndarray:
    arr = np.asarray(path)
    if arr.ndim == 1:
        raise ValueError("a path is an (m, d) coordinate array")
    if arr.size == 0:
        raise ValueError("path is empty")
    return arr.reshape(len(arr), -1)


@dataclass
class DimFit:
    log_inv_delta: np.ndarray
    log_counts: np.ndarray
    dim_hat: float
    r_squared: float


def mean_dimension_fit(paths, deltas, L) -> DimFit:
    """Dimension fit on per-scale mean counts over many paths."""
    counts = np.zeros(len(deltas))
    for path in paths:
        for i, dl in enumerate(deltas):
            counts[i] += box_count(path, dl, L).count
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
                            C: float) -> MassCheckReport:
    """Check zeta_P(V) <= C (euclid_diam(V)/L)^Delta over dyadic covers.

    The path is parametrized by its unit steps; zeta_P(V) is the
    fraction of steps whose start vertex lies in V, so the masses sum
    to one exactly.  Returns the per-scale worst ratio of mass to
    threshold and the overall pass flag.
    """
    coords = _path_coords(path)
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


def _cube(graph, z, r: float) -> np.ndarray:
    """Flat box mask of V_r(z): site v is in it iff |v - z|_inf <= floor(r).
    The cube must fit in the box; it is empty for -1 <= r < 0."""
    n, d = graph.config.n, graph.config.d
    k = math.floor(r)
    mask = np.zeros((n,) * d, dtype=bool)
    mask[tuple(slice(c - k, c + k + 1) for c in z)] = True
    return mask.ravel()


def _special_edges(graph, z, s: float):
    """Entering edges (u1, v1) of V_s(z), exiting edges (u2, v2) of
    V_3s(z) (lattice edges make both nonempty) and the special-pair mask.

    V_s(z) and V_3s(z) are the cubes of ell-infinity radius floor(s / 2)
    and floor(1.5 s) about the integer site z (see `_cube`).  An
    entering edge has u1 outside V_s(z) and v1 inside; an exiting edge
    has u2 inside V_3s(z) and v2 outside.  Lattice edges count.  A pair
    is special when its two edges are distinct as undirected edges.
    """
    r3 = math.floor(1.5 * s)
    if min(z) - r3 < 0 or max(z) + r3 >= graph.config.n:
        raise ValueError("V_3s(z) must fit inside the box")
    v1, u1 = _crossing_edges(graph, z, s / 2.0).T
    u2, v2 = _crossing_edges(graph, z, 1.5 * s).T
    # v1 in V_3s, v2 not: one undirected edge only as (u1, v1) = (v2, u2)
    return (u1, v1), (u2, v2), (v1[:, None] != u2) | (u1[:, None] != v2)


def _crossing_edges(graph, z, r: float) -> np.ndarray:
    """Edges crossing the boundary of V_r(z) as (inside, outside) rows:
    long edges in edge order, then lattice edges by inner vertex."""
    mask = _cube(graph, z, r)
    inside = mask[graph.long_edges]
    cross = inside[:, 0] != inside[:, 1]
    e = graph.long_edges[cross]
    e = np.where(inside[cross, :1], e, e[:, ::-1])
    # lattice edges: the cube's outer layer paired with its
    # ell-infinity neighbours outside
    shell = np.flatnonzero(mask & ~_cube(graph, z, r - 1))
    pos, u = _lattice_neighbours(graph, shell)
    return np.concatenate([e, np.stack([shell[pos], u], axis=1)[~mask[u]]])


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
    Otherwise the witness is the first violating special pair (u1, v1,
    u2, v2), entering edge first, in the order of the entering edges and
    then of the exiting edges; the grid shares one BFS field per v1.
    """
    (u1, v1), (u2, v2), special = _special_edges(graph, z, s)
    v1s, row = np.unique(v1, return_inverse=True)
    u2s, col = np.unique(u2, return_inverse=True)
    seps = np.linalg.norm(graph.coords(v1s)[:, None] - graph.coords(u2s),
                          axis=2)

    @cache
    def dist():
        cube = _cube(graph, z, 1.5 * s)
        return np.stack([distance_field(graph, v, cube)[u2s]
                         for v in v1s.tolist()])

    def first(bad):
        hit = special & bad[row[:, None], col]
        i, j = np.unravel_index(np.argmax(hit), hit.shape)
        return (int(u1[i]), int(v1[i]), int(u2[j]), int(v2[j])) \
            if hit[i, j] else None

    def witness(params):
        threshold = (params.b * params.alpha) ** params.theta * a_s
        # the Euclidean screen first: any failure decides the cube
        return (first(seps < params.alpha * s - 1e-9)
                or first((dist() < 0) | (dist() < threshold - 1e-9)))

    return [CubeClassification(w is None, w, int(special.sum()))
            for w in map(witness, grid)]


GOOD_CUBE_BOX_FACTOR = 9   # box side over cube side in `good_cube_rate`
CS_BOX_FACTOR = 16         # and in `goodcubes`' connected sets by default
WILSON_Z = 1.96            # normal quantile of its 95% Wilson interval
GOOD_CUBE_MIN_REPLICATES = 100  # the fewest replicates it takes


@dataclass
class GoodRate:
    alpha: float
    b: float
    rate: float
    ci_lo: float
    ci_hi: float


def good_cube_rate(d: int, beta: float, s: int,
                   grid: list[GoodCubeParams], a_s: float, replicates: int,
                   seed: int) -> list[GoodRate]:
    """Monte Carlo P[cube is good] with a Wilson 95% interval, one rate
    per entry of `grid`; each replicate's configuration is sampled once
    and classified under every entry."""
    if replicates < GOOD_CUBE_MIN_REPLICATES:
        raise ValueError(
            f"need at least {GOOD_CUBE_MIN_REPLICATES} replicates")
    n = GOOD_CUBE_BOX_FACTOR * s
    cfg = ModelConfig(d=d, beta=beta, n=n, seed=seed)
    good = map_replicates(
        cfg, [(Tag.GOOD_CUBE_SAMPLE, r) for r in range(replicates)],
        partial(_good_flags, (n // 2,) * d, s, grid, a_s))
    hits = np.sum(good, axis=0, dtype=np.int64)
    out = []
    for params, h in zip(grid, hits.tolist()):
        lo, hi = _wilson(h, replicates)
        out.append(GoodRate(alpha=params.alpha, b=params.b,
                            rate=h / replicates, ci_lo=lo, ci_hi=hi))
    return out


def _good_flags(z, s: int, grid, a_s: float, key, graph) -> list[bool]:
    """Whether the cube V_3s(z) of `graph` is good, per grid entry."""
    return [c.good for c in classify_good_cube(graph, z, s, grid, a_s)]


def _wilson(k: int, n: int) -> tuple[float, float]:
    p, z = k / n, WILSON_Z
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
    adj: dict


def renormalize(graph, s: int) -> RenormGraph:
    """Coarse-grain the box into side-s cubes, site v into cube v // s.

    Cubes are adjacent iff they are ell-infinity lattice neighbors
    (sure nearest-neighbor vertex edges join touching cubes) or some
    long edge connects them.
    """
    n, d = graph.config.n, graph.config.d
    if n % s:
        raise ValueError("cube side must divide the box side")
    m = n // s
    # lattice links, cube by cube in `_nn_offsets` order, then one link
    # per long edge whose ends lie in different cubes
    cells = np.indices((m,) * d).reshape(d, -1).T
    nb = cells[:, None, :] + _nn_offsets(d)
    src, off = np.nonzero(((nb >= 0) & (nb < m)).all(axis=2))
    ends = graph.coords(graph.long_edges) // s
    ends = ends[(ends[:, 0] != ends[:, 1]).any(axis=1)]
    a = np.concatenate([cells[src], ends[:, 0]]).tolist()
    b = np.concatenate([nb[src, off], ends[:, 1]]).tolist()
    adj: dict[tuple, set] = {}
    for u, v in zip(map(tuple, a), map(tuple, b)):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return RenormGraph(shape=(m,) * d, adj=adj)


def mean_renormalized_degree(rg: RenormGraph) -> float:
    """Mean degree over interior cubes (full lattice neighborhoods)."""
    degs = [len(nbrs) for cube, nbrs in rg.adj.items()
            if all(0 < c < m - 1 for c, m in zip(cube, rg.shape))]
    if not degs:
        raise ValueError("no interior cubes at this scale")
    return float(np.mean(degs))


def enumerate_connected_sets(rg: RenormGraph, root, k: int) -> np.ndarray:
    """Exact counts |CS_j(root)| of connected cube sets, sizes 1..k.

    Redelmeier's untried-set recursion: a cube becomes untried the first
    time it is seen, joins the set once, and is then left out of every
    set grown by the cubes after it.  Refuses k above the cap.
    """
    if k > CS_SIZE_CAP:
        raise ValueError(f"size cap exceeded: k={k} > {CS_SIZE_CAP}")
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = [0] * (k + 1)

    def grow(untried: list, seen: set, size: int):
        counts[size] += 1
        if size == k - 1:   # each untried cube completes one k-set
            counts[k] += len(untried)
            return
        while untried:
            v = untried.pop()
            new = [u for u in rg.adj.get(v, ()) if u not in seen]
            grow(untried + new, seen.union(new), size + 1)

    grow([tuple(root)], {tuple(root)}, 0)
    return np.asarray(counts[1:], dtype=np.int64)


@dataclass
class RenormStats:
    mu_hat: float
    cs_means: np.ndarray
    cs_bound: np.ndarray
    replicates: int


def connected_set_growth(d: int, beta: float, n: int, s: int, k: int,
                         replicates: int, seed: int) -> RenormStats:
    """Empirical mean |CS_j| at the center cube against (4 mu_hat)^j."""
    cfg = ModelConfig(d=d, beta=beta, n=n, seed=seed)
    counts, degs = zip(*map_replicates(
        cfg, [(Tag.CONNECTED_SET_SAMPLE, r) for r in range(replicates)],
        partial(_center_sets, s, k)))
    mu = float(np.mean(degs))
    means = np.mean(counts, axis=0)
    bound = (4.0 * mu) ** np.arange(1, k + 1)
    return RenormStats(mu_hat=mu, cs_means=means, cs_bound=bound,
                       replicates=replicates)


def _center_sets(s: int, k: int, key, graph) -> tuple[np.ndarray, float]:
    """Connected-set counts at the center cube of `graph` renormalized
    at side s, and the mean degree of its interior cubes."""
    rg = renormalize(graph, s)
    root = tuple(c // 2 for c in rg.shape)
    return (enumerate_connected_sets(rg, root, k),
            mean_renormalized_degree(rg))
