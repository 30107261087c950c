"""Box-counting dimension of geodesics and the coarse-graining toolkit.

Box counts use half-open dyadic tilings anchored at multiples of the
cube side s = delta * L, with boundary points assigned to the lower
cube: label(v) = ceil(v / s) - 1 per axis.  Anchored tilings nest under
halving, so N_{delta/2} <= 2^d N_delta holds exactly.

The coarse-graining side covers: special crossing-edge pairs of a cube,
the (3s, alpha, b)-good cube test with its per-realization
monotonicity, empirical good rates, exact enumeration of connected cube
sets through a root, and the translation-class good-fraction test for a
connected cube set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import ModelConfig, sample_graph
from .metric import distance_field
from .rng import RngStream

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


def fit_dimension(covers: list[BoxCover]) -> DimFit:
    """Least-squares slope of log N against log(1/delta).

    Needs at least 4 scales; rejects covers whose counts never change
    (slope undefined for the purposes of a dimension estimate).
    """
    if len(covers) < 4:
        raise ValueError("need at least 4 scales")
    x = np.array([math.log(1.0 / c.delta) for c in covers])
    y = np.array([math.log(c.count) for c in covers])
    if np.allclose(y, y[0]):
        raise ValueError("degenerate cover sequence: constant counts")
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1.0 - (resid ** 2).sum() / ((y - y.mean()) ** 2).sum()
    return DimFit(log_inv_delta=x, log_counts=y, dim_hat=float(coef[0]),
                  r_squared=float(r2))


def mean_dimension_fit(paths, deltas, L, graph=None) -> DimFit:
    """Dimension fit on per-scale mean counts over many paths."""
    counts = np.zeros(len(deltas))
    for path in paths:
        for i, dl in enumerate(deltas):
            counts[i] += box_count(path, dl, L, graph).count
    counts /= len(paths)
    x = np.log(1.0 / np.asarray(deltas))
    y = np.log(counts)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1.0 - (resid ** 2).sum() / ((y - y.mean()) ** 2).sum()
    return DimFit(log_inv_delta=x, log_counts=y, dim_hat=float(coef[0]),
                  r_squared=float(r2))


def hausdorff_content_estimate(cover: BoxCover, exponent: float) -> float:
    """One-scale content estimate: count * (delta)^exponent.

    Box covers use a single radius, so the content infimum is estimated
    by its value on this cover; reported alongside dimension fits.
    """
    return cover.count * cover.delta ** exponent


# ---------------------------------------------------------------------------
# Hoelder profile and mass distribution


@dataclass
class HolderProfile:
    scales: np.ndarray
    max_ratio: np.ndarray
    envelope: np.ndarray
    pairs_per_scale: int
    eps: float
    seed: int


def holder_profile(graph, a_n: float, theta: float, scales,
                   pairs_per_scale: int, seed: int,
                   eps: float = 0.1) -> HolderProfile:
    """Max rescaled distance over pairs within n 2^-k, per scale k.

    For each scale k, samples vertex pairs with ||u - v||_inf <=
    n * 2^-k and records max d(u, v) / a_n, reported against the
    envelope 2^{-(theta - eps) k}.  The sampling plan (pair count,
    seed) is part of the returned record.
    """
    if a_n <= 0:
        raise ValueError("a_n must be positive")
    cfg = graph.config
    n = cfg.n
    rng = RngStream(seed, (90011,)).generator()
    out = []
    for k in scales:
        radius = max(1, int(n * 2.0 ** -k))
        worst = 0.0
        for _ in range(pairs_per_scale):
            u = rng.integers(0, n, size=cfg.d)
            off = rng.integers(-radius, radius + 1, size=cfg.d)
            v = np.clip(u + off, 0, n - 1)
            ui, vi = int(graph.index(u)), int(graph.index(v))
            dd = distance_field(graph, ui, target=vi)[vi]
            worst = max(worst, dd / a_n)
        out.append(worst)
    scales = np.asarray(list(scales), dtype=float)
    return HolderProfile(scales=scales, max_ratio=np.asarray(out),
                         envelope=2.0 ** (-(theta - eps) * scales),
                         pairs_per_scale=pairs_per_scale, eps=eps, seed=seed)


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
    cfg = graph.config
    n, d = cfg.n, cfg.d
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
    """Directed edges crossing the cube boundary |v - z|_inf <= half."""
    cfg = graph.config
    n, d = cfg.n, cfg.d
    out = []
    # long edges, both orientations
    e = graph.long_edges
    if e.size:
        ci = graph.coords(e[:, 0])
        cj = graph.coords(e[:, 1])
        in_i = _in_cube(ci, z, half)
        in_j = _in_cube(cj, z, half)
        for a, b, ia, ib in zip(e[:, 0], e[:, 1], in_i, in_j):
            if ia != ib:
                u, v = (int(b), int(a)) if (ia if inward else ib) else \
                    (int(a), int(b))
                out.append((u, v))
    # lattice edges: vertices just inside the boundary paired with
    # ell-infinity neighbors outside
    from .metric import _nn_offsets
    inside = np.where(_in_cube(graph.coords(np.arange(graph.n_vertices)),
                               z, half))[0]
    coords = graph.coords(inside)
    shell = inside[(np.abs(coords - np.asarray(z, dtype=float))
                    > half - 1.0 - 1e-9).any(axis=1)]
    strides = np.asarray(cfg.strides, dtype=np.int64)
    for v in shell:
        cv = graph.coords(int(v))
        for off in _nn_offsets(d):
            nc = cv + off
            if ((nc >= 0) & (nc < n)).all() and \
                    not bool(_in_cube(nc, z, half)):
                u = int(nc @ strides)
                out.append((u, int(v)) if inward else (int(v), u))
    return out


@dataclass
class CubeClassification:
    good: bool
    witness: tuple | None
    n_special_pairs: int


def classify_good_cube(graph, z, s: float, params: GoodCubeParams,
                       a_s: float) -> CubeClassification:
    """(3s, alpha, b)-good test for the cube V_3s(z).

    Good iff every special pair keeps Euclidean separation
    |v1 - u2| >= alpha * s and rescaled internal distance
    d(v1, u2; V_3s(z)) / a_s >= (b * alpha)^theta.  Monotone per
    realization: good at (alpha, b) implies good at any smaller pair.
    Returns the violating pair as witness otherwise.
    """
    pairs = find_special_pairs(graph, z, s)
    if not pairs:
        return CubeClassification(good=True, witness=None, n_special_pairs=0)
    threshold = (params.b * params.alpha) ** params.theta * a_s
    cube_mask = _in_cube(graph.coords(np.arange(graph.n_vertices)), z,
                         1.5 * s)
    # euclidean screen first: any failure decides the cube
    for (u1, v1, u2, v2) in pairs:
        sep = np.linalg.norm(graph.coords(v1) - graph.coords(u2))
        if sep < params.alpha * s - 1e-9:
            return CubeClassification(good=False, witness=(u1, v1, u2, v2),
                                      n_special_pairs=len(pairs))
    fields = {}
    for (u1, v1, u2, v2) in pairs:
        if v1 not in fields:
            fields[v1] = distance_field(graph, v1, cube_mask)
        dd = fields[v1][u2]
        if dd < 0 or dd < threshold - 1e-9:
            return CubeClassification(good=False, witness=(u1, v1, u2, v2),
                                      n_special_pairs=len(pairs))
    return CubeClassification(good=True, witness=None,
                              n_special_pairs=len(pairs))


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
        g = sample_graph(cfg, stream_id=(90021, r))
        hits += [classify_good_cube(g, z, s, params, a_s).good
                 for params in grid]
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

    @property
    def n_cubes(self) -> int:
        return int(np.prod(self.shape))

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

    from .metric import _nn_offsets
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
        g = sample_graph(cfg, stream_id=(90031, r))
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


# ---------------------------------------------------------------------------
# good connected sets


@dataclass
class GoodSetReport:
    largest_class: int
    class_size: int
    good_in_class: int
    fraction: float
    is_good: bool


def good_set_fraction(cube_labels, graph, s: int, params: GoodCubeParams,
                      a_s: float) -> GoodSetReport:
    """Translation-class good fraction of a connected cube set.

    Splits the labels into the 3^d classes of label mod 3 (cubes in one
    class have pairwise disjoint 3s-cubes), takes the largest class,
    classifies each of its cubes, and declares the set good iff the
    good cubes reach 1/(2 * 3^d) of the whole set.  Cubes whose 3s-cube
    leaves the box count as bad.
    """
    labels = [tuple(c) for c in cube_labels]
    if not labels:
        raise ValueError("empty cube set")
    d = len(labels[0])
    classes: dict[tuple, list] = {}
    for lab in labels:
        classes.setdefault(tuple(c % 3 for c in lab), []).append(lab)
    key = max(classes, key=lambda kk: (len(classes[kk]), kk))
    chosen = classes[key]
    good = 0
    for lab in chosen:
        z = tuple((c + 0.5) * s - 0.5 for c in lab)
        try:
            good += classify_good_cube(graph, z, s, params, a_s).good
        except ValueError:
            pass  # 3s-cube leaves the box: counts as bad
    frac = good / len(labels)
    return GoodSetReport(largest_class=len(chosen), class_size=len(chosen),
                         good_in_class=good, fraction=frac,
                         is_good=frac >= 1.0 / (2 * 3 ** d))
