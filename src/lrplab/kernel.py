"""Exact edge-probability kernel for critical long-range percolation.

A long edge between lattice sites i and j (ell-infinity displacement
k = j - i with ||k||_inf >= 2) is present with probability

    p(k) = 1 - exp(-beta * I(k)),
    I(k) = integral over V1(0) x V1(k) of |u - v|^(-2d) du dv,

where V1(x) is the unit cube centered at x.  Nearest neighbors
(||k||_inf = 1) are wired with probability 1; the integral is not
defined for them here.

In d=1, I(k) = -log(1 - 1/k^2) exactly.  In d >= 2 it is evaluated in
the difference variable t = v - u,

    I(k) = integral over [-1,1]^d of prod(1 - |t_m|) |k + t|^(-2d) dt,

by a tensor Gauss-Legendre rule with each axis split at the kink t_m = 0,
batched over the classes in chunks of bounded memory.  The integrand is
analytic at separation >= 1, so the rule is accurate to machine
precision with 16 nodes per panel below |k| = 6 and 8 beyond.  Its
nodes and weights come from the eigen-decomposition of the Legendre
Jacobi matrix (Golub & Welsch 1969).

Beyond a radius derived from `TOLERANCE` the closed tail form takes
over: the cube-pair average of f = |x|^(-2d) to fourth order in t,
f + Lf/12 + L^2 f/288 - sum_m d_m^4 f/1440 with L the Laplacian (the
tent density has moments E t^2 = 1/6 and E t^4 = 1/15),

    |k|^(-2d) * (1 + d(d+2) / (6|k|^2) + (A_d - B_d q) / |k|^4),

with q = sum_m k_m^4 / |k|^4, A_d = d(d+1)((d+2)(d+4)/72 + (3d+8)/120) and
B_d = d(d+1)(d+2)(d+3)/90 (A_2 = 27/10, B_2 = 4/3, A_3 = 113/15,
B_3 = 4).  Its relative error is C6(d)/|k|^6, with C6 measured over
every direction, so the switch radius follows from C6 and `TOLERANCE`.

I(k) depends on k only through its canonical class, |k| sorted
descending.  The class list is enumerated directly, with no box of
displacements; the integrals, the degree sum and `class_table`, whose
per-class orbit, member and pair counts have closed forms, index it.

I(k) does not depend on beta, so the per-class integrals are computed
once per (d, max_norm) and cached read-only; a table for a given beta
only applies p = -expm1(-beta * I) to them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-6    # relative error bound of every I(k)

# Measured coefficients C6 of the |k|^-6 relative error of the closed
# tail form, the largest value over every class of a shell (3.18 in d=2
# and 15.32 in d=3, both on the body diagonal); padded ~10%.  The d=1
# form is exact.
_TAIL_ERR_COEF = {1: 0.0, 2: 3.5, 3: 16.9}

# quadrature points held at once: bounds the batch memory in every d.
# At 2^14 doubles a d=2 batch temporary is 128 KiB, small enough for
# glibc to reuse heap memory; larger ones were each mapped afresh and
# faulted in page by page, batch after batch
_CHUNK = 1 << 14


def canonical_class(k) -> tuple[int, ...]:
    """Canonical displacement class: absolute coordinates sorted descending.

    One class represents every displacement reachable from it by
    coordinate permutations and sign flips; the kernel integral is
    invariant under both.
    """
    return tuple(sorted((abs(int(c)) for c in np.atleast_1d(k)),
                        reverse=True))


def tail_radius(d: int) -> float:
    """Euclidean radius beyond which the closed tail form meets `TOLERANCE`.

    Derived from the measured error law C6(d)/|k|^6, with a 5x safety
    factor folded in; a dimension with no measured C6 has no tail.
    """
    coef = _TAIL_ERR_COEF.get(d, math.inf)
    return max(12.0, (5.0 * coef / TOLERANCE) ** (1 / 6))


def _tail_form(sq: list[np.ndarray], r2: np.ndarray) -> np.ndarray:
    """The cube-pair average of |x|^-2d to order |k|^-4, from the d
    columns of squared coordinates and their sum r2, computed in place:
    the class list runs to a million rows, and every fresh temporary
    costs more than the arithmetic."""
    d = len(sq)
    a = d * (d + 1) * ((d + 2) * (d + 4) / 72 + (3 * d + 8) / 120)
    b = d * (d + 1) * (d + 2) * (d + 3) / 90
    inv = 1.0 / r2
    out = sq[0] * sq[0]
    for col in sq[1:]:
        out += col * col
    # q = sum_m k_m^4 / r^4, then 1 + (d(d+2)/6 + (A - B q) / r^2) / r^2
    out *= inv
    out *= inv
    out *= -b
    out += a
    out *= inv
    out += d * (d + 2) / 6.0
    out *= inv
    out += 1.0
    for _ in range(d):
        out *= inv
    return out


@functools.lru_cache(maxsize=None)
def _panel_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] split at 0, weights times the tent 1 - |t|.

    Gauss-Legendre nodes are the eigenvalues of the Jacobi matrix, and
    twice the squared first components of its eigenvectors are the
    weights (Golub & Welsch 1969).  Cached, read-only.
    """
    j = np.arange(1.0, nodes)
    x, vec = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    # the rule is symmetric about 0 and its weights sum to 2: imposing
    # both takes the eigensolver's rounding out of every integral's scale
    x, w = (x - x[::-1]) / 2.0, vec[0] ** 2 + vec[0, ::-1] ** 2
    w *= 2.0 / w.sum()
    t = np.concatenate([(x - 1.0) / 2.0, (x + 1.0) / 2.0])
    tw = np.concatenate([w, w]) / 2.0 * (1.0 - np.abs(t))
    for arr in (t, tw):
        arr.flags.writeable = False
    return t, tw


def _quadrature(k: np.ndarray, nodes: int) -> np.ndarray:
    """I(k) for every row of an (m, d) float array, on the tensor grid of
    `nodes` Gauss-Legendre nodes per panel."""
    d = k.shape[1]
    t, w = _panel_rule(nodes)
    wts = functools.reduce(np.multiply.outer, [w] * d).ravel()
    out = np.empty(len(k))
    step = max(1, _CHUNK // wts.size)
    for lo in range(0, len(k), step):
        rows = k[lo:lo + step]
        # squared distance |k + t|^2 on the tensor grid, axis by axis
        dist2 = np.zeros((len(rows), 1))
        for m in range(d):
            axis = (rows[:, m, None] + t) ** 2
            dist2 = (dist2[:, :, None] + axis[:, None, :]).reshape(
                len(rows), -1)
        # a row sum, so that I(k) does not depend on k's place in a batch
        out[lo:lo + step] = ((1.0 / dist2) ** d * wts).sum(axis=1)
    return out


def _integrals(classes: np.ndarray) -> np.ndarray:
    """I(k) for every row of an (m, d) array of displacements."""
    d = classes.shape[1]
    # squared coordinates summed column by column: exact integers, and
    # far cheaper than a reduction along each short row
    sq = [col.astype(float) for col in classes.T]
    for col in sq:
        col *= col
    r2 = functools.reduce(np.add, sq)
    if d == 1:
        return -np.log1p(-1.0 / r2)
    out = _tail_form(sq, r2)
    near = np.flatnonzero(r2 < tail_radius(d) ** 2)
    close = r2[near] < 36.0
    for rows, rule in ((near[close], 16), (near[~close], 8)):
        out[rows] = _quadrature(classes[rows].astype(float), rule)
    return out


@dataclass(frozen=True)
class ClassTable:
    """The canonical classes of an n-box's long displacements.

    `classes` holds every canonical class with 2 <= c1 <= n - 1, in
    kernel order: c1 ascending, then each later coordinate descending.
    Class c has `members[c]` displacements with first nonzero coordinate
    positive, one per pair orbit {k, -k}, each with `pairs[c]` =
    prod(n - c_m) candidate pairs.  Holds no beta; arrays are read-only.
    """

    classes: np.ndarray
    members: np.ndarray
    pairs: np.ndarray


@functools.lru_cache(maxsize=16)
def _classes(d: int, max_norm: int) -> np.ndarray:
    """Read-only array of every canonical class with 2 <= c1 <=
    max_norm, in kernel order, built coordinate by coordinate: each row
    is followed by every next coordinate from its last one down to 0.
    Cached, so the class table and the integrals share one array."""
    classes = np.arange(2, max_norm + 1, dtype=np.int64)[:, None]
    for _ in range(1, d):
        last = classes[:, -1]
        rows = np.repeat(np.arange(last.size), last + 1)
        start = np.cumsum(last + 1) - (last + 1)
        nxt = last[rows] - (np.arange(rows.size) - start[rows])
        classes = np.column_stack([classes[rows], nxt])
    classes.flags.writeable = False
    return classes


def _orbit_sizes(classes: np.ndarray) -> np.ndarray:
    """Number of displacements in each canonical class (rows sorted
    descending): 2^nnz(c) d! / prod of mult!, over the multiplicities
    of the class's equal coordinates."""
    d = classes.shape[1]
    run = np.ones(len(classes), dtype=np.int64)
    repeats = np.ones(len(classes), dtype=np.int64)    # prod of mult!
    for m in range(1, d):
        run = np.where(classes[:, m] == classes[:, m - 1], run + 1, 1)
        repeats *= run
    return 2 ** (classes > 0).sum(axis=1) * math.factorial(d) // repeats


@functools.lru_cache(maxsize=16)
def class_table(d: int, n: int) -> ClassTable:
    """Class list of an n-box with its member and pair counts."""
    classes = _classes(d, n - 1)
    members = _orbit_sizes(classes) // 2
    pairs = np.prod(n - classes, axis=1)
    for arr in (members, pairs):
        arr.flags.writeable = False
    return ClassTable(classes=classes, members=members, pairs=pairs)


def orbit_members(classes: np.ndarray) -> np.ndarray:
    """The displacements of each class whose first nonzero coordinate is
    positive, class after class, each class's in ascending order: its
    signed coordinate permutations, deduplicated.  In d=1 each class is
    its own one member."""
    d = classes.shape[1]
    if d == 1:
        return classes
    top = int(classes.max(initial=0))
    shape = (2 * top + 1,) * d
    # row-major ids of k + top: k's first nonzero is > 0 iff id > id(0)
    ids = np.sort(np.stack([
        np.ravel_multi_index((classes[:, perm] * signs + top).T, shape)
        for perm in itertools.permutations(range(d))
        for signs in itertools.product((1, -1), repeat=d)], axis=1))
    keep = ids > math.prod(shape) // 2
    keep[:, 1:] &= ids[:, 1:] != ids[:, :-1]
    return np.stack(np.unravel_index(ids[keep], shape), axis=1) - top


@functools.lru_cache(maxsize=16)
def class_integrals(d: int, max_norm: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (classes, I) arrays for every class with
    2 <= c1 <= max_norm, the `classes` of `class_table(d, max_norm + 1)`.

    Independent of beta and cached, so every table of the same
    (d, max_norm) shares one computation.
    """
    classes = _classes(d, max_norm)
    integrals = _integrals(classes)
    integrals.flags.writeable = False
    return classes, integrals


def kernel_integral(k, d: int | None = None) -> float:
    """Kernel integral I(k) over the unit-cube pair at displacement k.

    Rejects nearest-neighbor and zero displacements (||k||_inf <= 1):
    those edges are wired by fiat and the model defines no integral for
    them.  Relative error is bounded by `TOLERANCE`: exact in d=1; in
    d >= 2 the quadrature is exact to machine precision inside
    `tail_radius`, and the closed tail form's error C6(d)/|k|^6 is at
    most TOLERANCE / 5 beyond it.
    """
    kt = np.atleast_1d(np.asarray(k, dtype=int))
    if d is None:
        d = kt.size
    elif kt.size != d:
        raise ValueError(f"displacement {tuple(kt)} does not match d={d}")
    cls = canonical_class(kt)
    if cls[0] <= 1:
        raise ValueError(
            f"||k||_inf must be >= 2, got displacement {tuple(kt)}")
    return float(_integrals(np.array([cls]))[0])


def edge_probability(k, beta: float, d: int | None = None) -> float:
    """Presence probability of the edge at displacement k.

    1 for nearest neighbors, 1 - exp(-beta * I(k)) for long
    displacements (strictly inside (0,1)), rejects k = 0.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    kt = np.atleast_1d(np.asarray(k, dtype=int))
    ninf = int(np.abs(kt).max()) if kt.size else 0
    if ninf == 0:
        raise ValueError("zero displacement has no edge")
    if ninf == 1:
        return 1.0
    return -math.expm1(-beta * kernel_integral(kt, d))


@dataclass
class DisplacementKernel:
    """Per-class kernel integrals and edge probabilities for one beta.

    `classes`, `integrals` and `probabilities` are parallel read-only
    arrays over the canonical classes of `class_table`; `entries`
    is the same table as a dict from class tuple to (I_k, p_k).
    """

    d: int
    beta: float
    classes: np.ndarray
    integrals: np.ndarray
    probabilities: np.ndarray
    tolerance = TOLERANCE       # the integrals' relative error bound

    @classmethod
    def build(cls, d: int, beta: float,
              max_norm: int) -> "DisplacementKernel":
        """Table for every class with 2 <= ||k||_inf <= max_norm, on the
        cached integrals of `class_integrals`."""
        if beta <= 0:
            raise ValueError("beta must be positive")
        classes, integrals = class_integrals(d, max_norm)
        probabilities = -np.expm1(-beta * integrals)
        probabilities.flags.writeable = False
        return cls(d=d, beta=beta, classes=classes, integrals=integrals,
                   probabilities=probabilities)

    @property
    def entries(self) -> dict[tuple[int, ...], tuple[float, float]]:
        return dict(zip(map(tuple, self.classes.tolist()),
                        zip(self.integrals.tolist(),
                            self.probabilities.tolist())))


def expected_degree(beta: float, d: int, cutoff: int) -> tuple[float, float]:
    """Mean degree of a site: sure neighbors plus long-edge probabilities.

    Returns (mu, tail_bound) where mu = (3^d - 1) + sum of p_k over
    2 <= ||k||_inf <= cutoff and tail_bound rigorously dominates the
    truncated remainder sum over ||k||_inf > cutoff, via
    p_k <= beta * I(k) and an integral comparison of the lattice sum.

    Every site has 3^d - 1 sure ell-infinity neighbors (2d when d=1).
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    classes, integrals = class_integrals(d, cutoff)
    total = 3 ** d - 1 + float(_orbit_sizes(classes)
                               @ -np.expm1(-beta * integrals))
    return total, _degree_tail_bound(beta, d, cutoff)


def _degree_tail_bound(beta: float, d: int, cutoff: int) -> float:
    """Upper bound on sum of p_k over ||k||_inf > cutoff.

    Uses p_k <= beta I(k) <= beta (|k| - sqrt(d))^(-2d) and dominates
    the lattice sum by the integral over {|x| > cutoff - 1/2} of
    (|x| - 3 sqrt(d)/2)^(-2d) dx (each site's unit cell shifts the
    radius by at most sqrt(d)/2).  The radial integral has a closed
    form per dimension.
    """
    lo = cutoff - 0.5
    s = 1.5 * math.sqrt(d)
    t0 = lo - s
    if t0 <= 1:
        raise ValueError("cutoff too small for a meaningful tail bound")
    surface = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}[d]
    # integral of r^(d-1) (r-s)^(-2d) dr from lo to infinity, expanded
    # in t = r - s
    if d == 1:
        val = 1.0 / t0
    elif d == 2:
        val = 1.0 / (2 * t0 ** 2) + s / (3 * t0 ** 3)
    else:
        val = (1.0 / (3 * t0 ** 3) + s / (2 * t0 ** 4)
               + s * s / (5 * t0 ** 5))
    return beta * surface * val
