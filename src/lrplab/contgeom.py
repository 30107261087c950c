"""Closed-form continuum integrals of the critical kernel |u-v|^(-2d).

Crossing probabilities of the continuum long-edge process over region
pairs (A, B) are 1 - exp(-beta * I) with I the double integral of the
kernel over A x B.  For the geometries used here the integral has
closed antiderivatives:

d=1, disjoint intervals [a1,b1] x [a2,b2] (b1 < a2):
    I = log((a2-a1)(b2-b1) / ((a2-b1)(b2-a1))),
with the obvious limits when an endpoint is infinite.

d=2, rotationally symmetric regions with disjoint radial supports:
the angular integral of |u-v|^(-4) is 2 pi (rho^2+r^2)/|rho^2-r^2|^3,
and with G(b, rho) = b^2 / (2 (b^2 - rho^2)) the radial-range pair
[a1,a2] x [b1,b2] (a2 < b1) integrates to
    I = 2 pi^2 [G(b1,a2) - G(b1,a1) - G(b2,a2) + G(b2,a1)],
where G(inf, rho) = 1/2.

Every function validates positive separation; touching regions have
divergent mean edge counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


def interval_pair_integral(a1: float, b1: float, a2: float,
                           b2: float) -> float:
    """Integral of (v-u)^-2 over [a1,b1] x [a2,b2], disjoint intervals.

    Evaluated in terms of the gap g = a2 - b1 and the widths, as
    log1p(wa wb / (g (g + wa + wb))), which is exact algebra and stays
    accurate when the intervals are tiny relative to their distance.
    """
    if b1 > b2:  # canonical order: first interval to the left
        a1, b1, a2, b2 = a2, b2, a1, b1
    if a2 < b1:
        raise ValueError("intervals must be disjoint")
    g = a2 - b1
    if g == 0:
        return INF  # touching intervals: divergent mean edge count
    if a1 == -INF and b2 == INF:
        return INF
    if a1 == -INF:
        return math.log1p((b2 - a2) / g)
    if b2 == INF:
        return math.log1p((b1 - a1) / g)
    wa = b1 - a1
    wb = b2 - a2
    return math.log1p(wa * wb / (g * (g + wa + wb)))


def _radial_G(b: float, rho: float) -> float:
    if b == INF:
        return 0.5
    return b * b / (2.0 * (b * b - rho * rho))


def radial_pair_integral_d2(a1: float, a2: float, b1: float,
                            b2: float) -> float:
    """Integral of |u-v|^-4 over radial ranges [a1,a2] x [b1,b2], a2 < b1."""
    if a1 > b1:
        a1, a2, b1, b2 = b1, b2, a1, a2
    if not (0 <= a1 <= a2 and b1 <= b2):
        raise ValueError("invalid radial ranges")
    if a2 >= b1:
        raise ValueError("radial ranges must be separated")
    return 2.0 * math.pi ** 2 * (_radial_G(b1, a2) - _radial_G(b1, a1)
                                 - _radial_G(b2, a2) + _radial_G(b2, a1))


@dataclass(frozen=True)
class ContRegion:
    """Continuum region centered at the origin.

    d=1: union of signed intervals.  d=2: rotationally symmetric union
    of radial ranges.  Pieces are (lo, hi) tuples.
    """

    d: int
    pieces: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.pieces:
            if not lo < hi:
                raise ValueError("empty or inverted piece")
            if self.d == 2 and lo < 0:
                raise ValueError("radial pieces need lo >= 0")


def ball(r: float, d: int) -> ContRegion:
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        return ContRegion(d=d, pieces=())
    pieces = ((-r, r),) if d == 1 else ((0.0, r),)
    return ContRegion(d=d, pieces=pieces)


def ball_complement(r: float, d: int) -> ContRegion:
    if r <= 0:
        raise ValueError("radius must be positive")
    pieces = ((-INF, -r), (r, INF)) if d == 1 else ((r, INF),)
    return ContRegion(d=d, pieces=pieces)


def annulus(r_outer: float, r_inner: float, d: int) -> ContRegion:
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    if r_inner == 0:
        return ball(r_outer, d)
    pieces = ((-r_outer, -r_inner), (r_inner, r_outer)) if d == 1 \
        else ((r_inner, r_outer),)
    return ContRegion(d=d, pieces=pieces)


def separation(a: ContRegion, b: ContRegion) -> float:
    """Minimum distance between the two regions (0 if they touch/overlap)."""
    best = INF
    for (lo1, hi1) in a.pieces:
        for (lo2, hi2) in b.pieces:
            gap = max(lo2 - hi1, lo1 - hi2)
            best = min(best, max(gap, 0.0))
            if hi1 > lo2 and hi2 > lo1:
                return 0.0
    return best


def region_pair_integral(a: ContRegion, b: ContRegion) -> float:
    """Kernel integral over A x B; requires positive separation."""
    if a.d != b.d:
        raise ValueError("regions live in different dimensions")
    if not a.pieces or not b.pieces:
        return 0.0
    if separation(a, b) <= 0:
        raise ValueError("regions must be disjoint with positive separation")
    total = 0.0
    for (lo1, hi1) in a.pieces:
        for (lo2, hi2) in b.pieces:
            if a.d == 1:
                total += interval_pair_integral(lo1, hi1, lo2, hi2)
            else:
                total += radial_pair_integral_d2(lo1, hi1, lo2, hi2)
    return total


def crossing_probability(inner: ContRegion, outer: ContRegion,
                         beta: float) -> float:
    """P[at least one long edge between the regions] = 1 - exp(-beta I)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    I = region_pair_integral(inner, outer)
    return -math.expm1(-beta * I)
