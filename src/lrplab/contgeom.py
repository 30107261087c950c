"""Closed-form continuum integrals of the critical kernel |u-v|^(-2d).

Every continuum region is rotationally symmetric about the origin and
is its radial range (lo, hi), 0 <= lo < hi <= inf: a ball of radius r
is (0, r), its outside (r, inf), an annulus or an xi cell (inner,
outer).  The crossing probability between an inner and an outer range
is 1 - exp(-beta * I), I the kernel integral over the two regions:

d=1, a range is [-hi, hi] when lo = 0, else [-hi, -lo] u [lo, hi], and
disjoint intervals [a1,b1] x [a2,b2] (b1 < a2) integrate to
    I = log((a2-a1)(b2-b1) / ((a2-b1)(b2-a1)))
(with the obvious limits at an infinite endpoint).

d=2, the angular integral of |u-v|^(-4) is 2 pi (rho^2+r^2)/|rho^2-r^2|^3,
and with G(b, rho) = b^2 / (2 (b^2 - rho^2)), G(inf, rho) = 1/2, the
ranges [a1,a2] x [b1,b2] (a2 < b1) integrate to
    I = 2 pi^2 [G(b1,a2) - G(b1,a1) - G(b2,a2) + G(b2,a1)].

The inner range must end strictly below the outer one: touching
ranges have a divergent mean edge count.
"""

from __future__ import annotations

import math

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


def radial_pair_integral(d: int, inner: tuple[float, float],
                         outer: tuple[float, float]) -> float:
    """Kernel integral between two radial ranges; a touching,
    overlapping, inverted or empty pair is refused."""
    (a1, a2), (b1, b2) = inner, outer
    if not (0 <= a1 < a2 and b1 < b2):
        raise ValueError("a radial range needs 0 <= lo < hi")
    if not a2 < b1:
        raise ValueError("the inner radial range must end below the "
                         "start of the outer one")
    if d == 1:
        inside, outside = ([(-hi, hi)] if lo == 0 else [(-hi, -lo), (lo, hi)]
                           for lo, hi in (inner, outer))
        total = 0.0
        for u in inside:
            for v in outside:
                total += interval_pair_integral(*u, *v)
        return total
    if d == 2:
        return 2.0 * math.pi ** 2 * (_radial_G(b1, a2) - _radial_G(b1, a1)
                                     - _radial_G(b2, a2) + _radial_G(b2, a1))
    raise ValueError("continuum integrals need d = 1 or 2")


def crossing_probability(d: int, inner: tuple[float, float],
                         outer: tuple[float, float], beta: float) -> float:
    """P[at least one long edge between the ranges] = 1 - exp(-beta I)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return -math.expm1(-beta * radial_pair_integral(d, inner, outer))
