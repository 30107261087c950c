import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrplab import kernel
from lrplab.kernel import (TOLERANCE, DisplacementKernel,
                           canonical_class, class_integrals, class_table,
                           edge_probability, expected_degree,
                           kernel_integral, tail_radius)

from oracles import kernel_closed_d1, kernel_quad_oracle


def test_d1_k2_closed_form():
    assert kernel_integral((2,), 1) == pytest.approx(math.log(4 / 3),
                                                     rel=1e-12)


def test_d1_far_limit():
    # I(k) * k^2 -> 1 by dominated convergence
    m = 10 ** 4
    assert kernel_integral((m,), 1) * m * m == pytest.approx(1.0, abs=1e-3)


def test_d2_matches_adaptive_oracle_tight():
    val = kernel_integral((3, 0), 2)
    assert val == pytest.approx(kernel_quad_oracle((3, 0), 2), rel=1e-9)


@pytest.mark.parametrize("k,d", [((2,), 1), ((7,), 1), ((40,), 1),
                                 ((2, 0), 2), ((2, 2), 2), ((5, 3), 2),
                                 ((9, 9), 2), ((60, 1), 2)])
def test_quad_vs_oracle(k, d):
    assert kernel_integral(k, d) == pytest.approx(kernel_quad_oracle(k, d),
                                                  rel=1e-6)


def test_d1_vectorized_matches_scalar():
    # the closed form is exact; the oracle's own rounding is ~2e-9 at 5000
    ks = np.array([2, 3, 10, 31, 37, 200, 5000])
    vec = class_integrals(1, 5000)[1][ks - 2]
    for k, v in zip(ks, vec):
        assert v == pytest.approx(kernel_integral((int(k),), 1), rel=1e-12)
        assert v == pytest.approx(kernel_closed_d1(int(k)), rel=1e-8)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2,
                max_size=2).filter(lambda k: max(abs(c) for c in k) >= 2),
       st.permutations([0, 1]),
       st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])))
def test_symmetry_exact(k, perm, signs):
    image = tuple(signs[m] * k[perm[m]] for m in range(2))
    # identical canonical class means identical table value, bit for bit
    assert canonical_class(k) == canonical_class(image)
    assert kernel_integral(k, 2) == kernel_integral(image, 2)


def test_rejects_nearest_neighbor_and_zero():
    for bad in [(1,), (0,), (1, 0), (1, 1), (0, 0)]:
        with pytest.raises(ValueError):
            kernel_integral(bad, len(bad))


def test_monotone_decreasing_along_axis():
    vals = [kernel_integral((k, 0), 2) for k in range(2, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_edge_probability_quarter():
    assert edge_probability((2,), beta=1.0) == pytest.approx(0.25, abs=1e-10)


def test_edge_probability_nearest_neighbor_sure():
    assert edge_probability((1,), beta=0.3) == 1.0
    assert edge_probability((1, -1), beta=2.0) == 1.0
    assert edge_probability((0, 1), beta=2.0) == 1.0


def test_edge_probability_vanishes_with_beta():
    p = edge_probability((4, 2), beta=1e-14)
    assert 0 < p < 1e-12


def test_edge_probability_open_interval():
    for k in [(2,), (300,)]:
        p = edge_probability(k, beta=5.0)
        assert 0 < p < 1


def test_table_identity_machine_precision():
    table = DisplacementKernel.build(2, beta=1.7, max_norm=5)
    for klass, (I, p) in table.entries.items():
        assert p == -math.expm1(-1.7 * I)
        assert 0 < p < 1


def test_tail_radius_certified():
    # the closed tail form must meet the tolerance where it takes over
    for d in (1, 2):
        r = int(math.ceil(tail_radius(d)))
        k = (r,) if d == 1 else (r, 0)
        assert kernel_integral(k, d) == pytest.approx(
            kernel_quad_oracle(k, d), rel=TOLERANCE)


def brute_orbits(d, max_norm):
    """Number of long displacements with ||k||_inf <= max_norm in each
    canonical class, by brute force."""
    return Counter(canonical_class(k) for k in itertools.product(
        range(-max_norm, max_norm + 1), repeat=d) if max(map(abs, k)) >= 2)


def brute_classes(d, max_norm):
    """Every canonical class with 2 <= c1 <= max_norm, in kernel order:
    c1 ascending, then each later coordinate descending."""
    return sorted(brute_orbits(d, max_norm),
                  key=lambda c: (c[0],) + tuple(-x for x in c[1:]))


def test_enumerate_classes_complete():
    for d, max_norm in ((1, 9), (2, 6), (3, 5)):
        classes = class_integrals(d, max_norm)[0]
        assert classes.shape == (len(brute_classes(d, max_norm)), d)
        assert list(map(tuple, classes.tolist())) == \
            brute_classes(d, max_norm)


def test_batched_d2_table_matches_oracle():
    classes, integrals = class_integrals(2, 8)
    assert len(classes) == len(brute_classes(2, 8))
    for k, I in zip(classes.tolist(), integrals):
        assert I == pytest.approx(kernel_quad_oracle(k, 2), rel=1e-9)


def test_class_integral_independent_of_box():
    # a class's I(k) has the same bits in every box that holds it,
    # whichever classes share its quadrature batch
    full = class_integrals(2, 60)[1]
    for m in range(8, 60):
        part = class_integrals(2, m)[1]
        assert np.array_equal(part, full[:part.size])


def test_class_table_and_integrals_share_one_walk():
    from lrplab import graph
    for cached in (class_table, class_integrals):
        cached.cache_clear()
    graph.sample_graph(graph.ModelConfig(d=2, beta=1.0, n=9, seed=1))
    assert class_integrals(2, 8)[0] is class_table(2, 9).classes


def test_table_shares_cached_integrals_across_beta():
    before = class_integrals.cache_info().hits
    t1 = DisplacementKernel.build(2, beta=0.5, max_norm=7)
    t2 = DisplacementKernel.build(2, beta=2.0, max_norm=7)
    assert class_integrals.cache_info().hits >= before + 1
    assert t1.integrals is t2.integrals
    for klass, (I1, p1) in t1.entries.items():
        I2, p2 = t2.entries[klass]
        assert I1 == I2
        assert p1 < p2


def test_cached_integrals_read_only():
    classes, integrals = class_integrals(2, 5)
    with pytest.raises(ValueError):
        integrals[0] = 1.0
    with pytest.raises(ValueError):
        classes[0, 0] = 9


def test_d3_table_bounded_and_tail_consistent():
    table = DisplacementKernel.build(3, beta=1.0, max_norm=6)
    assert len(table.entries) == len(brute_classes(3, 6))
    # just inside the tail radius the quadrature still runs; there it
    # must agree with the closed tail form within the tolerance, on the
    # axis and near the body diagonal
    tol = table.tolerance
    r = tail_radius(3)
    for k in ((math.floor(r), 0, 0), (12, 12, 11)):
        r2 = float(sum(c * c for c in k))
        assert r2 < r * r
        q = sum(c ** 4 for c in k) / r2 ** 2
        tail = r2 ** -3 * (1 + 15 / (6 * r2) + (113 / 15 - 4 * q) / r2 ** 2)
        assert kernel_integral(k, 3) == pytest.approx(tail, rel=tol)


def _shell(d, lo, hi):
    """Every canonical class with lo <= |k| < hi."""
    classes = class_integrals(d, math.ceil(hi))[0]
    r = np.sqrt((classes ** 2).sum(axis=1))
    return classes[(r >= lo) & (r < hi)]


@pytest.mark.parametrize("d", [2, 3])
def test_tail_certified_in_every_direction(d):
    # the tail form's error is largest on the body diagonal, not on the
    # axis; every class of the shell where it takes over must meet the
    # tolerance against the quadrature
    r = tail_radius(d)
    shell = _shell(d, r, r + 2)
    assert len(shell) > 10
    tail = kernel._integrals(shell)
    quad = kernel._quadrature(shell.astype(float), 16)
    np.testing.assert_allclose(tail, quad, rtol=TOLERANCE, atol=0)
    assert not np.array_equal(tail, quad)


def test_tail_radius_bounds():
    assert tail_radius(2) < 20
    assert tail_radius(3) < 25


_BUILD_D3 = """
import time
from lrplab.kernel import class_integrals
t0 = time.perf_counter()
class_integrals(3, 47)
print(time.perf_counter() - t0)
"""


def test_d3_table_builds_fast():
    # the d=3 box-48 table, in a fresh interpreter with no cache
    src = str(Path(kernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _BUILD_D3], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert float(proc.stdout) < 2.0


@pytest.mark.parametrize("nodes", [8, 16, 32])
def test_panel_rule_matches_leggauss(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = np.concatenate([(x - 1) / 2, (x + 1) / 2])
    tw = np.concatenate([w, w]) / 2 * (1 - np.abs(t))
    got_t, got_w = kernel._panel_rule(nodes)
    np.testing.assert_allclose(got_t, t, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got_w, tw, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d,hi", [(2, 17), (3, 22)])
def test_eight_node_panels_match_sixteen(d, hi):
    # past |k| = 6 the kernel takes 8 nodes per panel
    k = _shell(d, 6, hi).astype(float)
    np.testing.assert_allclose(kernel._quadrature(k, 8),
                               kernel._quadrature(k, 16), rtol=1e-15,
                               atol=0)


def test_expected_degree_nearest_neighbors_only():
    mu, tail = expected_degree(beta=1e-13, d=1, cutoff=100)
    assert mu == pytest.approx(2.0, abs=1e-10)
    assert tail < 1e-11


def test_expected_degree_cutoff_self_consistency():
    mu4, tail4 = expected_degree(beta=1.0, d=1, cutoff=10 ** 4)
    mu5, tail5 = expected_degree(beta=1.0, d=1, cutoff=10 ** 5)
    assert abs(mu5 - mu4) <= tail4
    assert tail5 < tail4


@pytest.mark.parametrize("d,max_norm", [(1, 9), (2, 6), (3, 4)])
def test_orbit_sizes_count_displacements(d, max_norm):
    counted = brute_orbits(d, max_norm)
    table = class_table(d, max_norm + 1)
    # members are one of each pair k, -k
    assert (2 * table.members).tolist() == \
        [counted[tuple(c)] for c in table.classes.tolist()]


def test_expected_degree_monotone_in_beta():
    mus = [expected_degree(beta=b, d=1, cutoff=200)[0]
           for b in (0.5, 1.0, 2.0)]
    assert mus[0] < mus[1] < mus[2]


@pytest.mark.parametrize("d,cutoff", [(1, 50), (2, 30), (3, 12)])
def test_orbit_sizes_closed_form_counts_the_box(d, cutoff):
    classes = class_integrals(d, cutoff)[0]
    orbits = brute_orbits(d, cutoff)
    counted = [orbits[tuple(c)] for c in classes.tolist()]
    assert kernel._orbit_sizes(classes).tolist() == counted
    # members are one of each pair k, -k
    assert (2 * class_table(d, cutoff + 1).members).tolist() == counted


def test_expected_degree_builds_no_class_table():
    before = class_table.cache_info()
    expected_degree(1.0, 3, 14)
    after = class_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
