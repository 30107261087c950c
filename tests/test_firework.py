import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from lrplab import contgeom as cg
from lrplab.contgeom import crossing_probability
from lrplab.firework import (FireworkModel, _reaches_from_steps,
                             _sample_steps, build_ladder,
                             compute_crossing_probs, coupling_checks,
                             default_step_cdf, jump_scaling_sweep,
                             matched_step_cdfs, reach_tail,
                             simulate_firework, simulate_xi_vector)


# ---------------------------------------------------------------------------
# ladder


def test_ladder_identities():
    lad = build_ladder(1e-6, theta=0.5, c_star1=0.5)
    assert lad.K == math.ceil(math.sqrt(math.log(1e6)))
    for i in range(2, lad.K + 1):
        assert lad.M[i] / lad.M[i - 1] == pytest.approx(lad.N, rel=1e-12)
        assert lad.r[i] - lad.r[i - 1] == pytest.approx(lad.M[i], rel=1e-12)
    geo = lad.M[1] * (lad.N ** lad.K - 1) / (lad.N - 1)
    assert lad.r[-1] == pytest.approx(geo, rel=1e-9)
    assert lad.N >= 2 and lad.r[-1] <= 1
    assert 4 * lad.delta_max ** (lad.theta / 2) == pytest.approx(
        lad.c_star1, rel=1e-9)


def test_ladder_rejects_large_eps():
    with pytest.raises(ValueError, match="N"):
        build_ladder(0.9, theta=0.5, c_star1=0.5)


def test_ladder_m1_value():
    lad = build_ladder(1e-8, theta=0.4, c_star1=0.3)
    assert lad.M[1] == pytest.approx((4e-8 / 0.3) ** 2.5, rel=1e-12)


# ---------------------------------------------------------------------------
# crossing probabilities


def test_interval_crossing_quarter():
    p = -math.expm1(-cg.interval_pair_integral(-0.5, 0.5, 1.5, 2.5))
    assert p == pytest.approx(0.25, abs=1e-12)


def test_crossing_linear_in_small_beta():
    inner, outer = (0.0, 1.0), (3.0, cg.INF)
    I = cg.radial_pair_integral(1, inner, outer)
    p = crossing_probability(1, inner, outer, beta=1e-9)
    assert p / 1e-9 == pytest.approx(I, rel=1e-6)


def test_crossing_monotone_in_beta_and_region():
    a = crossing_probability(2, (0.0, 1.0), (2.0, cg.INF), 0.5)
    b = crossing_probability(2, (0.0, 1.0), (2.0, cg.INF), 1.0)
    c = crossing_probability(2, (0.0, 1.5), (2.0, cg.INF), 0.5)
    assert a < b and a < c


def test_crossing_rejects_overlap():
    with pytest.raises(ValueError):
        crossing_probability(1, (0.0, 2.0), (1.5, cg.INF), 1.0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("inner, outer, named", [
    ((0.0, 1.0), (1.0, cg.INF), "end below"),       # touching
    ((0.5, 2.0), (1.5, 3.0), "end below"),          # overlapping
    ((1.0, 1.0), (2.0, 3.0), "lo < hi"),            # empty inner
    ((0.0, 1.0), (3.0, 2.0), "lo < hi"),            # inverted outer
    ((-1.0, 1.0), (2.0, 3.0), "0 <= lo"),           # negative radius
    ((2.0, 3.0), (0.0, 1.0), "end below"),          # outer below inner
], ids=["touching", "overlapping", "empty", "inverted", "negative",
        "outer-below-inner"])
def test_radial_pair_integral_refusals(d, inner, outer, named):
    with pytest.raises(ValueError, match=named):
        cg.radial_pair_integral(d, inner, outer)


def test_radial_pair_integral_d1_sums_interval_pairs():
    # the xi sampler's cell pairs, summed inner interval by outer
    # interval in this order: its golden bytes depend on it
    lad = build_ladder(1e-12, theta=0.5, c_star1=0.5)
    shell = [lad.shell_inner_radius(i) for i in (1, 2, 3)]
    r = [float(x) for x in lad.r]
    for inner, outer in [((0.0, shell[0]), (r[1], shell[1])),
                         ((0.0, shell[0]), (r[3], cg.INF)),
                         ((shell[0], r[1]), (shell[1], r[2])),
                         ((r[1], shell[1]), (shell[2], cg.INF)),
                         ((0.125, 0.25), (0.5, 0.625))]:
        pieces = [[(-hi, hi)] if lo == 0 else [(-hi, -lo), (lo, hi)]
                  for lo, hi in (inner, outer)]
        total = 0.0
        for a in pieces[0]:
            for b in pieces[1]:
                total += cg.interval_pair_integral(*a, *b)
        assert cg.radial_pair_integral(1, inner, outer) == total


def test_region_integrals_match_quadrature():
    # d=1 ball x complement
    I = cg.radial_pair_integral(1, (0.0, 1.0), (2.5, cg.INF))
    assert I == pytest.approx(2 * math.log(3.5 / 1.5), rel=1e-12)
    # d=2 ball x complement against the radial reduction by scipy
    I2 = cg.radial_pair_integral(2, (0.0, 1.0), (2.0, cg.INF))

    def inner(rho):
        f = lambda r: r * (rho ** 2 + r ** 2) / (r ** 2 - rho ** 2) ** 3
        v, _ = integrate.quad(f, 2.0, np.inf, epsabs=1e-14, epsrel=1e-12)
        return rho * v
    v, _ = integrate.quad(inner, 0, 1.0, epsabs=1e-14, epsrel=1e-12)
    assert I2 == pytest.approx(4 * math.pi ** 2 * v, rel=1e-9)
    # d=2 annulus x complement
    I3 = cg.radial_pair_integral(2, (0.5, 0.9), (1.0, cg.INF))

    def inner1(rho):
        f = lambda r: r * (rho ** 2 + r ** 2) / (r ** 2 - rho ** 2) ** 3
        v, _ = integrate.quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-12)
        return rho * v
    v3, _ = integrate.quad(inner1, 0.5, 0.9, epsabs=1e-14, epsrel=1e-12)
    assert I3 == pytest.approx(4 * math.pi ** 2 * v3, rel=1e-9)


def test_ladder_crossing_probs():
    lad = build_ladder(1e-9, theta=0.5, c_star1=0.5)
    cp = compute_crossing_probs(lad, beta=1.0)
    assert cp.p_gap[0] == 0.0  # empty inner ball at the first rung
    assert ((cp.p_gap >= 0) & (cp.p_gap < 1)).all()
    assert ((cp.p_shell > 0) & (cp.p_shell < 1)).all()


def test_jump_scaling_slopes():
    for d in (1, 2):
        _, _, slope, r2 = jump_scaling_sweep([2, 4, 8, 16], beta=1e-3, d=d)
        assert -d - 0.2 <= slope <= -d + 0.2
        assert r2 > 0.99


# ---------------------------------------------------------------------------
# firework process


def test_firework_degenerate_zero():
    model = FireworkModel(k=6, step_cdf=np.array([1.0]))  # L = 0 surely
    out = simulate_firework(model, np.random.default_rng(0), runs=50)
    assert (out.reaches == 0).all()


def test_firework_full_jump():
    k = 7
    cdf = np.zeros(k + 1)
    cdf[k] = 1.0  # L = k surely
    out = simulate_firework(FireworkModel(k=k, step_cdf=cdf),
                            np.random.default_rng(0), runs=20)
    assert (out.reaches == k).all()


def test_firework_dp_oracle_small_k():
    c2 = 1.0
    runs = 10 ** 5
    model = FireworkModel.default(4, c2=c2)
    out = simulate_firework(model, np.random.default_rng(11), runs=runs)
    cdf = default_step_cdf(c2)
    for k in (2, 3, 4):
        # exact enumeration over step vectors with values capped at k
        probs = np.diff(np.concatenate([[0.0], cdf[:k]]))
        probs = np.concatenate([probs, [1.0 - cdf[k - 1]]])
        exact = 0.0
        for combo in itertools.product(range(k + 1), repeat=k):
            L = np.array([combo])
            idx = np.arange(k)
            cm = np.maximum.accumulate(idx + L[0])
            reach = k
            for j in range(k):
                if cm[j] <= j:
                    reach = j
                    break
            if reach >= k:
                exact += np.prod(probs[list(combo)])
        emp = (out.reaches >= k).mean()
        se = math.sqrt(exact * (1 - exact) / runs)
        assert abs(emp - exact) <= 3 * se


def test_reach_tail_monotone_and_fit():
    model = FireworkModel.default(12, c2=1.0)
    rt = reach_tail(model, range(2, 13), 10 ** 5, np.random.default_rng(2))
    assert (np.diff(rt.tail) <= 0).all()
    assert rt.kappa_hat < 1
    assert rt.r_squared >= 0.95


def test_reach_tail_reads_simulate_firework_reaches():
    # both draw one (runs, k_max) table of steps from the generator, so
    # the same generator gives the same reaches and the tail over them
    model = FireworkModel.default(12, c2=1.0)
    ks, runs = range(3, 9), 5000
    steps = _sample_steps(model.step_cdf, np.random.default_rng(6),
                          (runs, 8))
    drawn = simulate_firework(FireworkModel(k=8, step_cdf=model.step_cdf),
                              np.random.default_rng(6), runs)
    assert np.array_equal(drawn.reaches, _reaches_from_steps(steps))
    rt = reach_tail(model, ks, runs, np.random.default_rng(6))
    assert rt.tail.tolist() == [(drawn.reaches >= k).mean() for k in ks]


def test_reach_tail_degenerate():
    model = FireworkModel(k=8, step_cdf=np.array([1.0]))
    rt = reach_tail(model, range(1, 9), 10 ** 4, np.random.default_rng(0))
    assert (rt.tail == 0).all()


def test_reach_monotone_under_step_dominance():
    # coupled runs: same uniforms through two stochastically ordered
    # CDFs give pointwise-ordered steps, hence ordered reaches
    k = 10
    runs = 2000
    weak = default_step_cdf(0.7)
    strong = default_step_cdf(1.4)  # larger c2: stochastically larger steps
    assert (strong <= weak + 1e-15).all()
    u = np.random.default_rng(5).random((runs, k))
    L_weak = np.searchsorted(weak, u, side="left")
    L_strong = np.searchsorted(strong, u, side="left")
    assert (L_weak <= L_strong).all()
    assert (_reaches_from_steps(L_weak) <=
            _reaches_from_steps(L_strong)).all()


# ---------------------------------------------------------------------------
# xi vector and coupling


@pytest.fixture(scope="module")
def ladder6():
    return build_ladder(1e-12, theta=0.5, c_star1=0.5)


def test_xi_marginals_match_exact(ladder6):
    beta = 0.5
    xs = simulate_xi_vector(ladder6, beta, resolution=8,
                            rng=np.random.default_rng(4), runs=10 ** 4)
    cp = compute_crossing_probs(ladder6, beta)
    exact = cp.p_shell
    assert np.allclose(-np.expm1(-xs.lambda_exact), exact, rtol=1e-6)
    emp = xs.marginal_zero_rate()
    sigma = np.sqrt(exact * (1 - exact) / xs.runs)
    assert (np.abs(emp - exact) <= 3 * sigma + 1e-12).all()


def test_xi_all_ones_at_tiny_beta(ladder6):
    xs = simulate_xi_vector(ladder6, beta=1e-12, resolution=8,
                            rng=np.random.default_rng(1), runs=200)
    assert xs.xi.all()


def test_xi_rejects_coarse_resolution(ladder6):
    with pytest.raises(ValueError):
        simulate_xi_vector(ladder6, 0.5, resolution=4,
                           rng=np.random.default_rng(0))


def test_coupling_all_subsets(ladder6):
    beta = 0.5
    xs = simulate_xi_vector(ladder6, beta, resolution=8,
                            rng=np.random.default_rng(8), runs=10 ** 4)
    checks = coupling_checks(ladder6, beta, xs, runs_fw=10 ** 4,
                             rng=np.random.default_rng(9))
    assert len(checks) == 2 ** ladder6.K - 1
    assert all(c.holds for c in checks)


def test_matched_step_cdfs_shapes(ladder6):
    cdfs = matched_step_cdfs(ladder6, 0.5, (1, 3, 5))
    assert len(cdfs) == 3
    for cdf in cdfs:
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[-1] == pytest.approx(1.0)
