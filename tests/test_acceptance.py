"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lrplab.graph import (ModelConfig, expected_long_edge_total,
                          sample_graph)
from lrplab.kernel import edge_probability, kernel_integral
from lrplab.metric import geodesic_dag, distance, sample_geodesic
from lrplab.scaling import (Ladder, atom_trend, ecdf, estimate_medians,
                            fit_theta, sample_distances)
from lrplab.dimension import (GoodCubeParams, classify_good_cube,
                              connected_set_growth, mean_dimension_fit)
from lrplab.firework import (FireworkModel, build_ladder, coupling_checks,
                             default_step_cdf, jump_scaling_sweep,
                             reach_tail, simulate_firework,
                             simulate_xi_vector, _reaches_from_steps)
from lrplab.sperner import (generate_family, is_sperner_family,
                            log_central_term, lym_sum,
                            sperner_bound_check)
from lrplab.rng import RngStream

from oracles import (dijkstra_distance, enumerate_geodesics,
                     kernel_closed_d1, kernel_quad_oracle)


def _verdict(num, name, ok, detail, started):
    elapsed = time.time() - started
    line = (f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s)")
    print(line)
    assert ok, line
    return elapsed


def test_criterion_01_kernel_exactness():
    t0 = time.time()
    p = edge_probability((2,), beta=1.0)
    ok = abs(p - 0.25) <= 1e-10
    closed = 1.0 - math.exp(-kernel_closed_d1(2))
    ok &= abs(p - closed) <= 1e-10
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(25):
        k = int(rng.integers(2, 200))
        rel = abs(kernel_integral((k,), 1) - kernel_quad_oracle((k,), 1)) \
            / kernel_quad_oracle((k,), 1)
        worst = max(worst, rel)
    for _ in range(25):
        a = int(rng.integers(2, 60))
        b = int(rng.integers(0, a + 1))
        oracle = kernel_quad_oracle((a, b), 2)
        rel = abs(kernel_integral((a, b), 2) - oracle) / oracle
        worst = max(worst, rel)
    ok &= worst <= 1e-6
    elapsed = _verdict(1, "kernel exactness", ok,
                       f"p(2)={p:.12f}, worst rel err {worst:.2e}", t0)
    assert elapsed < 10


def _binned_chi2(counts, N, p):
    """Pearson statistic of observed counts against Binomial(N, p).

    Value bins are merged from the right until every expected count is
    at least 5; returns (X2, dof) or None when fewer than two bins
    remain.
    """
    reps = len(counts)
    hi = int(counts.max())
    support = np.arange(hi + 1)
    pmf = stats.binom.pmf(support, N, p)
    pmf = np.append(pmf, max(1.0 - pmf.sum(), 0.0))  # upper tail
    obs = np.bincount(counts, minlength=hi + 2).astype(float)
    exp = pmf * reps
    # merge from the right, then from the left, for expected >= 5
    bins_obs, bins_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            bins_obs.append(acc_o)
            bins_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and bins_exp:
        bins_obs[-1] += acc_o
        bins_exp[-1] += acc_e
    if len(bins_exp) < 2:
        return None
    bins_obs = np.asarray(bins_obs)
    bins_exp = np.asarray(bins_exp)
    x2 = float(((bins_obs - bins_exp) ** 2 / bins_exp).sum())
    return x2, len(bins_exp) - 1


def test_criterion_02_sampler_law():
    t0 = time.time()
    n, reps = 512, 1000
    cfg = ModelConfig(d=1, beta=1.0, n=n, seed=20240512)
    ks = np.arange(2, n)
    from lrplab.kernel import class_integrals
    ps = -np.expm1(-class_integrals(1, n - 1)[1])
    per_class = np.zeros((len(ks), reps), dtype=np.int64)
    totals = np.zeros(reps)
    for r in range(reps):
        g = sample_graph(cfg, stream_id=r)
        e = g.long_edges
        disp = (e[:, 1] - e[:, 0]) if e.size else np.empty(0, dtype=int)
        cnt = np.bincount(disp, minlength=n)
        per_class[:, r] = cnt[2:n]
        totals[r] = e.shape[0]
    x2_tot = dof_tot = 0.0
    for idx, k in enumerate(ks):
        out = _binned_chi2(per_class[idx], n - int(k), ps[idx])
        if out is not None:
            x2_tot += out[0]
            dof_tot += out[1]
    pval = stats.chi2.sf(x2_tot, dof_tot)
    mean_exact = expected_long_edge_total(cfg)
    se = totals.std(ddof=1) / math.sqrt(reps)
    mean_ok = abs(totals.mean() - mean_exact) <= 3 * se
    ok = (pval >= 0.01) and mean_ok
    elapsed = _verdict(2, "sampler law", ok,
                       f"pooled chi2 p={pval:.4f} (dof={int(dof_tot)}), "
                       f"mean {totals.mean():.2f} vs {mean_exact:.2f} "
                       f"(3SE={3 * se:.2f})", t0)
    assert elapsed < 120


def test_criterion_03_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(33)
    dist_checked = count_checked = 0
    ok = True
    for inst in range(100):
        if inst % 2 == 0:
            d, n = 1, int(rng.integers(16, 65))
        else:
            d, n = 2, int(rng.integers(4, 9))
        cfg = ModelConfig(d=d, beta=1.0, n=n, seed=int(rng.integers(2**31)))
        g = sample_graph(cfg)
        x, y = map(int, rng.integers(0, g.n_vertices, 2))
        got = distance(g, x, y)
        want = dijkstra_distance(g, x, y)
        ok &= got == want
        dist_checked += 1
        if x == y:
            continue
        paths = enumerate_geodesics(g, x, y, want, node_budget=400_000)
        if paths is None or len(paths) > 10 ** 4:
            continue
        dag = geodesic_dag(g, x, y)
        ok &= dag.count == len(paths)
        count_checked += 1
    ok &= dist_checked == 100 and count_checked >= 50
    elapsed = _verdict(3, "metric oracles", ok,
                       f"{dist_checked} distances, {count_checked} "
                       f"exhaustive counts", t0)
    assert elapsed < 60


def _fast_brute_unstable(n, members, A, all_masks, popcounts):
    """Vectorized witness enumeration straight from the definition."""
    full = (1 << n) - 1
    comp = full & ~A
    cand = all_masks[(all_masks & ~comp) == 0]
    cand = cand[2 * popcounts[cand] >= n]
    for Ap in members:
        if Ap & A == A:
            cand = cand[(cand & (Ap & ~A)) == 0]
            if not cand.size:
                break
    up = cand.size > 0
    cand = all_masks[(all_masks & ~A) == 0]
    cand = cand[2 * popcounts[cand] >= n]
    for Ap in members:
        if Ap | A == A:
            cand = cand[(cand & ~Ap) == 0]
            if not cand.size:
                break
    return up, cand.size > 0


def test_criterion_04_sperner_suite():
    t0 = time.time()
    per_n = 1000
    p_values = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    kinds = ("antichain-low", "greedy-maximal", "random-levels")
    ok = True
    brute_checked = 0
    for n in range(4, 21):
        rng = RngStream(777, (40, n)).generator()
        if n <= 12:
            all_masks = np.arange(1 << n, dtype=np.int64)
            popcounts = np.bitwise_count(all_masks).astype(np.int64)
        for fi in range(per_n):
            fam = generate_family(kinds[fi % 3], n, rng, target_size=6)
            rep = is_sperner_family(fam)
            ok &= rep.is_sperner
            ok &= lym_sum(fam) <= 4
            for pv in p_values:
                chain = sperner_bound_check(fam, pv)
                ok &= chain.holds
            if n <= 12:
                for A, cls in zip(fam.members, rep.classifications):
                    up, down = _fast_brute_unstable(
                        n, fam.members, int(A), all_masks, popcounts)
                    ok &= (cls.upward, cls.downward) == (up, down)
                    brute_checked += 1
            if not ok:
                break
        if not ok:
            break
    # sqrt(n)-scaled bound stays bounded up to n = 1000 (log space)
    for p in (0.25, 0.5, 0.75):
        scaled = [4 * math.sqrt(n) * math.exp(log_central_term(n, p))
                  for n in range(4, 1001)]
        ok &= max(scaled) < 10
    elapsed = _verdict(4, "sperner suite", ok,
                       f"{17 * per_n} families, {brute_checked} "
                       f"brute-force member checks", t0)
    assert elapsed < 180


def test_criterion_05_firework_tail():
    t0 = time.time()
    runs = 10 ** 5
    model = FireworkModel.default(12, c2=1.0)
    rt = reach_tail(model, range(2, 13), runs,
                    RngStream(555, (50,)).generator())
    ok = rt.r_squared >= 0.95 and rt.kappa_hat < 1
    # exact DP agreement at k <= 4
    cdf = default_step_cdf(1.0)
    sim = simulate_firework(FireworkModel.default(4, c2=1.0),
                            RngStream(555, (51,)).generator(), runs=runs)
    dp_detail = []
    for k in (2, 3, 4):
        probs = np.diff(np.concatenate([[0.0], cdf[:k]]))
        probs = np.concatenate([probs, [1.0 - cdf[k - 1]]])
        exact = 0.0
        for combo in itertools.product(range(k + 1), repeat=k):
            if _reaches_from_steps(np.array([combo]))[0] >= k:
                exact += float(np.prod(probs[list(combo)]))
        emp = float((sim.reaches >= k).mean())
        se = math.sqrt(exact * (1 - exact) / runs)
        ok &= abs(emp - exact) <= 3 * se
        dp_detail.append(f"k={k}: |{emp:.4f}-{exact:.4f}|<={3 * se:.4f}")
    elapsed = _verdict(5, "firework tail", ok,
                       f"kappa={rt.kappa_hat:.3f}, r2={rt.r_squared:.4f}; "
                       + "; ".join(dp_detail), t0)
    assert elapsed < 60


def test_criterion_06_crossing_scaling():
    t0 = time.time()
    details = []
    ok = True
    for d in (1, 2):
        _, _, slope, r2 = jump_scaling_sweep([2, 4, 8, 16], beta=1e-3, d=d)
        ok &= -d - 0.2 <= slope <= -d + 0.2
        details.append(f"d={d}: slope={slope:.3f}")
    elapsed = _verdict(6, "crossing-probability scaling", ok,
                       "; ".join(details), t0)
    assert elapsed < 60


def test_criterion_07_coupling_inequality():
    t0 = time.time()
    ladder = build_ladder(1e-12, theta=0.5, c_star1=0.5)
    assert ladder.K == 6
    beta = 0.5
    runs = 10 ** 4
    xi = simulate_xi_vector(ladder, beta, resolution=8,
                            rng=RngStream(700, (70,)).generator(),
                            runs=runs)
    checks = coupling_checks(ladder, beta, xi, runs_fw=runs,
                             rng=RngStream(700, (71,)).generator())
    failures = [c for c in checks if not c.holds]
    ok = not failures and len(checks) == 63
    worst = max(c.w_empirical - c.fw_tail for c in checks)
    elapsed = _verdict(7, "coupling inequality", ok,
                       f"63 subsets, worst w-tail gap {worst:+.4f}", t0)
    assert elapsed < 300


@pytest.fixture(scope="module")
def scaling_fit_200():
    ladder = Ladder(n_values=(32, 64, 128, 256, 512, 1024, 2048),
                    replicates=200)
    return fit_theta(estimate_medians(1, 1.0, ladder, seed=88))


def test_criterion_08_theta_dimension_consistency(scaling_fit_200):
    t0 = time.time()
    fit = scaling_fit_200
    ok = fit.r_squared >= 0.98 and 0 < fit.theta_hat < 1
    n = 2048
    m = 3 * n
    paths = []
    for r in range(100):
        cfg = ModelConfig(d=1, beta=1.0, n=m, seed=88)
        g = sample_graph(cfg, stream_id=(80, r))
        dag = geodesic_dag(g, n, 2 * n)
        rng = RngStream(88, (81, r)).generator()
        paths.append(g.coords(np.asarray(sample_geodesic(dag, rng))))
    deltas = [2.0 ** -j for j in (2, 3, 4, 5, 6)]
    dim = mean_dimension_fit(paths, deltas, float(n))
    ok &= abs(dim.dim_hat - fit.theta_hat) <= 0.1
    elapsed = _verdict(
        8, "theta/dimension consistency", ok,
        f"theta={fit.theta_hat:.4f} (r2={fit.r_squared:.4f}), "
        f"dim={dim.dim_hat:.4f}, |diff|={abs(dim.dim_hat - fit.theta_hat):.4f}",
        t0)
    assert elapsed < 1800


def test_criterion_09_continuity_trend():
    t0 = time.time()
    ladder = Ladder(n_values=(32, 64, 128, 256, 512, 1024, 2048),
                    replicates=500)
    fit = estimate_medians(1, 1.0, ladder, seed=99)
    ecdfs = [ecdf(fit, n) for n in ladder.n_values]
    masses, rho, pval = atom_trend(ecdfs)
    decreasing = masses[-1] < masses[0]
    ok = decreasing and rho < 0 and pval <= 0.05
    elapsed = _verdict(
        9, "continuity trend", ok,
        f"atoms {masses[0]:.3f}->{masses[-1]:.3f}, rho={rho:.3f}, "
        f"p={pval:.2e}", t0)
    assert elapsed < 1200


def test_criterion_10_good_cube_rates():
    t0 = time.time()
    s, b, theta = 32, 0.25, 0.45
    reps = 1000
    a_s = float(np.median(sample_distances(1, 1.0, s, 200, seed=101,
                                           ladder_index=10)))
    alphas = (0.5, 0.25, 0.1)
    n_box = 9 * s
    z = (n_box // 2,)
    results = np.zeros((reps, len(alphas)), dtype=bool)
    for r in range(reps):
        cfg = ModelConfig(d=1, beta=1.0, n=n_box, seed=101)
        g = sample_graph(cfg, stream_id=(102, r))
        for ai, alpha in enumerate(alphas):
            params = GoodCubeParams(alpha=alpha, b=b, theta=theta)
            results[r, ai] = classify_good_cube(g, z, s, [params],
                                                a_s)[0].good
    # per-realization monotonicity: good at larger alpha implies good
    # at smaller alpha (same b)
    mono = bool(((~results[:, 0] | results[:, 1]) &
                 (~results[:, 1] | results[:, 2])).all())
    rates = results.mean(axis=0)
    sig = True
    for hi, lo in ((1, 0), (2, 1)):
        disc = int((results[:, hi] & ~results[:, lo]).sum())
        sig &= disc - 3 * math.sqrt(max(disc, 1)) > 0
    ok = mono and sig and rates[0] < rates[1] < rates[2]
    elapsed = _verdict(
        10, "good-cube monotonicity and rates", ok,
        f"rates alpha 0.5/0.25/0.1 = {rates[0]:.3f}/{rates[1]:.3f}/"
        f"{rates[2]:.3f}, monotone={mono}", t0)
    assert elapsed < 600


def test_criterion_11_connected_set_growth():
    t0 = time.time()
    out = connected_set_growth(1, 1.0, n=512, s=8, k=6, replicates=200,
                               seed=111)
    # allow 3 sigma of the mean-degree estimate in the bound base
    sigma_mu = out.mu_hat / math.sqrt(out.replicates)
    bound = (4.0 * (out.mu_hat + 3 * sigma_mu)) ** np.arange(1, 7)
    ok = bool((out.cs_means <= bound).all())
    elapsed = _verdict(
        11, "connected-set growth", ok,
        f"mu={out.mu_hat:.3f}, means up to {out.cs_means[-1]:.1f} vs "
        f"bound {bound[-1]:.2e}", t0)
    assert elapsed < 600


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    from lrplab.experiments import parse_config, run
    outputs = []
    for sub in ("one", "two"):
        cfg = parse_config({
            "kind": "scaling", "seed": 314, "out": str(tmp_path / sub),
            "model": {"d": 1, "beta": 1.0},
            "params": {"n_values": [8, 16, 32, 64], "replicates": 40}})
        manifest = run(cfg)
        outputs.append(manifest.outputs)
        data = {}
        for name in manifest.outputs:
            data[name] = (tmp_path / sub / name).read_bytes()
        outputs.append(data)
    ok = outputs[0] == outputs[2] and outputs[1] == outputs[3]
    _verdict(12, "determinism", ok,
             f"{len(outputs[0])} files byte-identical", t0)
