import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab.experiments import (_geodesic_pair, _hausdorff, parse_config,
                                report, run)
from lrplab.graph import (LrpGraph, ModelConfig, replicate_pool,
                          sample_graph)
from lrplab.metric import geodesic_dag
from lrplab.rng import Tag
from lrplab.scaling import (Ecdf, Ladder, atom_trend, centred_pair, ecdf,
                            estimate_medians, fit_theta, max_atom,
                            sample_distances, window_mass)

from oracles import dijkstra_distance, enumerate_geodesics


@pytest.mark.parametrize("d", [1, 2])
def test_probe_pair_is_centred(d):
    # a ladder point's 3n box keeps x = n*1, y = 2n*1; in the boundary
    # probe's 5n box both endpoints sit 2n from every face
    n = 4
    for box_factor, gap in [(3, n), (5, 2 * n)]:
        g = sample_graph(ModelConfig(d=d, beta=1.0, n=box_factor * n,
                                     seed=0))
        x, y = g.coords(np.asarray(centred_pair(g, n)))
        assert (y - x == n).all()
        assert (x == gap).all() and (box_factor * n - y == gap).all()


def test_ladder_validation():
    with pytest.raises(ValueError):
        Ladder(n_values=(8, 8, 16), replicates=50)
    with pytest.raises(ValueError):
        Ladder(n_values=(8, 16), replicates=10)


def test_distance_at_n1_is_one():
    # d(0, 1*1) = 1: the diagonal neighbor is a sure edge
    for d in (1, 2):
        vals = sample_distances(d, 1.0, 1, 40, seed=5)
        assert (vals == 1).all()


def test_medians_bounds_and_determinism():
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=40)
    fit1 = estimate_medians(1, 1.0, lad, seed=7)
    fit2 = estimate_medians(1, 1.0, lad, seed=7)
    assert np.array_equal(fit1.medians, fit2.medians)
    for n in lad.n_values:
        assert (fit1.samples[n] <= n).all()
        assert (fit1.samples[n] >= 1).all()
    assert (np.diff(fit1.medians) >= 0).all()
    assert fit1.boundary_check is not None


def test_fit_theta_exact_power_law():
    lad_n = (8, 16, 32, 64, 128)
    from lrplab.scaling import ScalingFit
    samples = {n: np.full(50, n ** 0.7) for n in lad_n}
    fit = ScalingFit(seed=0, n_values=lad_n, replicates=50,
                     medians=np.array([n ** 0.7 for n in lad_n]),
                     ci_lo=np.zeros(5), ci_hi=np.zeros(5), samples=samples)
    out = fit_theta(fit)
    assert out.theta_hat == pytest.approx(0.7, abs=1e-12)
    assert out.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_theta_linear_is_one():
    lad_n = (8, 16, 32, 64)
    from lrplab.scaling import ScalingFit
    meds = np.array([3.0 * n for n in lad_n])
    fit = ScalingFit(seed=0, n_values=lad_n, replicates=50,
                     medians=meds, ci_lo=meds, ci_hi=meds,
                     samples={n: np.full(50, 3.0 * n) for n in lad_n})
    assert fit_theta(fit).theta_hat == pytest.approx(1.0, abs=1e-12)


def test_fit_theta_scale_invariant():
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=40)
    fit = estimate_medians(1, 1.0, lad, seed=9)
    out1 = fit_theta(fit)
    from dataclasses import replace
    scaled = replace(fit, medians=fit.medians * 17.0,
                     samples={n: v * 17.0 for n, v in fit.samples.items()})
    out2 = fit_theta(scaled)
    assert out1.theta_hat == pytest.approx(out2.theta_hat, abs=1e-12)


def test_fit_theta_bootstrap_matches_per_round_loop():
    # reference: one rng.choice and one median per round and ladder point
    from lrplab.rng import RngStream
    from lrplab.scaling import BOOTS, line_fit
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=40)
    fit = estimate_medians(1, 1.0, lad, seed=9)
    out = fit_theta(fit)
    x = np.log(np.asarray(lad.n_values, dtype=float))
    rng = RngStream(fit.seed, (Tag.THETA_BOOTSTRAP,)).generator()
    slopes = [line_fit(x, np.log([np.median(rng.choice(
        fit.samples[n], size=40, replace=True)) for n in lad.n_values]))[0]
        for _ in range(BOOTS)]
    assert out.theta_ci == (float(np.quantile(slopes, 0.025)),
                            float(np.quantile(slopes, 0.975)))


def test_fit_theta_bootstrap_ci_equals_line_fit_loop():
    # the bootstrap's CI must equal, bit for bit, the CI of one line_fit
    # per round over the same medians: on the 4-point benchmark ladder,
    # the 7-point default one, and an 8-point one
    from lrplab.rng import RngStream
    from lrplab.scaling import ScalingFit, line_fit
    gen = np.random.default_rng(3)
    for lad_n in ((32, 64, 128, 256), (32, 64, 128, 256, 512, 1024, 2048),
                  tuple(16 * 2 ** k for k in range(8))):
        for seed in range(5):
            samples = {n: gen.integers(1, 3 * n ** 0.7, 30).astype(float)
                       for n in lad_n}
            fit = ScalingFit(
                seed=seed, n_values=lad_n, replicates=30,
                medians=np.array([np.median(samples[n]) for n in lad_n]),
                ci_lo=np.zeros(len(lad_n)), ci_hi=np.zeros(len(lad_n)),
                samples=samples)
            out = fit_theta(fit)
            x = np.log(np.asarray(lad_n, dtype=float))
            stacked = np.stack([samples[n] for n in lad_n])
            rng = RngStream(seed, (Tag.THETA_BOOTSTRAP,)).generator()
            idx = rng.integers(0, 30, size=(500, len(lad_n), 30))
            meds = np.median(stacked[np.arange(len(lad_n))[:, None], idx],
                             axis=2)
            slopes = [line_fit(x, np.log(m))[0] for m in meds]
            assert out.theta_ci == (float(np.quantile(slopes, 0.025)),
                                    float(np.quantile(slopes, 0.975)))
            # each a_n's CI: the quantiles of the same round medians
            assert out.ci_lo.tolist() == [float(np.quantile(meds[:, i], 0.025))
                                          for i in range(len(lad_n))]
            assert out.ci_hi.tolist() == [float(np.quantile(meds[:, i], 0.975))
                                          for i in range(len(lad_n))]


def test_line_fit_matches_polyfit():
    from lrplab.scaling import line_fit
    rng = np.random.default_rng(5)
    for L in (2, 4, 7, 8, 33):
        x = np.log(16.0 * 2.0 ** np.arange(L))
        ys = 0.7 * x + 1.3 + rng.normal(0.0, 0.1, size=(20, L))
        ys[3] = 2.5                       # a constant row
        slopes, intercepts, r2s = line_fit(x, ys)
        assert slopes.shape == intercepts.shape == r2s.shape == (20,)
        for y, slope, intercept, r2 in zip(ys, slopes, intercepts, r2s):
            ref_slope, ref_intercept = np.polyfit(x, y, 1)
            assert slope == pytest.approx(ref_slope, rel=1e-12, abs=1e-12)
            assert intercept == pytest.approx(ref_intercept, rel=1e-12)
            # one row alone has the bits it has in the batch
            assert line_fit(x, y)[:2] == (slope, intercept)
            if np.ptp(y) == 0:
                assert np.isnan(r2) and np.isnan(line_fit(x, y)[2])
            else:
                resid = y - np.polyval([ref_slope, ref_intercept], x)
                ref_r2 = 1 - (resid ** 2).sum() / ((y - y.mean()) ** 2).sum()
                assert r2 == pytest.approx(ref_r2, rel=1e-12, abs=1e-12)
                assert line_fit(x, y)[2] == r2


def test_line_fit_constant_y_has_nan_r2():
    import warnings
    from lrplab.scaling import line_fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, intercept, r2 = line_fit([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(0.5)
    assert np.isnan(r2)


def test_fit_theta_rejects_short_ladder():
    lad = Ladder(n_values=(8, 16, 32), replicates=40)
    fit = estimate_medians(1, 1.0, lad, seed=9)
    with pytest.raises(ValueError):
        fit_theta(fit)


def test_ecdf_median_normalization():
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=41)
    fit = estimate_medians(1, 1.0, lad, seed=11)
    for n in lad.n_values:
        e = ecdf(fit, n)
        # at least half the rescaled sample sits at or below 1
        assert (e.values <= 1.0).mean() >= 0.5
        assert (np.diff(e.values) >= 0).all()
        assert (e.values >= 0).all()


def test_atom_trend_n1_mass_one():
    vals = np.ones(50)
    e = Ecdf(n=1, values=vals)
    assert max_atom(e) == 1.0


def test_atom_trend_requires_three():
    e = Ecdf(n=1, values=np.ones(5))
    with pytest.raises(ValueError):
        atom_trend([e, e])


def test_atom_resampling_consistency():
    # same n, two independent batches: atom masses within binomial 3 sigma
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=300)
    a1 = max_atom(ecdf(estimate_medians(1, 1.0, lad, seed=1), 32))
    a2 = max_atom(ecdf(estimate_medians(1, 1.0, lad, seed=2), 32))
    sigma = np.sqrt(a1 * (1 - a1) / 300 + a2 * (1 - a2) / 300)
    assert abs(a1 - a2) <= 3 * sigma


# geodesic multiplicity: the dim runner's uniqueness probe


def _dim_uniqueness(tmp_path, d, beta, n, geodesics, seed=3):
    run(parse_config({
        "kind": "dim", "seed": seed, "out": str(tmp_path / f"u{d}"),
        "model": {"d": d, "beta": beta},
        "params": {"n": n, "geodesics": geodesics, "scales": [1, 2],
                   "theta_source": "manual", "theta": 0.5}}))
    lines = (tmp_path / f"u{d}" / "uniqueness.csv").read_text().split()
    assert lines[0] == "r,geodesics,shared_edge_fraction,hausdorff_over_n"
    return [line.split(",") for line in lines[1:]]


def test_multiplicity_forced_single_path(tmp_path):
    # no long edges: the straight (diagonal) segment is the only
    # geodesic, so both draws are it
    for d in (1, 2):
        rows = _dim_uniqueness(tmp_path, d, 1e-13, 4, 3)
        assert rows == [[str(r), "1", "1", "0"] for r in range(3)]
        report(tmp_path / f"u{d}")
        assert ("unique geodesic fraction = 1 over 3 samples, median "
                "shared-edge fraction = 1") in (
            tmp_path / f"u{d}" / "summary.txt").read_text()


def test_multiplicity_axis_pair_two_geodesics():
    # d=2 without long edges, (0,0)->(2,0): two geodesics sharing no
    # edges, one lattice unit apart, so the two draws share all or none
    # of their edges with equal chance
    g = LrpGraph(config=ModelConfig(d=2, beta=1.0, n=3),
                 long_edges=np.empty((0, 2), dtype=np.int64))
    dag = geodesic_dag(g, int(g.index((0, 0))), int(g.index((2, 0))))
    rng = np.random.default_rng(4)
    pairs = [_geodesic_pair(g, dag, rng, 3)[1] for _ in range(200)]
    assert all(count == 2 for count, _, _ in pairs)
    for _, shared, hausdorff in pairs:
        assert shared in (0.0, 1.0)
        assert hausdorff == pytest.approx((1 - shared) / 3)
    mean_shared = np.mean([shared for _, shared, _ in pairs])
    assert abs(mean_shared - 0.5) <= 3 * 0.5 / np.sqrt(len(pairs))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hausdorff_matches_scipy_bit_for_bit(d):
    from scipy.spatial.distance import directed_hausdorff
    rng = np.random.default_rng(40 + d)
    for _ in range(200):
        # two integer walks with steps up to 40, started anywhere in the
        # 3n box of n = 2048
        a, b = (np.cumsum(rng.integers(-40, 41, size=(rng.integers(1, 60), d)),
                          axis=0) + rng.integers(0, 6144, size=d)
                for _ in range(2))
        assert _hausdorff(a, b) == max(directed_hausdorff(a, b)[0],
                                       directed_hausdorff(b, a)[0])


def test_multiplicity_counts_match_enumeration(tmp_path):
    n, seed = 16, 3
    rows = _dim_uniqueness(tmp_path, 1, 1.0, n, 8, seed)
    assert [int(row[0]) for row in rows] == list(range(8))
    checked = 0
    for row in rows:
        g = sample_graph(ModelConfig(d=1, beta=1.0, n=3 * n, seed=seed),
                         stream_id=(Tag.DIM_SAMPLE, int(row[0])))
        D = dijkstra_distance(g, n, 2 * n)
        paths = enumerate_geodesics(g, n, 2 * n, D)
        if paths is None:
            continue
        assert int(row[1]) == len(paths)
        assert 0.0 <= float(row[2]) <= 1.0 and float(row[3]) >= 0.0
        checked += 1
    assert checked >= 6


def test_sample_distances_parallel_matches_serial():
    a = sample_distances(1, 1.0, 32, 24, seed=6)
    with replicate_pool(3):
        b = sample_distances(1, 1.0, 32, 24, seed=6)
    assert np.array_equal(a, b)


def test_bootstrap_draws_differ_across_seeds(monkeypatch):
    # a ladder's one bootstrap stream is keyed by the run's seed: runs at
    # seeds 7 and 8 must not draw the same resamples
    from lrplab import scaling
    from lrplab.rng import RngStream
    used = []

    class Spy(RngStream):
        def generator(self):
            used.append(self)
            return super().generator()

    monkeypatch.setattr(scaling, "RngStream", Spy)
    lad = Ladder(n_values=(2, 3, 4, 5), replicates=30)
    draws = {}
    for seed in (7, 8):
        used.clear()
        fit_theta(estimate_medians(1, 1.0, lad, seed=seed))
        assert len(used) == 1
        draws[seed] = RngStream.generator(used[0]).integers(
            0, 30, size=(500, 4, 30))
    assert not np.array_equal(draws[7], draws[8])


def test_window_mass_trivial_and_monotone():
    e = Ecdf(n=8, values=np.sort(np.array(
        [0.5, 0.75, 1.0, 1.0, 1.25, 2.0])))
    assert window_mass(e, 1.0, 10.0) == 1.0
    assert window_mass(e, -5.0, 0.5) == 0.0
    masses = [window_mass(e, 1.0, eps) for eps in (0.1, 0.3, 0.8, 2.0)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_window_mass_open_interval():
    e = Ecdf(n=8, values=np.array([1.0, 2.0, 3.0]))
    # boundary atoms excluded: (1, 3) catches only the middle point
    assert window_mass(e, 2.0, 1.0) == pytest.approx(1 / 3)


def test_window_mass_additive_over_disjoint_windows():
    rng = np.random.default_rng(0)
    vals = np.sort(rng.integers(0, 40, 200) / 7.0)
    e = Ecdf(n=8, values=vals)
    # windows (0.45, 1.55) and (1.55, 2.65) vs their union, no atoms at
    # the shared endpoint or outer edges
    a = window_mass(e, 1.0, 0.55)
    b = window_mass(e, 2.1, 0.55)
    u = window_mass(e, 1.55, 1.1)
    atoms = set(np.round(vals, 9))
    assert not {0.45, 1.55, 2.65} & atoms
    assert a + b == pytest.approx(u)


@given(st.floats(0.1, 3.0), st.floats(0.01, 1.0))
@settings(max_examples=25)
def test_window_mass_bounds(a, eps):
    vals = np.sort(np.abs(np.sin(np.arange(57))))
    e = Ecdf(n=4, values=vals)
    m = window_mass(e, a, eps)
    assert 0.0 <= m <= 1.0
