import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab.graph import ModelConfig, sample_graph
from lrplab.rng import Tag
from lrplab.scaling import (Ecdf, Ladder, atom_trend, ecdf, estimate_medians,
                            fit_theta, max_atom, multiplicity_stats,
                            sample_distances, window_mass)

from oracles import enumerate_geodesics, dijkstra_distance


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
    fit = ScalingFit(d=1, beta=1.0, seed=0, n_values=lad_n, replicates=50,
                     medians=np.array([n ** 0.7 for n in lad_n]),
                     ci_lo=np.zeros(5), ci_hi=np.zeros(5), samples=samples)
    out = fit_theta(fit)
    assert out.theta_hat == pytest.approx(0.7, abs=1e-12)
    assert out.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_theta_linear_is_one():
    lad_n = (8, 16, 32, 64)
    from lrplab.scaling import ScalingFit
    meds = np.array([3.0 * n for n in lad_n])
    fit = ScalingFit(d=1, beta=1.0, seed=0, n_values=lad_n, replicates=50,
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
    from lrplab.scaling import line_fit
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=40)
    fit = estimate_medians(1, 1.0, lad, seed=9, boundary_probe=False)
    out = fit_theta(fit, boots=200)
    x = np.log(np.asarray(lad.n_values, dtype=float))
    rng = RngStream(fit.seed, (Tag.THETA_BOOTSTRAP,)).generator()
    slopes = [line_fit(x, np.log([np.median(rng.choice(
        fit.samples[n], size=40, replace=True)) for n in lad.n_values]))[0]
        for _ in range(200)]
    assert out.theta_ci == (float(np.quantile(slopes, 0.025)),
                            float(np.quantile(slopes, 0.975)))


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
        assert e.mass_at_or_below(1.0) >= 0.5
        assert (np.diff(e.values) >= 0).all()
        assert (e.values >= 0).all()


def test_window_mass_trivial_and_monotone():
    e = Ecdf(n=8, a_n=2.0, values=np.sort(np.array(
        [0.5, 0.75, 1.0, 1.0, 1.25, 2.0])), replicates=6)
    assert window_mass(e, 1.0, 10.0) == 1.0
    assert window_mass(e, -5.0, 0.5) == 0.0
    masses = [window_mass(e, 1.0, eps) for eps in (0.1, 0.3, 0.8, 2.0)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_window_mass_open_interval():
    e = Ecdf(n=8, a_n=1.0, values=np.array([1.0, 2.0, 3.0]), replicates=3)
    # boundary atoms excluded: (1, 3) catches only the middle point
    assert window_mass(e, 2.0, 1.0) == pytest.approx(1 / 3)


def test_window_mass_additive_over_disjoint_windows():
    rng = np.random.default_rng(0)
    vals = np.sort(rng.integers(0, 40, 200) / 7.0)
    e = Ecdf(n=8, a_n=1.0, values=vals, replicates=200)
    # windows (0.45, 1.55) and (1.55, 2.65) vs their union, no atoms at
    # the shared endpoint or outer edges
    a = window_mass(e, 1.0, 0.55)
    b = window_mass(e, 2.1, 0.55)
    u = window_mass(e, 1.55, 1.1)
    atoms = set(np.round(vals, 9))
    assert not {0.45, 1.55, 2.65} & atoms
    assert a + b == pytest.approx(u)


def test_atom_trend_n1_mass_one():
    vals = np.ones(50)
    e = Ecdf(n=1, a_n=1.0, values=vals, replicates=50)
    assert max_atom(e) == 1.0


def test_atom_trend_requires_three():
    e = Ecdf(n=1, a_n=1.0, values=np.ones(5), replicates=5)
    with pytest.raises(ValueError):
        atom_trend([e, e])


def test_atom_resampling_consistency():
    # same n, two independent batches: atom masses within binomial 3 sigma
    lad = Ladder(n_values=(8, 16, 32, 64), replicates=300)
    a1 = max_atom(ecdf(estimate_medians(1, 1.0, lad, seed=1,
                                        boundary_probe=False), 32))
    a2 = max_atom(ecdf(estimate_medians(1, 1.0, lad, seed=2,
                                        boundary_probe=False), 32))
    sigma = np.sqrt(a1 * (1 - a1) / 300 + a2 * (1 - a2) / 300)
    assert abs(a1 - a2) <= 3 * sigma


def test_multiplicity_forced_single_path():
    # no long edges: the unique geodesic is the lattice segment
    stats = multiplicity_stats(1, 1e-13, 16, [((0,), (15,))],
                               replicates=5, seed=3)
    assert (stats.counts == 1).all()
    assert stats.fraction_unique == 1.0
    assert stats.median_overlap == 1.0


def test_multiplicity_axis_pair_two_geodesics():
    # d=2 without long edges, (0,0)->(2,0): two geodesics sharing no
    # edges, so overlap is 0 or 1 with equal chance
    stats = multiplicity_stats(2, 1e-13, 3, [((0, 0), (2, 0))],
                               replicates=200, seed=4)
    assert (stats.counts == 2).all()
    mean_overlap = stats.overlaps.mean()
    sigma = 0.5 / np.sqrt(len(stats.overlaps))
    assert abs(mean_overlap - 0.5) <= 3 * sigma


def test_multiplicity_counts_match_enumeration():
    checked = 0
    for seed in range(10):
        cfg = ModelConfig(d=1, beta=1.0, n=64, seed=seed)
        g = sample_graph(cfg, stream_id=(Tag.MULTIPLICITY_SAMPLE, 0))
        x, y = 5, 40
        D = dijkstra_distance(g, x, y)
        paths = enumerate_geodesics(g, x, y, D)
        if paths is None or len(paths) > 10 ** 4:
            continue
        stats = multiplicity_stats(1, 1.0, 64, [((x,), (y,))],
                                   replicates=1, seed=seed)
        assert stats.counts[0] == len(paths)
        checked += 1
    assert checked >= 4


@given(st.floats(0.1, 3.0), st.floats(0.01, 1.0))
@settings(max_examples=25)
def test_window_mass_bounds(a, eps):
    vals = np.sort(np.abs(np.sin(np.arange(57))))
    e = Ecdf(n=4, a_n=1.0, values=vals, replicates=57)
    m = window_mass(e, a, eps)
    assert 0.0 <= m <= 1.0


def test_sample_distances_parallel_matches_serial():
    a = sample_distances(1, 1.0, 32, 24, seed=6, jobs=1)
    b = sample_distances(1, 1.0, 32, 24, seed=6, jobs=3)
    assert np.array_equal(a, b)


def test_bootstrap_draws_differ_across_seeds(monkeypatch):
    # ladder point ni of a run at seed s must not reuse the bootstrap
    # draws of point ni - 1 at seed s + 1
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
        estimate_medians(1, 1.0, lad, seed=seed, boundary_probe=False)
        draws[seed] = [RngStream.generator(s).integers(0, 30, 30).tolist()
                       for s in list(used)]
    assert len(draws[7]) == len(draws[8]) == 4
    for ni in range(1, 4):
        assert draws[7][ni] != draws[8][ni - 1]
        assert draws[7][ni] != draws[7][ni - 1]
