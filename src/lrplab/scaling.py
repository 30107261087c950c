"""Monte Carlo scaling statistics for the chemical distance.

Estimates the distance exponent from medians a_n of d(0, n*1) over a
geometric ladder of box sizes, builds the rescaled-distance ECDF, and
probes the continuity of the limiting law through the trend of its
largest empirical atom.

Distances are measured between x = n*1 and y = 2n*1 inside a box of
side 3n, so both endpoints sit n away from every face; the residual
boundary effect is reported by re-measuring the smallest ladder point
in a 5n box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import ModelConfig, sample_graph
from .metric import distance
from .rng import RngStream, Tag


@dataclass(frozen=True)
class Ladder:
    """Geometric ladder of box sizes with a common replicate count."""

    n_values: tuple[int, ...]
    replicates: int

    def __post_init__(self):
        ns = self.n_values
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.replicates < 30:
            raise ValueError("need at least 30 replicates per ladder point")


@dataclass
class ScalingFit:
    """Medians a_n with bootstrap CIs, plus the fitted exponent."""

    d: int
    beta: float
    seed: int
    n_values: tuple[int, ...]
    replicates: int
    medians: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    samples: dict[int, np.ndarray]
    boundary_check: dict | None = None
    theta_hat: float | None = None
    r_squared: float | None = None
    theta_ci: tuple[float, float] | None = None


@dataclass
class Ecdf:
    """Sorted rescaled distances d(0, n*1) / a_n for one ladder point."""

    n: int
    a_n: float
    values: np.ndarray
    replicates: int


def _measure_distance(d: int, beta: float, n: int, seed: int,
                      stream, box_factor: int = 3) -> int:
    """d(x, x + n*1) in a centered box of side box_factor * n."""
    m = box_factor * n
    cfg = ModelConfig(d=d, beta=beta, n=m, seed=seed)
    g = sample_graph(cfg, stream_id=stream)
    x = g.index(tuple([n] * d))
    y = g.index(tuple([2 * n] * d))
    dist = distance(g, int(x), int(y))
    if dist is None:
        # lattice edges always connect the box, so this is a defect
        raise RuntimeError(f"no path from {int(x)} to {int(y)} in a "
                           f"{d}-dimensional box of side {m}")
    return dist


def _distance_job(args) -> tuple[int, int]:
    """A pool worker's distance and the generators it built, which the
    parent process's `RngStream.built` does not see."""
    before = RngStream.built
    return _measure_distance(*args), RngStream.built - before


def sample_distances(d: int, beta: float, n: int, replicates: int,
                     seed: int, box_factor: int = 3,
                     ladder_index: int = 0, jobs: int = 1) -> np.ndarray:
    """Replicate distances, keyed by (box_factor, ladder_index, r).

    With jobs > 1 the replicates run on a process pool; results are
    merged in replicate order, so outputs are identical to a serial
    run, and the workers' generator counts are added to this process's.
    """
    argses = [(d, beta, n, seed, (box_factor, ladder_index, r), box_factor)
              for r in range(replicates)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            jobs_out = list(pool.map(_distance_job, argses, chunksize=8))
        vals = [dist for dist, _ in jobs_out]
        RngStream.built += sum(built for _, built in jobs_out)
    else:
        vals = [_measure_distance(*a) for a in argses]
    return np.asarray(vals, dtype=np.int64)


def estimate_medians(d: int, beta: float, ladder: Ladder, seed: int,
                     boundary_probe: bool = True,
                     jobs: int = 1) -> ScalingFit:
    """Per-n empirical medians of d(0, n*1) with bootstrap 95% CIs."""
    medians, lo, hi = [], [], []
    samples = {}
    for ni, n in enumerate(ladder.n_values):
        dist = sample_distances(d, beta, n, ladder.replicates, seed,
                                ladder_index=ni, jobs=jobs)
        samples[n] = dist
        medians.append(float(np.median(dist)))
        blo, bhi = _bootstrap_median_ci(dist, seed, ni)
        lo.append(blo)
        hi.append(bhi)
    boundary = None
    if boundary_probe:
        n0 = ladder.n_values[0]
        wide = sample_distances(d, beta, n0, ladder.replicates, seed,
                                box_factor=5, ladder_index=0, jobs=jobs)
        boundary = {"n": n0, "median_3n": medians[0],
                    "median_5n": float(np.median(wide))}
    return ScalingFit(d=d, beta=beta, seed=seed,
                      n_values=tuple(ladder.n_values),
                      replicates=ladder.replicates,
                      medians=np.asarray(medians),
                      ci_lo=np.asarray(lo), ci_hi=np.asarray(hi),
                      samples=samples, boundary_check=boundary)


def _bootstrap_median_ci(values: np.ndarray, seed: int, ladder_index: int,
                         boots: int = 400,
                         level: float = 0.95) -> tuple[float, float]:
    rng = RngStream(seed, (Tag.MEDIAN_BOOTSTRAP, ladder_index)).generator()
    idx = rng.integers(0, len(values), size=(boots, len(values)))
    meds = np.median(values[idx], axis=1)
    alpha = (1 - level) / 2
    return (float(np.quantile(meds, alpha)),
            float(np.quantile(meds, 1 - alpha)))


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept: (slope, intercept, R^2).

    R^2 is nan when y is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - (resid ** 2).sum() / ss_tot if ss_tot > 0 else float("nan")
    return float(coef[0]), float(coef[1]), float(r2)


def fit_theta(fit: ScalingFit, boots: int = 500) -> ScalingFit:
    """Least-squares slope of log a_n against log n, bootstrap CI.

    The bootstrap resamples replicates within each ladder point and
    refits the slope.  Rejects degenerate ladders (fewer than 4 points
    or constant medians).
    """
    if len(fit.n_values) < 4:
        raise ValueError("need at least 4 ladder points")
    if np.allclose(fit.medians, fit.medians[0]):
        raise ValueError("degenerate ladder: constant medians")
    x = np.log(np.asarray(fit.n_values, dtype=float))
    slope, _, r2 = line_fit(x, np.log(fit.medians))
    samples = np.stack([fit.samples[n] for n in fit.n_values])
    L, R = samples.shape
    rng = RngStream(fit.seed, (Tag.THETA_BOOTSTRAP,)).generator()
    # draws what rng.choice(samples[l], R) would, round by round
    idx = rng.integers(0, R, size=(boots, L, R))
    meds = np.median(samples[np.arange(L)[:, None], idx], axis=2)
    # line_fit's solve alone, one right-hand side a round: one solve
    # with a column per round rounds some slopes apart in the last bit
    # once the ladder has 8 or more points
    A = np.vstack([x, np.ones_like(x)]).T
    slopes = np.array([np.linalg.lstsq(A, y, rcond=None)[0][0]
                       for y in np.log(meds)])
    ci = (float(np.quantile(slopes, 0.025)),
          float(np.quantile(slopes, 0.975)))
    return replace(fit, theta_hat=slope, r_squared=r2, theta_ci=ci)


def ecdf(fit: ScalingFit, n: int) -> Ecdf:
    values = np.sort(fit.samples[n] / np.median(fit.samples[n]))
    return Ecdf(n=n, a_n=float(np.median(fit.samples[n])), values=values,
                replicates=len(values))


def window_mass(e: Ecdf, a: float, eps: float) -> float:
    """Empirical mass of the open window (a - eps, a + eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo = np.searchsorted(e.values, a - eps, side="right")
    hi = np.searchsorted(e.values, a + eps, side="left")
    return (hi - lo) / len(e.values)


def max_atom(e: Ecdf) -> float:
    """Largest empirical point mass of the rescaled distance."""
    _, counts = np.unique(e.values, return_counts=True)
    return counts.max() / len(e.values)


def atom_trend(ecdfs: list[Ecdf]) -> tuple[np.ndarray, float, float]:
    """Per-n maximal atom masses and their Spearman trend statistic.

    A continuous limit law predicts the maximal atom shrinks along the
    ladder; returns (masses, rho, p_value) with rho over ladder order.
    """
    if len(ecdfs) < 3:
        raise ValueError("need at least 3 ladder points")
    masses = np.array([max_atom(e) for e in ecdfs])
    # imported here: scipy.stats takes ~0.8 s to import, and only
    # this p-value needs it
    from scipy import stats
    rho, p = stats.spearmanr(np.arange(len(masses)), masses)
    return masses, float(rho), float(p)
