"""Monte Carlo scaling statistics for the chemical distance.

Estimates the distance exponent from medians a_n of d(0, n*1) over a
geometric ladder of box sizes, builds the rescaled-distance ECDF, and
probes the continuity of the limiting law through the trend of its
largest empirical atom.  One bootstrap of `BOOTS` rounds over the
ladder's replicates gives both the CI of each a_n and the CI of the
exponent, and `line_fit` is the one least-squares line fit.

Distances are measured between a pair x, x + n*1 centred in a box of
side 3n, so both endpoints sit n away from every face; the residual
boundary effect is always reported, by re-measuring the smallest
ladder point in a 5n box, where the centred pair sits 2n from every
face.  Each point's replicates run through `graph.map_replicates`,
so an open `graph.replicate_pool` splits them over its processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .graph import ModelConfig, map_replicates
# also bound here, unused: the benchmark's probe self-test wraps this
# name in every lrplab module that holds it (perfbench/test_checks.py)
from .graph import sample_graph  # noqa: F401
from .metric import distance
from .rng import RngStream, Tag

BOOTS = 500     # bootstrap rounds of `fit_theta`
MIN_LADDER_POINTS = 4   # the fewest ladder points `fit_theta` fits


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
    """Medians a_n, plus the fitted exponent and the bootstrap CIs of
    both, which `fit_theta` fills in."""

    seed: int
    n_values: tuple[int, ...]
    replicates: int
    medians: np.ndarray
    samples: dict[int, np.ndarray]
    ci_lo: np.ndarray | None = None
    ci_hi: np.ndarray | None = None
    boundary_check: dict | None = None
    theta_hat: float | None = None
    r_squared: float | None = None
    theta_ci: tuple[float, float] | None = None


@dataclass
class Ecdf:
    """Sorted rescaled distances d(0, n*1) / a_n for one ladder point."""

    n: int
    values: np.ndarray


def centred_pair(graph, n: int) -> tuple[int, int]:
    """Sites x = c*1 and y = x + n*1 with c = (side - n) // 2, centred in
    `graph`'s box: c from the low faces, at least c from the high ones."""
    c, d = (graph.config.n - n) // 2, graph.config.d
    return int(graph.index((c,) * d)), int(graph.index((c + n,) * d))


def _distance(n: int, key, graph) -> int:
    """d(x, x + n*1) for the centred pair in `graph`'s box."""
    x, y = centred_pair(graph, n)
    dist = distance(graph, x, y)
    if dist is None:
        # lattice edges always connect the box, so this is a defect
        raise RuntimeError(f"no path from {x} to {y} in a "
                           f"{graph.config.d}-dimensional box of side "
                           f"{graph.config.n}")
    return dist


def sample_distances(d: int, beta: float, n: int, replicates: int,
                     seed: int, box_factor: int = 3,
                     ladder_index: int = 0) -> np.ndarray:
    """Replicate distances d(x, x + n*1) in a centered box of side
    box_factor * n, keyed by (box_factor, ladder_index, r)."""
    cfg = ModelConfig(d=d, beta=beta, n=box_factor * n, seed=seed)
    keys = [(box_factor, ladder_index, r) for r in range(replicates)]
    return np.asarray(map_replicates(cfg, keys, partial(_distance, n)),
                      dtype=np.int64)


def estimate_medians(d: int, beta: float, ladder: Ladder,
                     seed: int) -> ScalingFit:
    """Per-n empirical medians of d(0, n*1) and their replicates, and
    the boundary probe: the smallest n's median again in a 5n box.
    The CIs come from `fit_theta`'s bootstrap."""
    medians = []
    samples = {}
    for ni, n in enumerate(ladder.n_values):
        dist = sample_distances(d, beta, n, ladder.replicates, seed,
                                ladder_index=ni)
        samples[n] = dist
        medians.append(float(np.median(dist)))
    n0 = ladder.n_values[0]
    wide = sample_distances(d, beta, n0, ladder.replicates, seed, box_factor=5)
    return ScalingFit(seed=seed, n_values=tuple(ladder.n_values),
                      replicates=ladder.replicates,
                      medians=np.asarray(medians), samples=samples,
                      boundary_check={"n": n0, "median_3n": medians[0],
                                      "median_5n": float(np.median(wide))})


def line_fit(x, y):
    """Least-squares line y = slope * x + intercept: (slope, intercept, R^2).

    A 2-D y fits one line per row and gives three arrays.  The closed
    form sums centred products row by row, with no BLAS call, so a row
    has the same bits whether it is fitted alone or in a batch.  R^2 is
    nan where y is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    y_mean = y.mean(axis=-1)
    yc = y - y_mean[..., None]
    slope = (yc * xc).sum(axis=-1) / (xc * xc).sum()
    intercept = y_mean - slope * x.mean()
    ss_tot = (yc * yc).sum(axis=-1)
    ss_res = ((yc - slope[..., None] * xc) ** 2).sum(axis=-1)
    r2 = 1.0 - ss_res / np.where(ss_tot > 0, ss_tot, np.nan)
    if y.ndim == 1:
        return float(slope), float(intercept), float(r2)
    return slope, intercept, r2


def fit_theta(fit: ScalingFit) -> ScalingFit:
    """Least-squares slope of log a_n against log n, with bootstrap 95%
    CIs of the slope and of each a_n.

    Each of the `BOOTS` bootstrap rounds resamples the replicates within
    every ladder point and takes their medians: the 2.5% and 97.5%
    quantiles of a point's round medians are its CI, and one batched
    `line_fit` over the rounds gives the slopes whose quantiles are the
    slope's CI.  Rejects degenerate ladders (fewer than 4 points or
    constant medians).
    """
    if len(fit.n_values) < MIN_LADDER_POINTS:
        raise ValueError(f"need at least {MIN_LADDER_POINTS} ladder points")
    if np.allclose(fit.medians, fit.medians[0]):
        raise ValueError("degenerate ladder: constant medians")
    x = np.log(np.asarray(fit.n_values, dtype=float))
    slope, _, r2 = line_fit(x, np.log(fit.medians))
    samples = np.stack([fit.samples[n] for n in fit.n_values])
    L, R = samples.shape
    rng = RngStream(fit.seed, (Tag.THETA_BOOTSTRAP,)).generator()
    # draws what rng.choice(samples[l], R) would, round by round
    idx = rng.integers(0, R, size=(BOOTS, L, R))
    meds = np.median(samples[np.arange(L)[:, None], idx], axis=2)
    slopes = line_fit(x, np.log(meds))[0]
    ci = (float(np.quantile(slopes, 0.025)),
          float(np.quantile(slopes, 0.975)))
    return replace(fit, theta_hat=slope, r_squared=r2, theta_ci=ci,
                   ci_lo=np.quantile(meds, 0.025, axis=0),
                   ci_hi=np.quantile(meds, 0.975, axis=0))


def ecdf(fit: ScalingFit, n: int) -> Ecdf:
    return Ecdf(n=n, values=np.sort(fit.samples[n]
                                    / np.median(fit.samples[n])))


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
