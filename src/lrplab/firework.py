"""Annulus scale ladder, crossing probabilities, and the firework process.

The ladder turns a window width eps into K = ceil(sqrt(log(1/eps)))
annuli of geometrically growing widths M_i = N M_{i-1} with
M_1 = (4 eps / c1)^(1/theta) and N chosen so the ladder's total span
stays inside the unit ball.  Crossing events of interest are

  A_i:  a long edge from B_{r_{i-1}} past radius r_{i-1} + M_i/8;
  E_i:  a long edge from B_{r_i - M_i/8} past radius r_i,

both with exact closed-form probabilities (contgeom).

The firework process drives the joint law of the E_i indicators: sites
0..k spread independently drawn reaches L_l, covered sites form the
interval [0, reach], and the all-covered probability decays
geometrically in k.  A continuum edge-process sampler (d=1) draws the
exact joint law of the E_i indicator vector xi so the domination
P[xi restricted to S all zero] <= P[matched firework covers |S| sites]
can be checked empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contgeom as cg
from .scaling import line_fit

# ---------------------------------------------------------------------------
# scale ladder


@dataclass(frozen=True)
class AnnulusLadder:
    eps: float
    theta: float
    c_star1: float
    K: int
    N: float
    M: np.ndarray
    r: np.ndarray           # r[0] = 0, r[i] = sum of M[1..i]
    delta_max: float

    def annulus_inner_radius(self, i: int) -> float:
        """r_{i-1} + M_i/8, the outer radius of the A_i gap."""
        return float(self.r[i - 1] + self.M[i] / 8.0)

    def shell_inner_radius(self, i: int) -> float:
        """r_i - M_i/8, the inner radius of the E_i shell."""
        return float(self.r[i] - self.M[i] / 8.0)


def build_ladder(eps: float, theta: float, c_star1: float) -> AnnulusLadder:
    """Construct the (K, N, M, r) ladder; rejects eps too large.

    Checks N >= 2 and sum(M) <= 1 explicitly, naming the violated
    condition.  Also returns delta_max, the largest cube fraction with
    4 delta^(theta/2) <= c_star1.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    if c_star1 <= 0:
        raise ValueError("c_star1 must be positive")
    K = max(1, math.ceil(math.sqrt(math.log(1.0 / eps))))
    N = (4.0 ** -(1.0 + 1.0 / theta)
         * (c_star1 / eps) ** (1.0 / theta)) ** (1.0 / K)
    M = np.zeros(K + 1)
    M[1] = (4.0 * eps / c_star1) ** (1.0 / theta)
    for i in range(2, K + 1):
        M[i] = N * M[i - 1]
    r = np.cumsum(M)
    if N < 2:
        raise ValueError(f"eps too large: ladder ratio N = {N:.6g} < 2")
    if r[-1] > 1:
        raise ValueError(
            f"eps too large: ladder span sum(M) = {r[-1]:.6g} > 1")
    return AnnulusLadder(eps=eps, theta=theta, c_star1=c_star1, K=K, N=N,
                         M=M, r=r, delta_max=(c_star1 / 4.0) ** (2.0 / theta))


# ---------------------------------------------------------------------------
# crossing probabilities


@dataclass
class CrossingProbs:
    p_gap: np.ndarray        # P[A_i], index 1..K
    p_shell: np.ndarray      # P[E_i], index 1..K


def compute_crossing_probs(ladder: AnnulusLadder,
                           beta: float) -> CrossingProbs:
    """The exact d=1 probabilities of the ladder's A_i and E_i."""
    K = ladder.K
    p_gap = np.zeros(K + 1)
    p_shell = np.zeros(K + 1)
    for i in range(1, K + 1):
        a = float(ladder.r[i - 1])
        if a > 0:
            p_gap[i] = cg.crossing_probability(
                1, (0.0, a), (ladder.annulus_inner_radius(i), cg.INF), beta)
        p_shell[i] = cg.crossing_probability(
            1, (0.0, ladder.shell_inner_radius(i)),
            (float(ladder.r[i]), cg.INF), beta)
    return CrossingProbs(p_gap=p_gap[1:], p_shell=p_shell[1:])


def jump_scaling_sweep(ratios, beta: float, d: int):
    """(log ratio, log P) points and fitted slope of the annulus jump.

    P is the probability of a long edge from B_1(0) past radius
    `ratio` (> 1), the scaling variable of the gap-crossing bound:
    jumping an annulus whose outer/inner radius ratio is N has
    probability of order N^(-d).
    """
    x = np.log(np.asarray(ratios, dtype=float))
    y = np.log([cg.crossing_probability(d, (0.0, 1.0), (float(r), cg.INF),
                                        beta) for r in ratios])
    slope, _, r2 = line_fit(x, y)
    return x, y, slope, r2


# ---------------------------------------------------------------------------
# firework process


STEP_MAX = 64       # the default step law's table ends at this step


def default_step_cdf(c2: float) -> np.ndarray:
    """alpha(s) = exp(-c2 / (1/8 + 2^s)) for s = 0..STEP_MAX."""
    s = np.arange(STEP_MAX + 1)
    return np.exp(-c2 / (0.125 + 2.0 ** s))


@dataclass
class FireworkModel:
    """k spreading sites with a common integer step law.

    `step_cdf` is the table alpha(s) = P[L <= s] for s = 0..len-1,
    nondecreasing with a final value of (numerically) 1.
    """

    k: int
    step_cdf: np.ndarray

    def __post_init__(self):
        cdf = np.asarray(self.step_cdf, dtype=float)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if (np.diff(cdf) < -1e-12).any():
            raise ValueError("step_cdf must be nondecreasing")
        if cdf[-1] < 1.0 - 1e-9:
            raise ValueError("step_cdf must reach 1")
        object.__setattr__(self, "step_cdf", cdf)

    @classmethod
    def default(cls, k: int, c2: float = 1.0) -> "FireworkModel":
        return cls(k=k, step_cdf=default_step_cdf(c2))


def _sample_steps(cdf: np.ndarray, rng, shape) -> np.ndarray:
    u = rng.random(shape)
    return np.searchsorted(cdf, u, side="left")


def _reaches_from_steps(L: np.ndarray) -> np.ndarray:
    """Coverage reach per run: first fixed point of the step cummax.

    Covered sites always form an interval [0, R]; R is the first index
    j with max_{l <= j} (l + L_l) <= j, or k if none.
    """
    runs, k = L.shape
    idx = np.arange(k)
    cummax = np.maximum.accumulate(idx + L, axis=1)
    stuck = cummax <= idx
    has = stuck.any(axis=1)
    first = np.argmax(stuck, axis=1)
    return np.where(has, first, k)


@dataclass
class ReachSample:
    reaches: np.ndarray


def simulate_firework(model: FireworkModel, rng: np.random.Generator,
                      runs: int = 1) -> ReachSample:
    """Draw step vectors and spread; reach >= k means all sites covered."""
    L = _sample_steps(model.step_cdf, rng, (runs, model.k))
    return ReachSample(reaches=_reaches_from_steps(L))


@dataclass
class ReachTail:
    ks: np.ndarray
    tail: np.ndarray
    kappa_hat: float
    r_squared: float


def reach_tail(model: FireworkModel, ks, runs: int,
               rng: np.random.Generator) -> ReachTail:
    """Empirical P[reach >= k] over one batch of runs, with a log fit.

    One simulation at k_max serves every k: whether the first k sites
    are all covered depends only on L_0..L_{k-1}.  The geometric fit
    uses the k with tail estimates >= 10/runs.
    """
    ks = np.asarray(sorted(ks), dtype=int)
    kmax = int(ks.max())
    if kmax > model.k:
        raise ValueError("requested k beyond the model size")
    R = simulate_firework(FireworkModel(k=kmax, step_cdf=model.step_cdf),
                          rng, runs).reaches
    tail = np.array([(R >= k).mean() for k in ks])
    usable = tail >= 10.0 / runs
    if usable.sum() >= 2:
        slope, _, r2 = line_fit(ks[usable], np.log(tail[usable]))
        kappa = math.exp(slope)
    else:
        kappa, r2 = float("nan"), float("nan")
    return ReachTail(ks=ks, tail=tail, kappa_hat=kappa, r_squared=r2)


# ---------------------------------------------------------------------------
# exact joint sampling of the shell-crossing indicator vector (d=1)


@dataclass
class XiSample:
    """Joint samples of xi_i = 1{no edge crosses shell i}, with diagnostics.

    xi is (runs, K); lambda_exact[i] is the exact Poisson mean of the
    crossing count for shell i+1, so P[xi_i = 1] = exp(-lambda_exact[i])
    exactly.
    """

    xi: np.ndarray
    lambda_exact: np.ndarray
    runs: int

    def marginal_zero_rate(self) -> np.ndarray:
        return 1.0 - self.xi.mean(axis=0)


MIN_RESOLUTION = 8      # the fewest cells per shell `simulate_xi_vector` takes


def simulate_xi_vector(ladder: AnnulusLadder, beta: float, resolution: int,
                       rng: np.random.Generator, runs: int = 1) -> XiSample:
    """Sample the d=1 continuum edge process on the shells of the ladder.

    The line is cut at every shell radius r_i - M_i/8 and r_i; each
    finite shell splits into `resolution` cells, the outside into a
    single analytic tail.  Independent Poisson counts per separated
    cell pair (exact closed-form means) reproduce the joint law of all
    shell-crossing indicators, including the dependence induced by
    edges crossing several shells at once.
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution too coarse: each shell needs >= "
                         f"{MIN_RESOLUTION} cells")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    K = ladder.K
    bounds = [0.0]
    for i in range(1, K + 1):
        bounds.append(ladder.shell_inner_radius(i))
        bounds.append(float(ladder.r[i]))
    if any(b >= a for b, a in zip(bounds[1:], bounds[2:])):
        raise ValueError("degenerate ladder shells")
    # cells: subdivide each finite shell; one unbounded tail cell
    cells = []          # (lo, hi) radial, hi may be inf
    shell_of = []       # index of the enclosing shell (1-based, tail = len)
    for si in range(1, len(bounds)):
        lo, hi = bounds[si - 1], bounds[si]
        edges = np.linspace(lo, hi, resolution + 1)
        for c in range(resolution):
            cells.append((float(edges[c]), float(edges[c + 1])))
            shell_of.append(si)
    cells.append((bounds[-1], math.inf))
    shell_of.append(len(bounds))
    shell_of = np.asarray(shell_of)

    # shell index bookkeeping: shell 2i-1 ends at r_i - M_i/8, shell 2i
    # ends at r_i; xi_i counts pairs (a-cell in shells <= 2i-1,
    # b-cell in shells >= 2i+1)
    lam, pair_masks = [], []
    for ai in range(len(cells)):
        for bi in range(ai + 1, len(cells)):
            relevant = [shell_of[ai] <= 2 * i - 1 and shell_of[bi] >= 2 * i + 1
                        for i in range(1, K + 1)]
            if not any(relevant):
                continue
            lam.append(beta * cg.radial_pair_integral(1, cells[ai],
                                                      cells[bi]))
            pair_masks.append(relevant)
    lam = np.asarray(lam)
    pair_masks = np.asarray(pair_masks, dtype=bool)   # (npairs, K)
    lam_exact = (lam[:, None] * pair_masks).sum(axis=0)

    lam_tot = lam.sum()
    n_edges = rng.poisson(lam_tot, size=runs)
    total = int(n_edges.sum())
    crossed = np.zeros((runs, K), dtype=np.int64)
    if total and lam_tot > 0:
        cats = rng.choice(len(lam), size=total, p=lam / lam_tot)
        run_of = np.repeat(np.arange(runs), n_edges)
        np.add.at(crossed, run_of, pair_masks[cats].astype(np.int64))
    xi = (crossed == 0)
    return XiSample(xi=xi, lambda_exact=lam_exact, runs=runs)


# ---------------------------------------------------------------------------
# coupling of xi against the matched firework


SIGMA_FACTOR = 3.0  # coupling_checks' allowance, in standard errors


@dataclass
class CouplingCheck:
    subset: tuple[int, ...]
    w_empirical: float
    fw_tail: float
    sigma: float
    holds: bool


def matched_step_cdfs(ladder: AnnulusLadder, beta: float,
                      subset) -> list[np.ndarray]:
    """Exact step laws of the spreading sites for an index subset.

    Site l of the firework sits on the annulus between consecutive
    shell inner radii of the subset; its reach L_l is the largest s
    with an edge from that annulus past radius r_{i_{l+s}}, so
    P[L_l >= s] = 1 - exp(-beta * I(annulus_l, beyond)).  L_l is
    capped at k - l (sites beyond the last shell are irrelevant).
    """
    S = sorted(subset)
    k = len(S)
    cdfs = []
    for l in range(k):
        inner = (ladder.shell_inner_radius(S[l - 1]) if l else 0.0,
                 ladder.shell_inner_radius(S[l]))
        cap = k - l
        tail = np.zeros(cap + 2)
        for s in range(1, cap + 1):
            tail[s] = cg.crossing_probability(
                1, inner, (float(ladder.r[S[l + s - 1]]), cg.INF), beta)
        cdfs.append(np.maximum.accumulate(np.append(1.0 - tail[1:], 1.0)))
    return cdfs


def firework_cover_tail(ladder: AnnulusLadder, beta: float, subset,
                        runs: int, rng: np.random.Generator) -> float:
    """Empirical P[matched firework covers all |subset| sites]."""
    cdfs = matched_step_cdfs(ladder, beta, subset)
    L = np.stack([_sample_steps(cdf, rng, runs) for cdf in cdfs], axis=1)
    return float((_reaches_from_steps(L) >= len(cdfs)).mean())


def coupling_checks(ladder: AnnulusLadder, beta: float, xi: XiSample,
                    runs_fw: int, rng: np.random.Generator,
                    max_size: int | None = None) -> list[CouplingCheck]:
    """w_S = P[xi zero on S] against the matched firework cover tail.

    Checks w_S <= tail + SIGMA_FACTOR * sigma for every nonempty subset
    S of the shells, in the order of its bit mask, with at most
    `max_size` members when that is given; sigma combines both binomial
    errors.
    """
    K = ladder.K
    subsets = [tuple(i + 1 for i in range(K) if mask >> i & 1)
               for mask in range(1, 1 << K)]
    if max_size is not None:
        subsets = [S for S in subsets if len(S) <= max_size]
    out = []
    for S in subsets:
        cols = [i - 1 for i in S]
        w = float((xi.xi[:, cols] == 0).all(axis=1).mean())
        tail = firework_cover_tail(ladder, beta, S, runs_fw, rng)
        sigma = math.sqrt(w * (1 - w) / xi.runs
                          + tail * (1 - tail) / runs_fw + 1e-12)
        out.append(CouplingCheck(subset=tuple(S), w_empirical=w,
                                 fw_tail=tail, sigma=sigma,
                                 holds=w <= tail + SIGMA_FACTOR * sigma))
    return out
