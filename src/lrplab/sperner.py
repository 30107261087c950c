"""Exact combinatorics for blocking-witness (generalized Sperner) families.

A family F of subsets of [1, n] is Sperner when every member A admits a
large blocking witness on one side:

  upward:   some B in complement(A) with |B| >= n/2 such that every
            superset of A intersecting B is a non-member;
  downward: some B' inside A with |B'| >= n/2 such that every subset
            of A missing part of B' is a non-member.

Both conditions are monotone in the witness, so existence reduces to a
size test on the maximal witness: B* = complement of A and of every
member-superset's extra part; B'* = intersection of the member-subsets
of A.  Size comparisons |B| >= n/2 are exact rational comparisons
(2|B| >= n), and the LYM/probability arithmetic is exact integer or
Fraction work throughout.  Ground sets are capped at n = 24 to keep
bitmask enumeration exact and fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

N_CAP = 24
# the kinds `generate_family` draws
GENERATORS = ("antichain-low", "greedy-maximal", "random-levels")


@dataclass(frozen=True)
class SetFamily:
    """Subsets of [1, n] as bitmasks (bit b = element b+1), deduplicated."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.n <= N_CAP):
            raise ValueError(f"ground-set size must be in [1, {N_CAP}]")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members")
        if any(not (0 <= m < (1 << self.n)) for m in self.members):
            raise ValueError("member outside the ground set")

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        masks = []
        for s in sets:
            mask = 0
            for el in s:
                if not (1 <= el <= n):
                    raise ValueError(f"element {el} outside [1, {n}]")
                mask |= 1 << (el - 1)
            masks.append(mask)
        return cls(n=n, members=tuple(dict.fromkeys(masks)))

    def to_sets(self) -> list[tuple[int, ...]]:
        return [tuple(b + 1 for b in range(self.n) if m >> b & 1)
                for m in self.members]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def level_profile(self) -> np.ndarray:
        """a_k = number of members of size k, k = 0..n."""
        a = np.zeros(self.n + 1, dtype=np.int64)
        for m in self.members:
            a[m.bit_count()] += 1
        return a


@dataclass(frozen=True)
class MemberClass:
    member: int
    upward: bool
    downward: bool
    up_witness: int
    down_witness: int

    @property
    def unstable(self) -> bool:
        return self.upward or self.downward


@dataclass
class SpernerReport:
    classifications: list[MemberClass]
    is_sperner: bool


def classify_member(family: SetFamily, A: int) -> MemberClass:
    """Classify one member through its maximal witnesses.

    The upward witness must avoid every member-superset's extra part;
    the downward witness must lie inside every member-subset.  Any
    valid witness is contained in the maximal one, so the size test on
    the maximal witness decides existence.
    """
    if A not in family.members:
        raise ValueError("A is not a member of the family")
    n = family.n
    blocked = 0
    down_core = family.full_mask
    for Ap in family.members:
        if Ap & A == A:      # Ap is a superset of A (A itself adds nothing)
            blocked |= Ap & ~A
        if Ap | A == A:      # Ap is a subset of A
            down_core &= Ap
    up_witness = family.full_mask & ~A & ~blocked
    upward = 2 * up_witness.bit_count() >= n
    downward = 2 * down_core.bit_count() >= n
    return MemberClass(member=A, upward=upward, downward=downward,
                       up_witness=up_witness, down_witness=down_core)


def is_sperner_family(family: SetFamily) -> SpernerReport:
    """Every member must be upward- or downward-unstable."""
    cls = [classify_member(family, A) for A in family.members]
    return SpernerReport(classifications=cls,
                         is_sperner=all(c.unstable for c in cls))


def lym_sum(family: SetFamily) -> Fraction:
    """Exact rational sum of a_k / C(n, k) over the level profile."""
    total = Fraction(0)
    for k, a_k in enumerate(family.level_profile()):
        if a_k:
            total += Fraction(int(a_k), math.comb(family.n, k))
    return total


def event_probability(family: SetFamily, p: Fraction) -> Fraction:
    """Exact P[realization of n iid Bernoulli(p) bits lies in the family].

    Computed as an integer sum over a common denominator: with
    p = a/b, each member of size k contributes a^k (b-a)^(n-k) / b^n.
    """
    p = Fraction(p)
    if not (0 < p < 1):
        raise ValueError("p must be strictly between 0 and 1")
    a, b = p.numerator, p.denominator
    n = family.n
    numer = 0
    for m in family.members:
        k = m.bit_count()
        numer += a ** k * (b - a) ** (n - k)
    return Fraction(numer, b ** n)


@dataclass
class BoundChain:
    """Exact links of the probability bound through the LYM sum."""

    n: int
    p: Fraction
    event_prob: Fraction
    central_index: int
    central_term: Fraction
    lym: Fraction
    link_event_le_central_times_lym: bool
    link_lym_le_4: bool
    link_event_le_4central: bool
    scaled_prob: float       # event_prob * sqrt(n)
    scaled_bound: float      # 4 * sqrt(n) * central_term

    @property
    def holds(self) -> bool:
        return (self.link_event_le_central_times_lym and self.link_lym_le_4
                and self.link_event_le_4central)


def central_binomial_term(n: int, p: Fraction) -> tuple[int, Fraction]:
    """(m, C(n,m) p^m (1-p)^(n-m)) maximized over m; m = floor/ceil(pn)."""
    p = Fraction(p)
    lo = math.floor(p * n)
    hi = math.ceil(p * n)
    best_m, best = lo, _binom_term(n, lo, p)
    if hi != lo:
        alt = _binom_term(n, hi, p)
        if alt > best:
            best_m, best = hi, alt
    # the maximizer over all k is attained at floor/ceil of pn
    return best_m, best


def _binom_term(n: int, k: int, p: Fraction) -> Fraction:
    return math.comb(n, k) * p ** k * (1 - p) ** (n - k)


def sperner_bound_check(family: SetFamily, p: Fraction) -> BoundChain:
    """Verify the exact chain P <= central * LYM <= 4 * central.

    Refuses families that fail the Sperner test (the LYM <= 4 link has
    no guarantee there).  All comparisons are exact rationals; the
    sqrt(n)-scaled values are reported as floats for trend reading.
    """
    report = is_sperner_family(family)
    if not report.is_sperner:
        raise ValueError("family is not Sperner; bound chain not applicable")
    p = Fraction(p)
    n = family.n
    prob = event_probability(family, p)
    m, central = central_binomial_term(n, p)
    lym = lym_sum(family)
    return BoundChain(
        n=n, p=p, event_prob=prob, central_index=m, central_term=central,
        lym=lym,
        link_event_le_central_times_lym=prob <= central * lym,
        link_lym_le_4=lym <= 4,
        link_event_le_4central=prob <= 4 * central,
        scaled_prob=float(prob) * math.sqrt(n),
        scaled_bound=4.0 * math.sqrt(n) * float(central),
    )


def log_central_term(n: int, p: float) -> float:
    """log of max_k C(n,k) p^k (1-p)^(n-k) via lgamma, for large n."""
    m = int(round(p * n))
    best = -math.inf
    for k in {max(0, m - 1), m, min(n, m + 1)}:
        val = (math.lgamma(n + 1) - math.lgamma(k + 1)
               - math.lgamma(n - k + 1) + k * math.log(p)
               + (n - k) * math.log1p(-p))
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# generators


def generate_family(kind: str, n: int, rng: np.random.Generator,
                    target_size: int | None = None) -> SetFamily:
    """Random family generators used as test inputs.

    antichain-low: random antichain with member sizes <= n/2 (upward-
    unstable by construction).  greedy-maximal: admit random candidates
    while the family still passes the Sperner test.  random-levels:
    candidates from two adjacent levels, greedily filtered the same way.
    """
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind: {kind}")
    if n > N_CAP:
        raise ValueError(f"n must be <= {N_CAP}")
    if target_size is None:
        target_size = max(3, n)
    if kind == "antichain-low":
        return _antichain_low(n, rng, target_size)
    if kind == "greedy-maximal":
        return _greedy(n, rng, target_size, levels=None)
    base = int(rng.integers(0, n))      # random-levels
    return _greedy(n, rng, target_size, levels=(base, min(base + 1, n)))


def _random_mask_of_size(n: int, size: int, rng) -> int:
    mask = 0
    for b in rng.choice(n, size=size, replace=False):
        mask |= 1 << int(b)
    return mask


def _antichain_low(n: int, rng, target: int) -> SetFamily:
    members: list[int] = []
    for _ in range(8 * target):
        size = int(rng.integers(0, n // 2 + 1))
        cand = _random_mask_of_size(n, size, rng)
        if any(m & cand in (m, cand) for m in members):
            continue  # comparable with an existing member
        members.append(cand)
        if len(members) >= target:
            break
    return SetFamily(n=n, members=tuple(members))


def _greedy(n: int, rng, target: int, levels) -> SetFamily:
    """Admit each candidate whose family still passes the Sperner test.

    The family admitted so far is Sperner, and a member's class depends
    only on the members comparable with it, so adding a candidate can
    change only its own class and those of the members comparable with
    it: only these are classified.
    """
    members: list[int] = []
    for _ in range(8 * target):
        if levels is None:
            size = int(rng.integers(0, n + 1))
        else:
            size = int(rng.choice(levels))
        cand = _random_mask_of_size(n, size, rng)
        if cand in members:
            continue
        trial = SetFamily(n=n, members=tuple(members + [cand]))
        if all(classify_member(trial, A).unstable for A in trial.members
               if A & cand in (A, cand)):
            members.append(cand)
        if len(members) >= target:
            break
    return SetFamily(n=n, members=tuple(members))


# ---------------------------------------------------------------------------
# family file format


def save_family(family: SetFamily, path) -> None:
    """First line 'n=<int>', one comma-separated subset per line."""
    with open(path, "w") as fh:
        fh.write(f"n={family.n}\n")
        for s in family.to_sets():
            fh.write(",".join(map(str, s)) + "\n")


def load_family(path) -> SetFamily:
    """Read a family file; a malformed line is a ValueError naming it."""
    with open(path) as fh:
        lines = [line.strip() for line in fh] or [""]
    masks = []
    for number, line in enumerate(lines, start=1):
        try:
            if number == 1:
                if not line.startswith("n="):
                    raise ValueError("must be n=<int>")
                n = SetFamily(n=int(line[2:]), members=()).n
            else:
                masks += SetFamily.from_sets(n, [
                    [int(x) for x in line.split(",")] if line else []
                ]).members
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return SetFamily(n=n, members=tuple(dict.fromkeys(masks)))
