import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab import sperner
from lrplab.sperner import (SetFamily, central_binomial_term, classify_member,
                            event_probability, generate_family,
                            is_sperner_family,
                            load_family, log_central_term, lym_sum,
                            save_family, sperner_bound_check)

from oracles import brute_force_classify


def two_subsets(n):
    return SetFamily.from_sets(n, list(combinations(range(1, n + 1), 2)))


def test_classify_empty_member():
    fam = SetFamily.from_sets(4, [()])
    c = classify_member(fam, 0)
    assert c.upward and c.up_witness == 0b1111


def test_classify_two_level_examples():
    fam = two_subsets(4)
    c = classify_member(fam, 0b0011)
    assert c.upward and c.up_witness == 0b1100
    fam2 = SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 3, 4)])
    c2 = classify_member(fam2, 0b1111)
    assert not c2.upward and c2.downward and c2.down_witness == 0b0111


def test_classify_requires_membership():
    with pytest.raises(ValueError):
        classify_member(two_subsets(4), 0b0001)


def test_is_sperner_basics():
    assert is_sperner_family(SetFamily(n=4, members=())).is_sperner
    assert is_sperner_family(two_subsets(4)).is_sperner
    full = SetFamily(n=4, members=tuple(range(16)))
    assert not is_sperner_family(full).is_sperner


def test_level_profile_sums():
    fam = generate_family("greedy-maximal", 8, np.random.default_rng(0))
    prof = fam.level_profile()
    assert prof.sum() == len(fam.members)


@given(st.integers(2, 10), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_classify_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    kind = ["antichain-low", "greedy-maximal", "random-levels"][seed % 3]
    fam = generate_family(kind, n, rng, target_size=6)
    # also try a raw random family (not necessarily Sperner)
    raw = tuple(dict.fromkeys(int(x) for x in
                              rng.integers(0, 1 << n, size=5)))
    for family in (fam, SetFamily(n=n, members=raw)):
        for A in family.members:
            mine = classify_member(family, A)
            up, down = brute_force_classify(n, list(family.members), A)
            assert mine.upward == up
            assert mine.downward == down


def test_lym_examples():
    assert lym_sum(SetFamily(n=5, members=())) == 0
    assert lym_sum(two_subsets(4)) == 1
    assert lym_sum(SetFamily.from_sets(3, [(), (1, 2, 3)])) == 2


def test_lym_additive_over_disjoint_unions():
    rng = np.random.default_rng(5)
    f1 = generate_family("antichain-low", 10, rng, target_size=5)
    extra = tuple(m for m in (0b1111111111, 0b1111100000)
                  if m not in f1.members)
    f2 = SetFamily(n=10, members=extra)
    union = SetFamily(n=10, members=f1.members + f2.members)
    assert lym_sum(union) == lym_sum(f1) + lym_sum(f2)


def test_event_probability_examples():
    assert event_probability(SetFamily(n=4, members=tuple(range(16))),
                             Fraction(1, 2)) == 1
    assert event_probability(two_subsets(4), Fraction(1, 2)) == \
        Fraction(3, 8)
    assert event_probability(SetFamily(n=6, members=()),
                             Fraction(1, 3)) == 0


@given(st.integers(1, 8), st.integers(1, 40))
@settings(max_examples=30)
def test_event_probability_total_mass(n, pnum):
    p = Fraction(pnum, 41)
    full = SetFamily(n=n, members=tuple(range(1 << n)))
    assert event_probability(full, p) == 1


def test_central_term_is_true_max():
    for n in (4, 7, 12):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                  Fraction(2, 7)):
            m, val = central_binomial_term(n, p)
            allv = [math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                    for k in range(n + 1)]
            assert val == max(allv)
            assert m in (math.floor(p * n), math.ceil(p * n))


def test_bound_chain_two_subsets():
    chain = sperner_bound_check(two_subsets(4), Fraction(1, 2))
    assert chain.event_prob == Fraction(3, 8)
    assert chain.central_term == Fraction(3, 8)
    assert chain.lym == 1
    assert chain.holds


def test_bound_chain_singleton_empty_set():
    fam = SetFamily.from_sets(6, [()])
    chain = sperner_bound_check(fam, Fraction(1, 3))
    assert chain.event_prob == Fraction(2, 3) ** 6
    assert chain.holds


def test_bound_chain_refuses_non_sperner():
    full = SetFamily(n=4, members=tuple(range(16)))
    with pytest.raises(ValueError):
        sperner_bound_check(full, Fraction(1, 2))


def test_generators_always_sperner():
    rng = np.random.default_rng(11)
    for kind in ("antichain-low", "greedy-maximal", "random-levels"):
        for _ in range(30):
            fam = generate_family(kind, 12, rng)
            assert is_sperner_family(fam).is_sperner, kind


def test_antichain_low_subfamilies_remain_sperner():
    rng = np.random.default_rng(13)
    fam = generate_family("antichain-low", 12, rng, target_size=8)
    members = fam.members
    for _ in range(20):
        keep = [m for m in members if rng.random() < 0.6]
        sub = SetFamily(n=12, members=tuple(keep))
        assert is_sperner_family(sub).is_sperner


def test_scaled_bound_stays_bounded_large_n():
    # 4 sqrt(n) C(n,m) p^m (1-p)^(n-m) stays bounded up to n = 1000
    for p in (0.25, 0.5, 0.75):
        vals = [4.0 * math.sqrt(n) * math.exp(log_central_term(n, p))
                for n in range(4, 1001)]
        assert max(vals) < 10.0
        assert vals[-1] < vals[0] * 5


def test_family_file_round_trip(tmp_path):
    fam = SetFamily.from_sets(6, [(), (1, 3, 5), (2,), (1, 2, 3, 4, 5, 6)])
    path = tmp_path / "family.txt"
    save_family(fam, path)
    assert load_family(path).members == fam.members
    assert load_family(path).n == 6


def test_family_file_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "family.txt"
    save_family(SetFamily.from_sets(4, [(1,), (2, 3)]), path)
    old = path.read_bytes()
    fam = SetFamily.from_sets(5, [(1, 2), (4,), (3, 5)])

    def to_sets(self):
        yield (1, 2)
        raise OSError("disk full")

    monkeypatch.setattr(SetFamily, "to_sets", to_sets)
    with pytest.raises(OSError):
        save_family(fam, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["family.txt"]


def test_family_validation():
    with pytest.raises(ValueError):
        SetFamily(n=30, members=())
    with pytest.raises(ValueError):
        SetFamily(n=4, members=(1, 1))
    with pytest.raises(ValueError):
        SetFamily(n=2, members=(7,))


def test_witness_maximality_brute_force():
    # every valid witness found by enumeration is contained in the
    # maximal witness the classifier reports
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        fam = generate_family("random-levels", n, rng, target_size=5)
        if not fam.members:
            continue
        full = (1 << n) - 1
        for A in fam.members:
            cls = classify_member(fam, A)
            comp = full & ~A
            for B in _all_submasks(comp):
                if 2 * B.bit_count() < n:
                    continue
                valid = all(not (Ap & A == A and Ap & B)
                            for Ap in fam.members)
                if valid:
                    assert B & ~cls.up_witness == 0
            for B in _all_submasks(A):
                if 2 * B.bit_count() < n:
                    continue
                valid = all(not (Ap | A == A and B & ~Ap)
                            for Ap in fam.members)
                if valid:
                    assert B & ~cls.down_witness == 0


def _all_submasks(mask):
    out = [0]
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            out += [m | (1 << b) for m in out]
    return out


def _greedy_full_recheck(n, rng, target, levels):
    # `_greedy` with the whole trial family classified for every candidate
    members = []
    for _ in range(8 * target):
        size = (int(rng.integers(0, n + 1)) if levels is None
                else int(rng.choice(levels)))
        cand = sperner._random_mask_of_size(n, size, rng)
        if cand in members:
            continue
        if is_sperner_family(SetFamily(n=n, members=tuple(
                members + [cand]))).is_sperner:
            members.append(cand)
        if len(members) >= target:
            break
    return SetFamily(n=n, members=tuple(members))


@pytest.mark.parametrize("levels", [None, (2, 3), (5, 6)])
def test_greedy_classifies_only_comparable_members(levels):
    # the incremental test admits the same families from the same draws
    for seed in range(15):
        for n in (6, 9, 12):
            a = sperner._greedy(n, np.random.default_rng(seed), 2 * n,
                                levels)
            b = _greedy_full_recheck(n, np.random.default_rng(seed),
                                     2 * n, levels)
            assert a == b
