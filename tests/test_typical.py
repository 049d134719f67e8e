"""Typical-set index: membership, ranking, and mass against brute force."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockwise_oracle import member_probs, xi_plus_all

from twoshare.prob import PMF, RandomStream, entropy
from twoshare.typical import (
    GammaSchedule, EmptyTypicalSetError, build_index,
    is_typical, atypical_mass, atypical_mass_mc,
)

SKEW = [0.7, 0.3]


def brute_members(probs, n, gamma):
    """Reference membership: pure-python surprisal screen, lex order."""
    h = -sum(p * math.log2(p) for p in probs)
    out = []
    for seq in itertools.product(range(len(probs)), repeat=n):
        total = 0.0
        for s in seq:
            total = total + (-math.log2(probs[s]))
        if abs(total / n - h) <= gamma:
            out.append(seq)
    return out


class TestGammaSchedule:
    def test_power_law_values(self):
        sched = GammaSchedule.power_law(1.0 / 3.0)
        assert sched.gamma_at(8) == pytest.approx(8 ** (-1.0 / 3.0), abs=1e-15)
        assert sched.gamma_at(1) == 1.0

    def test_power_law_exponent_range(self):
        with pytest.raises(ValueError):
            GammaSchedule.power_law(0.5)
        with pytest.raises(ValueError):
            GammaSchedule.power_law(0.0)

    def test_power_law_limit_behaviour_on_prefix(self):
        # the slack must shrink while sqrt(n) * slack grows
        sched = GammaSchedule.power_law(1.0 / 3.0)
        vals = [sched.gamma_at(n) for n in range(2, 40)]
        scaled = [math.sqrt(n) * sched.gamma_at(n) for n in range(2, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(a < b for a, b in zip(scaled, scaled[1:]))

    def test_constant_positive(self):
        assert GammaSchedule.constant(0.3).gamma_at(100) == 0.3
        with pytest.raises(ValueError):
            GammaSchedule.constant(0.0)


class TestMembership:
    @pytest.mark.parametrize("n,gamma,expect", [
        (4, 4 ** (-1.0 / 3.0), 15),
        (4, 1.0, 16),
        (6, 6 ** (-1.0 / 3.0), 57),
        (8, 8 ** (-1.0 / 3.0), 219),
    ])
    def test_member_count_matches_brute_force(self, n, gamma, expect):
        ref = brute_members(SKEW, n, gamma)
        assert len(ref) == expect  # frozen reference count
        idx = build_index(PMF.from_probs(SKEW), n, gamma)
        assert idx.m_count == expect
        for seq in ref:
            assert idx.contains(seq)

    def test_empty_set_raises(self):
        assert brute_members(SKEW, 4, 0.05) == []
        with pytest.raises(EmptyTypicalSetError):
            build_index(PMF.from_probs(SKEW), 4, 0.05)

    def test_uniform_source_everything_typical(self):
        idx = build_index(PMF.uniform(2), 10, 0.1)
        assert idx.m_count == 1024

    def test_is_typical_agrees_with_index(self):
        src = PMF.from_probs(SKEW)
        gamma = 6 ** (-1.0 / 3.0)
        idx = build_index(src, 6, gamma)
        for seq in itertools.product(range(2), repeat=6):
            assert is_typical(seq, src, gamma) == idx.contains(seq)

    def test_is_typical_agrees_with_index_at_a_window_edge(self):
        # (1,1,0) sums its surprisals to a total on the other side of the
        # window from (0,1,1); deciding by composition puts the whole type
        # class on one side
        src = PMF.from_probs([0.6, 0.25, 0.15])
        gamma = 0.22626433576408078
        idx = build_index(src, 3, gamma)
        assert idx.m_count == 9
        assert is_typical((1, 1, 0), src, gamma)
        for seq in itertools.product(range(3), repeat=3):
            assert is_typical(seq, src, gamma) == idx.contains(seq)

    def test_membership_depends_only_on_composition(self):
        # surprisal is a sum over symbols, so any permutation stays inside
        src = PMF.from_probs([0.6, 0.25, 0.15])
        gamma = 0.3
        for seq in [(0, 1, 2, 0, 1), (2, 0, 0, 1, 1)]:
            base = is_typical(seq, src, gamma)
            for perm in itertools.permutations(seq):
                assert is_typical(perm, src, gamma) == base

    def test_zero_probability_symbol_never_typical(self):
        src = PMF.from_probs([1.0, 0.0])
        assert not is_typical((0, 1, 0), src, 10.0)
        assert is_typical((0, 0, 0), src, 0.1)

    @pytest.mark.parametrize("seq,bad", [((-1, 0, 0, 0), -1),
                                         ((0, 2, 0, 0), 2)])
    def test_symbol_outside_the_alphabet_raises(self, seq, bad):
        # -1 used to index the last surprisal and read typical; 2 raised a
        # bare IndexError
        with pytest.raises(ValueError, match=rf"^symbol {bad} outside \[0, 2\)"):
            is_typical(seq, PMF.from_probs(SKEW), 0.5)

    def test_single_deviating_symbol(self):
        # one rare symbol at n=4 pushes the mean surprisal 0.856 bits off
        src = PMF.from_probs(SKEW)
        assert not is_typical((1, 1, 1, 1), src, 0.1)
        dev = abs(-math.log2(0.3) - (-0.7 * math.log2(0.7) - 0.3 * math.log2(0.3)))
        assert dev > 0.1

    def test_cardinality_bound(self):
        src = PMF.from_probs(SKEW)
        h = entropy(src)
        for n in (4, 6, 8, 10, 12):
            gamma = n ** (-1.0 / 3.0)
            idx = build_index(src, n, gamma)
            assert idx.m_count <= 2.0 ** (n * (h + gamma))


class TestRanking:
    def test_rank_unrank_bijection(self):
        idx = build_index(PMF.from_probs(SKEW), 8, 0.5)
        for m in range(0, idx.m_count, 7):
            assert idx.rank(idx.unrank(m)) == m

    def test_ranks_are_lexicographic(self):
        idx = build_index(PMF.from_probs(SKEW), 4, 1.0)
        seqs = [idx.unrank(m) for m in range(idx.m_count)]
        assert seqs == sorted(seqs)

    def test_rank_of_atypical_rejected(self):
        idx = build_index(PMF.from_probs(SKEW), 4, 4 ** (-1.0 / 3.0))
        with pytest.raises(KeyError):
            idx.rank((1, 1, 1, 1))

    def test_xi_plus_sentinel(self):
        idx = build_index(PMF.from_probs(SKEW), 4, 4 ** (-1.0 / 3.0))
        assert idx.xi_plus((1, 1, 1, 1)) == idx.m_count
        assert idx.xi_plus(idx.unrank(3)) == 3

    def test_xi_plus_uniform_is_lexicographic_code(self):
        idx = build_index(PMF.uniform(2), 3, 0.5)
        assert idx.xi_plus((1, 0, 1)) == 5

    def test_xi_plus_all_consistent_with_scalar(self):
        idx = build_index(PMF.from_probs(SKEW), 6, 0.5)
        table = xi_plus_all(idx)
        for code in range(0, 64, 5):
            seq = tuple((code >> (5 - i)) & 1 for i in range(6))
            assert table[code] == idx.xi_plus(seq)

    def test_member_probs_sum_to_typical_mass(self):
        idx = build_index(PMF.from_probs(SKEW), 8, 8 ** (-1.0 / 3.0))
        assert float(member_probs(idx).sum()) == pytest.approx(
            1.0 - 0.01129221, abs=1e-12)


class TestMass:
    @pytest.mark.parametrize("n,expect", [
        (4, 0.0081),
        (8, 0.011292210000),
        (12, 0.009489371130),
    ])
    def test_atypical_mass_frozen_values(self, n, expect):
        # reference masses computed independently from binomial weights
        got = atypical_mass(PMF.from_probs(SKEW), n, n ** (-1.0 / 3.0))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_atypical_mass_equals_brute_complement(self):
        for n, gamma in [(6, 6 ** (-1.0 / 3.0)), (8, 0.2)]:
            members = brute_members(SKEW, n, gamma)
            typ = sum(math.prod(SKEW[s] for s in seq) for seq in members)
            got = atypical_mass(PMF.from_probs(SKEW), n, gamma)
            assert got == pytest.approx(1.0 - typ, abs=1e-12)

    def test_uniform_and_point_mass_sources_have_zero_mass(self):
        assert atypical_mass(PMF.uniform(3), 5, 0.01) == 0.0
        assert atypical_mass(PMF.point_mass(2, 0), 5, 0.1) == 0.0

    def test_aep_decrease_on_schedule(self):
        # the default schedule must push the mass down over 8 -> 16 -> 24
        src = PMF.from_probs(SKEW)
        sched = GammaSchedule.power_law(1.0 / 3.0)
        masses = {n: atypical_mass(src, n, sched.gamma_at(n))
                  for n in (4, 8, 16, 24)}
        assert masses[8] > masses[16] > masses[24]

    def test_mc_mass_within_interval(self):
        src = PMF.from_probs(SKEW)
        est, half = atypical_mass_mc(src, 8, 0.5, 200_000, RandomStream(9))
        assert abs(est - 0.01129221) <= half

    def test_mc_mass_deterministic(self):
        src = PMF.from_probs(SKEW)
        a = atypical_mass_mc(src, 8, 0.5, 100_000, RandomStream(4))
        b = atypical_mass_mc(src, 8, 0.5, 100_000, RandomStream(4))
        assert a == b

    def test_mc_zero_hits_rule_of_three(self):
        est, half = atypical_mass_mc(PMF.uniform(2), 6, 0.5, 1000,
                                     RandomStream(0))
        assert est == 0.0
        assert half == pytest.approx(3.0 / 1000)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=8),
       gamma=st.floats(min_value=0.05, max_value=1.5))
def test_mass_identity_members_plus_atypical(n, gamma):
    src = PMF.from_probs(SKEW)
    try:
        idx = build_index(src, n, gamma)
    except EmptyTypicalSetError:
        assert atypical_mass(src, n, gamma) == pytest.approx(1.0, abs=1e-12)
        return
    assert float(member_probs(idx).sum()) + atypical_mass(src, n, gamma) \
        == pytest.approx(1.0, abs=1e-9)
