"""Typical-set index: membership, ranking, and mass against brute force."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockwise_oracle import (atypical_mass, member_codes, member_probs,
                              xi_plus_all)

from twoshare.block import BlockwiseParams, exact_quantities
from twoshare.prob import PMF, RandomStream, entropy
from twoshare.typical import (
    GammaSchedule, EmptyTypicalSetError, TypicalIndex, build_index,
    multinomial, is_typical, atypical_mass_mc, type_classes,
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


def class_mass(source, n, gamma) -> float:
    """The index's atypical mass, its sum over the atypical type classes;
    defined for an empty typical set too, where build_index raises."""
    return TypicalIndex(source, n, gamma, type_classes(source, n, gamma)).delta


def _continuations(idx, prefix) -> int:
    """Typical blocks that extend a prefix of the given composition."""
    return sum(multinomial([c - p for c, p in zip(counts, prefix)])
               for counts in (c.counts for c in idx.classes if c.typical)
               if all(c >= p for c, p in zip(counts, prefix)))


def position_rank(idx, seq) -> int:
    """Rank by the walk of one position per step: each smaller support
    symbol at a position adds the typical continuations of the prefix
    with it; m_count for a block off the typical set."""
    support = [a for a, p in enumerate(idx.source.probs) if p > 0.0]
    prefix, z = [0] * len(support), 0
    for s in seq:
        if s not in support:
            return idx.m_count
        for j in range(support.index(s)):
            z += _continuations(idx, prefix[:j] + [prefix[j] + 1]
                                + prefix[j + 1:])
        prefix[support.index(s)] += 1
    return z if _continuations(idx, prefix) else idx.m_count


def position_unrank(idx, m) -> tuple[int, ...]:
    support = [a for a, p in enumerate(idx.source.probs) if p > 0.0]
    prefix, out = [0] * len(support), []
    for _ in range(idx.n):
        for j, a in enumerate(support):
            prefix[j] += 1
            count = _continuations(idx, prefix)
            if m < count:
                out.append(a)
                break
            m -= count
            prefix[j] -= 1
    return tuple(out)


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
        with pytest.raises(ValueError):
            GammaSchedule.power_law(math.nan)

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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                GammaSchedule.constant(bad)


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

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        # NaN read as an empty typical set, and inf overflowed the lattice
        with pytest.raises(ValueError, match="^gamma must be positive and "
                                             "finite$"):
            build_index(PMF.from_probs(SKEW), 4, gamma)

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


K3_RANK_CASES = [([0.5, 0.3, 0.2], 6, 0.4), ([0.6, 0.0, 0.4], 6, 0.5),
                 ([0.45, 0.35, 0.2], 5, 0.3)]


class TestRankWalk:
    @pytest.mark.parametrize("probs,n,gamma", K3_RANK_CASES)
    @pytest.mark.parametrize("unrank_first", [False, True])
    def test_rank_and_unrank_match_the_dense_oracle(self, probs, n, gamma,
                                                    unrank_first):
        # a fresh index fills its transitions and rows in either order
        idx = build_index(PMF.from_probs(probs), n, gamma)
        table = xi_plus_all(idx)
        codes = member_codes(idx.source, n, gamma).tolist()
        assert idx.m_count == len(codes)
        seqs = list(itertools.product(range(3), repeat=n))
        for _ in range(2):  # the second pass reads the filled tables
            if unrank_first:
                for m, code in enumerate(codes):
                    assert idx.unrank(m) == seqs[code]
            assert [idx.xi_plus(s) for s in seqs] == table.tolist()
            for m, code in enumerate(codes):
                assert idx.unrank(m) == seqs[code]

    @pytest.mark.parametrize("probs,n,gamma",
                             K3_RANK_CASES + [(SKEW, 10, 0.4),
                                              ([0.5, 0.3, 0.2], 40, 0.2)])
    def test_rows_built_once_for_the_visited_prefixes(self, probs, n, gamma):
        # each call builds at most ceil(n/b) rows, each row once, and only
        # for the chunk-boundary prefixes its walk visits: those before the
        # first chunk with a symbol off the support; a rank's unrank leaves
        # its round trip nothing to build
        idx = build_index(PMF.from_probs(probs), n, gamma)
        built, row = [], idx._row
        idx._row = lambda code: built.append(code) or row(code)
        support = [a for a, p in enumerate(probs) if p > 0.0]
        w = {a: (n + 1) ** j for j, a in enumerate(support)}
        b = min(n, max(t for t in range(1, 9) if len(support) ** t <= 256))

        def prefixes(seq):
            code = 0
            for i in range(0, n, b):
                if not set(seq[i:i + b]) <= w.keys():
                    return
                yield code
                code += sum(w[s] for s in seq[i:i + b])
        rng = np.random.default_rng(n)
        visited = set()

        def check(before, seq):
            # the rows one call built: at most ceil(n/b), all on its walk
            assert len(built) - before <= -(-n // b)
            assert set(built[before:]) <= set(prefixes(seq))
            visited.update(prefixes(seq))
        for m in rng.integers(idx.m_count, size=20).tolist():
            before = len(built)
            seq = idx.unrank(m)
            check(before, seq)
            before = len(built)
            assert idx.xi_plus(seq) == m and len(built) == before
        for seq in rng.integers(len(probs), size=(20, n)).tolist():
            before = len(built)
            idx.xi_plus(seq)
            check(before, seq)
        assert idx._chunks[0] == b
        assert len(built) == len(set(built))
        assert set(built) == visited

    @pytest.mark.parametrize("probs,n,b", [
        ([1.0], 50, 50), ([0.0, 1.0, 0.0], 7, 7), (SKEW, 20, 8), (SKEW, 5, 5),
        ([0.5, 0.5, 0.0], 20, 8), ([0.5, 0.3, 0.2], 36, 5),
        ([0.4, 0.3, 0.2, 0.1], 9, 4), ([0.3, 0.25, 0.2, 0.15, 0.1], 7, 3),
        ([1 / 16] * 16, 3, 2), ([1 / 17] * 17, 3, 1)])
    def test_chunk_length_follows_the_support(self, probs, n, b):
        # the largest b with k'**b <= 256 over the k' support symbols,
        # at most n
        idx = build_index(PMF.from_probs(probs), n, 1.5)
        assert idx._chunks[0] == b
        for m in {0, idx.m_count // 2, idx.m_count - 1}:
            assert idx.xi_plus(idx.unrank(m)) == m

    def test_exact_quantities_build_no_chunk_table(self):
        # build_index runs on every exact record: the chunk tables and the
        # rows wait for the first rank or unrank
        idx = build_index(PMF.from_probs(SKEW), 20, 20 ** (-1.0 / 3.0))
        exact_quantities(BlockwiseParams(1.0, idx))
        assert not idx._rows
        assert "_chunks" not in vars(idx) and "_typical" not in vars(idx)
        idx.unrank(0)
        assert "_chunks" in vars(idx) and len(idx._rows) == 3

    @pytest.mark.parametrize("probs,n,gamma", [
        (SKEW, 11, 0.4),                       # b = 8, a last chunk of 3
        (SKEW, 5, 0.5),                        # n < b: one chunk
        ([0.5, 0.5, 0.0], 9, 0.5),             # b = 8 over the support
        ([0.0, 1.0, 0.0], 6, 0.1),             # one symbol: b = n
        ([1.0], 4, 0.1),
        ([0.5, 0.3, 0.2], 7, 0.4),             # k = 3: b = 5, then 2
        ([0.4, 0.3, 0.2, 0.1], 6, 0.4),        # k = 4: b = 4, then 2
        ([0.3, 0.25, 0.2, 0.15, 0.1], 5, 0.3),  # k = 5: b = 3, then 2
    ])
    def test_chunked_walk_matches_the_dense_oracle(self, probs, n, gamma):
        # every sequence, as a tuple, a list and an array, and every rank
        idx = build_index(PMF.from_probs(probs), n, gamma)
        table = xi_plus_all(idx).tolist()
        codes = member_codes(idx.source, n, gamma).tolist()
        assert idx.m_count == len(codes)
        seqs = list(itertools.product(range(len(probs)), repeat=n))
        for wrap in (tuple, list, np.array):
            assert [idx.xi_plus(wrap(s)) for s in seqs] == table
        assert [idx.unrank(m) for m in range(idx.m_count)] == \
            [seqs[code] for code in codes]

    @pytest.mark.parametrize("probs,n,gamma", [
        (SKEW, 43, 0.2), ([0.5, 0.5, 0.0], 13, 0.5),
        ([0.5, 0.3, 0.2], 23, 0.3), ([0.4, 0.3, 0.2, 0.1], 14, 0.3),
        ([0.3, 0.25, 0.2, 0.15, 0.1], 11, 0.3)])
    def test_chunked_walk_matches_the_position_walk(self, probs, n, gamma):
        # past the dense oracle's reach: random ranks and random blocks,
        # each with a short last chunk, against one position per step
        idx = build_index(PMF.from_probs(probs), n, gamma)
        rng = np.random.default_rng(n)
        for m in rng.integers(idx.m_count, size=8).tolist():
            seq = idx.unrank(m)
            assert seq == position_unrank(idx, m)
            assert position_rank(idx, seq) == m
        draws = rng.choice(len(probs), size=(8, n), p=probs)
        for seq in map(tuple, draws.tolist()):
            assert idx.xi_plus(seq) == position_rank(idx, seq)

    @pytest.mark.parametrize("seq,bad", [((0.9, 0, 1.5, 0), "0.9"),
                                         ((0, 1, 1.5, 0), "1.5"),
                                         ((0, np.float64(0.25), 1, 0), "0.25"),
                                         ("0100", "'0'"),
                                         ((0, [1], 0, 0), r"\[1\]"),
                                         ((0, 1, None, 0), "None")])
    def test_non_integral_symbol_raises(self, seq, bad):
        # 0.9 and 1.5 used to be truncated, ranking (0, 0, 1, 0)
        idx = build_index(PMF.from_probs(SKEW), 4, 1.0)
        for check in (idx.xi_plus, idx.contains):
            with pytest.raises(ValueError,
                               match=f"^symbol {bad} is not an integer$"):
                check(seq)
        with pytest.raises(ValueError, match=f"^symbol {bad} is not an integer$"):
            is_typical(seq, PMF.from_probs(SKEW), 0.5)

    @pytest.mark.parametrize("wrap", [tuple, list, np.array, iter,
                                      lambda s: [float(v) for v in s],
                                      lambda s: [bool(v) for v in s]],
                             ids=["tuple", "list", "ndarray", "generator",
                                  "floats", "bools"])
    def test_symbols_equal_to_integers_rank_alike(self, wrap):
        idx = build_index(PMF.from_probs(SKEW), 6, 0.5)
        for m in range(idx.m_count):
            seq = idx.unrank(m)
            assert idx.xi_plus(wrap(seq)) == m
            assert is_typical(wrap(seq), idx.source, idx.gamma)

    def test_is_typical_of_non_integral_symbols_raises(self):
        # (0.5, 1.2, 0) used to read as the typical (0, 1, 0)
        with pytest.raises(ValueError, match="^symbol 0.5 is not an integer$"):
            is_typical((0.5, 1.2, 0), PMF.from_probs(SKEW), 0.5)
        with pytest.raises(ValueError, match="^symbol 1.2 is not an integer$"):
            is_typical((0, 1.2, 0), PMF.from_probs(SKEW), 0.5)


class TestMass:
    @pytest.mark.parametrize("n,expect", [
        (4, 0.0081),
        (8, 0.011292210000),
        (12, 0.009489371130),
    ])
    def test_atypical_mass_frozen_values(self, n, expect):
        # reference masses computed independently from binomial weights
        for mass in (class_mass, atypical_mass):
            got = mass(PMF.from_probs(SKEW), n, n ** (-1.0 / 3.0))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_atypical_mass_equals_brute_complement(self):
        for n, gamma in [(6, 6 ** (-1.0 / 3.0)), (8, 0.2)]:
            members = brute_members(SKEW, n, gamma)
            typ = sum(math.prod(SKEW[s] for s in seq) for seq in members)
            got = class_mass(PMF.from_probs(SKEW), n, gamma)
            assert got == pytest.approx(1.0 - typ, abs=1e-12)

    def test_uniform_and_point_mass_sources_have_zero_mass(self):
        for mass in (class_mass, atypical_mass):
            assert mass(PMF.uniform(3), 5, 0.01) == 0.0
            assert mass(PMF.point_mass(2, 0), 5, 0.1) == 0.0

    def test_aep_decrease_on_schedule(self):
        # the default schedule must push the mass down over 8 -> 16 -> 24
        src = PMF.from_probs(SKEW)
        sched = GammaSchedule.power_law(1.0 / 3.0)
        masses = {n: class_mass(src, n, sched.gamma_at(n))
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
        assert class_mass(src, n, gamma) == pytest.approx(1.0, abs=1e-12)
        return
    assert float(member_probs(idx).sum()) + idx.delta \
        == pytest.approx(1.0, abs=1e-9)
