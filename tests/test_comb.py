"""The combinatorics kernel both exact engines share: compositions, their
count, multinomials, the log2-factorial row and prefix ranks, each against
brute force or an exact integer formula."""
import itertools
import math

import numpy as np
import pytest

from twoshare._comb import (_prefix_rank, composition_count, compositions,
                            log2_factorials, multinomial, prefix_lookup)


@pytest.mark.parametrize("parts", (1, 2, 3, 4))
@pytest.mark.parametrize("total", range(9))
def test_compositions_match_brute_force(total, parts):
    rows = [tuple(r) for r in compositions(total, parts).tolist()]
    brute = {c for c in itertools.product(range(total + 1), repeat=parts)
             if sum(c) == total}
    assert set(rows) == brute
    assert len(rows) == composition_count(total, parts) == len(brute)
    # each once, in lexicographic order
    assert rows == sorted(brute)


@pytest.mark.parametrize("counts", [(0,), (5,), (3, 0), (0, 3), (2, 2),
                                    (4, 1, 2), (0, 0, 7), (6, 5, 4, 3),
                                    (120, 80, 40), (1,) * 12])
def test_multinomial_is_a_factorial_quotient(counts):
    den = math.prod(map(math.factorial, counts))
    assert math.factorial(sum(counts)) % den == 0
    assert multinomial(counts) == math.factorial(sum(counts)) // den


@pytest.mark.parametrize("m", (0, 1, 2, 7, 40, 300))
def test_log2_factorials_round_each_factorial_once(m):
    row = log2_factorials(m)
    assert row[:m + 1].tolist() == [math.log2(math.factorial(t))
                                    for t in range(m + 1)]
    assert row[m + 1:].tolist() == [math.inf] * (m + 1)
    # negative t reads +inf, so C(r, a) with a > r weighs -inf in log2
    assert row[-1] == row[-(m + 1)] == math.inf
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_prefix_rank_is_a_bijection():
    for n in range(12):
        for digits in range(5):
            rows = compositions(n, digits + 1)
            ranks = _prefix_rank(n, digits)(rows)
            assert sorted(ranks.tolist()) == list(
                range(composition_count(n, digits + 1)))
            if digits == 1:   # a one-count prefix is its own rank
                assert ranks.tolist() == rows[:, 0].tolist()


def test_32_part_lookup_answers_past_int64_codes():
    # 31 leading counts at n=4: base-5 codes of them would pass 2**63
    rows = compositions(4, 32)
    lookup = prefix_lookup(rows[:, :31], np.arange(len(rows)), 4)
    order = np.random.default_rng(0).permutation(len(rows))
    assert lookup(rows[order]).tolist() == order.tolist()


def test_lookup_needs_every_prefix_once():
    prefixes = [tuple(c[:2]) for c in compositions(3, 3).tolist()]
    lookup = prefix_lookup(prefixes, range(len(prefixes)), 3)
    assert lookup(np.array([(0, 3, 0), (1, 1, 1)])).tolist() == [
        prefixes.index((0, 3)), prefixes.index((1, 1))]
    for bad in (prefixes[1:], prefixes[:-1] + [prefixes[0]],
                prefixes[:-1] + [(4, 0)], prefixes[:-1] + [(-1, 2)]):
        with pytest.raises(ValueError, match="each of the 10 prefixes"):
            prefix_lookup(bad, range(len(bad)), 3)
