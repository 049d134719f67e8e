"""The combinatorics kernel both exact engines share: compositions, their
count, multinomials, the log2-factorial row and interval cuts, each
against brute force or an exact integer formula."""
import itertools
import math

import pytest

from twoshare._comb import (composition_count, compositions, cuts,
                            log2_factorials, multinomial)


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


@pytest.mark.parametrize("weights", [(1, 2, 5), (5, 2, 1), (3, 3, 3),
                                     (2, 7, 7), (4, -1, 6, -1), (-2, 9),
                                     (1 << 61, 3 << 60, 1 << 62)])
def test_cuts_match_brute_force(weights):
    # any sign of the free pair's gap, 0 included, and any offset: per bar,
    # the a whose score is above it are those below the cut (gap <= 0) or
    # from it on (gap > 0); a tie does not pass
    top = max(map(abs, weights))
    for idx in itertools.permutations(range(len(weights))):
        *head_idx, i, j = idx
        gap = weights[i] - weights[j]
        for m in (0, 1, 4):
            for offset in (0, -top, 2 * top + 1):
                scores = {s + offset for c in compositions(m, len(idx))
                          .tolist() for s in [sum(map(
                              int.__mul__, c, (weights[t] for t in idx)))]}
                bars = sorted(scores | {b - 1 for b in scores})
                # a score already collected moves the bars down by it
                heads, r, got = cuts(weights, [b - offset for b in bars], m,
                                     idx)
                for p, (head, left) in enumerate(zip(heads.tolist(),
                                                     r.tolist())):
                    base = offset + sum(map(int.__mul__, head, (
                        weights[t] for t in head_idx)))
                    for bar, cut in zip(bars, got):
                        passing = [a for a in range(left + 1) if base
                                   + a * weights[i] + (left - a) * weights[j]
                                   > bar]
                        c = int(cut[p])
                        assert 0 <= c <= left + 1
                        assert passing == (list(range(c)) if gap <= 0 else
                                           list(range(c, left + 1)))
