"""Compositions, their multinomial weights, and the interval cuts that
both exact engines sum over.

A composition of t into p parts is a vector of p non-negative counts that
sum to t.  The blockwise engine sums over the type classes of an n-block,
the compositions of n over the source's support; the symbolwise engine
sums over the count vectors of the score lattice.  Both score a vector by
an integer form sum_j c_j w_j, and both decide a bar on it by intervals
(`cut`): fix every count but the last two, and the counts of the first
of those two that pass the bar are one interval; `cuts` finds them for a
whole table of prefixes at once.  Both weigh a vector by its
multinomial.  This module answers once how many and which
compositions there are, in what order, where each interval lies, and how
a float threshold becomes an exact int comparison.
"""
from __future__ import annotations

import functools
import math

import numpy as np


def composition_count(total: int, parts: int) -> int:
    """How many compositions of `total` into `parts` there are:
    C(total+parts-1, parts-1)."""
    return math.comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> np.ndarray:
    """Every composition of `total` into `parts`, one per row, in
    lexicographic order: the first count ascends, each later count ascends
    within its prefix, and the last takes the rest.  Take rows with
    `.tolist()` for exact integer arithmetic."""
    if parts == 1:
        return np.array([[total]])
    col = np.arange(total + 1)
    cols, rest = [col], total - col
    for _ in range(parts - 2):
        size = rest + 1
        col = np.arange(size.sum()) - np.repeat(size.cumsum() - size, size)
        cols = [np.repeat(c, size) for c in cols] + [col]
        rest = np.repeat(rest, size) - col
    return np.array(cols + [rest]).T


def cut(x, y: int, gap: int, top):
    """Where a bar cuts the count a at i when the score less the bar is
    x + y + a gap and top - 1 positions are left to i and j: a passes
    (above the bar; a tie does not) for the a below the cut when gap <= 0,
    from the cut on when gap > 0, the cut clamped to [0, top].  x and top
    are Python ints, or int arrays decided elementwise; y is an int."""
    if gap < 0:      # ceil((x + y) / -gap): the a below it pass
        c = (x + (y - gap - 1)) // -gap
    elif gap > 0:    # the least a that passes
        c = ((gap - y) - x) // gap
    else:            # every a passes, or none does
        return (x + y > 0) * top
    if type(top) is int:
        return max(min(c, top), 0)
    return np.maximum(np.minimum(c, top), 0)


def cuts(weights, bars, m: int, idx):
    """Every prefix of an m-position count vector over the `weights` at
    `idx` (at least two), as int64 arrays (heads, r), r ascending, and per
    bar in `bars` an int64 array of `cut`s.  heads[p] counts idx[:-2], and
    r[p] positions are left to the last two, i and j.  With a at i the
    score is s + a (w_i - w_j), s = head.w + r w_j, so the window
    lo <= score <= hi, passing lo - 1 but not hi, is [min, max) of its two
    cuts.  A score already collected elsewhere shifts the bars.  The
    weights reach 2**60 at n=96, so s - bar is summed in int64 only when a
    bound keeps it below 2**63, and in Python ints otherwise: exact either
    way.
    """
    *head_idx, i, j = idx
    w = weights
    prefixes = compositions(m, len(head_idx) + 1)
    heads, r = prefixes[:, 1:], prefixes[:, 0]
    gap = w[i] - w[j]
    base = m * w[j]
    steps = [w[h] - w[j] for h in head_idx]
    bound = (max(abs(base - bar) for bar in bars)
             + m * sum(map(abs, steps)) + abs(gap) + 1)
    dtype = np.int64 if bound < 1 << 63 else object
    x = np.zeros(len(r), dtype)
    for step, col in zip(steps, heads.T):
        x = x + col.astype(dtype) * step
    top = r + 1
    return heads, r, [cut(x, base - bar, gap, top).astype(np.int64, copy=False)
                      for bar in bars]


def over_one_denominator(values) -> list[int]:
    """Binary fractions (floats) as the ints that put them over their
    common denominator, a power of two: the ints keep the values' exact
    ratios, so sums and comparisons of the values are exact int ones."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios]


def multinomial(counts) -> int:
    """Number of sequences with the given symbol counts, exactly."""
    out, rem = 1, sum(counts)
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


@functools.lru_cache(maxsize=16)
def log2_factorials(m: int) -> np.ndarray:
    """log2(t!) for t = 0..m, each rounded once from the exact integer,
    then m+1 entries of +inf, so t = -1..-(m+1) reads +inf: a binomial
    term C(r, a) with a > r gets log2 weight -inf."""
    out, f = [0.0], 1
    for t in range(1, m + 1):
        f *= t
        out.append(math.log2(f))
    table = np.array(out + [math.inf] * (m + 1))
    table.flags.writeable = False
    return table
