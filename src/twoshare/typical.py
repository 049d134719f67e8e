"""Typical sets over i.i.d. sources, ranked by their type classes.

Membership uses the window |mean surprisal - H(S)| <= gamma, decided
exactly on a block's composition by one integer test (`_window`), which
the scalar test, the type classes, the rank index and the Monte Carlo
draw all read.  Counts, masses and ranks come from the type classes;
none enumerates k**n sequences.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._comb import (compositions, multinomial, over_one_denominator,
                    prefix_lookup)
from .prob import PMF, RandomStream, _estimate, as_symbol, entropy


class EmptyTypicalSetError(Exception):
    """The window caught no sequence; the blockwise scheme cannot run."""


@dataclass(frozen=True)
class GammaSchedule:
    """Slack sequence gamma_n, either n**(-a) or a constant.

    The power-law exponent is restricted to (0, 0.5) so that
    sqrt(n) * gamma_n grows while gamma_n itself shrinks.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "power_law":
            if not 0.0 < self.param < 0.5:
                raise ValueError("power-law exponent must lie strictly in (0, 0.5)")
        elif self.kind == "constant":
            if not 0.0 < self.param < math.inf:
                raise ValueError("constant slack must be positive and finite")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def power_law(cls, exponent: float = 1.0 / 3.0) -> "GammaSchedule":
        return cls("power_law", exponent)

    @classmethod
    def constant(cls, gamma: float) -> "GammaSchedule":
        return cls("constant", gamma)

    def gamma_at(self, n: int) -> float:
        if n < 1:
            raise ValueError("blocklength must be positive")
        if self.kind == "power_law":
            return float(n) ** (-self.param)
        return self.param


def _window(source: PMF, n: int, gamma: float):
    """The window test of an n-block from its counts over the support
    symbols, exactly.  The support's surprisals, H(S) and gamma are floats,
    so binary fractions: over one denominator they are ints w_j, h and g,
    and |sum_j c_j w_j / n - h| <= g reads n (h - g) <= sum_j c_j w_j <=
    n (h + g), whatever order a float sum would take."""
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    p = source.probs
    *weights, h, g = over_one_denominator(
        (-np.log2(np.where(p > 0.0, p, 1.0)))[p > 0.0].tolist()
        + [entropy(source), gamma])
    lo, hi = n * (h - g), n * (h + g)
    return lambda counts: lo <= sum(map(operator.mul, counts, weights)) <= hi


def is_typical(seq, source: PMF, gamma: float) -> bool:
    """Window test on one sequence, decided on its composition by the
    test the type classes use; zero-probability symbols fail, and symbols
    outside the alphabet or not integers raise ValueError."""
    symbols, k = tuple(map(as_symbol, seq)), source.support_size
    if not symbols:
        raise ValueError("empty sequence")
    bad = min(symbols) if min(symbols) < 0 else max(symbols)
    if not 0 <= bad < k:
        raise ValueError(f"symbol {bad} outside [0, {k})")
    inside = _window(source, len(symbols), gamma)
    counts, on = np.bincount(symbols, minlength=k), source.probs > 0.0
    return not counts[~on].any() and inside(counts[on].tolist())


class TypeClasses(NamedTuple):
    """The type classes of a length-n block, one entry per class in each
    array: a class holds all sequences of one composition."""

    counts: np.ndarray   # int64 rows, per support symbol in alphabet order
    sizes: np.ndarray    # members: exact multinomials, as Python ints
    logp: np.ndarray     # log2 probability of each member
    mass: np.ndarray     # sizes * 2**logp, summed in the exponent
    typical: np.ndarray  # bool


def type_classes(source: PMF, n: int, gamma: float) -> TypeClasses:
    """Every composition of a length-n block over the source's support, in
    lexicographic order.

    Membership is decided once per class from its counts, by the window
    test `is_typical` applies.  Compositions that use a zero-probability
    symbol carry no mass and are never typical, so they are left out.
    A class's mass is summed in the exponent, so a huge count times a tiny
    per-member probability cannot overflow.  Cost is O(C(n+k-1, k-1))
    classes, not k**n sequences.
    """
    inside = _window(source, n, gamma)
    if n < 1:
        raise ValueError("blocklength must be positive")
    logs = [math.log2(p) for p in source.probs.tolist() if p > 0.0]
    counts = compositions(n, len(logs))
    rows = counts.tolist()
    sizes = [multinomial(c) for c in rows]
    logp = [math.fsum(map(operator.mul, c, logs)) for c in rows]
    mass = [2.0 ** (math.log2(m) + lp) for m, lp in zip(sizes, logp)]
    return TypeClasses(counts, np.array(sizes, dtype=object), np.array(logp),
                       np.array(mass), np.array(list(map(inside, rows))))


class TypicalIndex:
    """The typical set of a source at blocklength n, with a rank bijection.

    Rank m is the (m+1)-th typical sequence in lexicographic order, found
    by enumerative coding, b positions at a time: each lexicographically
    smaller chunk of b symbols adds the typical continuations of the
    prefix with it, a count fixed by the prefix's composition and the
    chunk's.  `xi_plus` sends every atypical sequence to m_count.
    `delta` is the atypical mass."""

    def __init__(self, source: PMF, n: int, gamma: float, classes):
        self.source, self.n, self.gamma, self.k = (source, n, gamma,
                                                   source.support_size)
        self.classes = classes
        self.m_count = int(classes.sizes[classes.typical].sum())
        self.delta = math.fsum(classes.mass[~classes.typical])
        # the support symbols and the weights of their counts in a prefix
        # code; the chunk tables and the rows of the rank walk are built as
        # it first runs
        self._support = [a for a, p in enumerate(source.probs) if p > 0.0]
        self._weights = [(n + 1) ** j for j in range(len(self._support))]
        self._rows = {}

    @functools.cached_property
    def _chunks(self):
        """The chunk length b, the largest with k'**b <= 256 values over the
        k' support symbols (at most n), and the chunks the walk reads: b
        positions per row, the last n mod b when that is not 0: one dict
        from a chunk value's symbols to (its position, its code step), and
        per chunk of the walk, the compositions of its length and its
        values in lexicographic order as (symbols, code step, composition
        position)."""
        support, n = self._support, self.n
        parts, b = len(support), 1
        while b < n and parts ** (b + 1) <= 256:
            b += 1
        find, tables = {}, {}
        for t in {b, n % b or b}:
            comps = list(map(tuple, compositions(t, parts).tolist()))
            where = {c: i for i, c in enumerate(comps)}
            values = []
            for slots in itertools.product(range(parts), repeat=t):
                counts = tuple(map(slots.count, range(parts)))
                step = sum(map(operator.mul, counts, self._weights))
                symbols = tuple(support[j] for j in slots)
                find[symbols] = (len(values), step)
                values.append((symbols, step, where[counts]))
            tables[t] = comps, values
        return b, find, [tables[min(b, n - d)] for d in range(0, n, b)]

    def _row(self, code: int) -> tuple[int, ...]:
        """Running sums, over the chunk values in lexicographic order, of
        the typical continuations of a prefix coded in base n+1 by its
        composition, from one pass over the typical classes: a class that
        holds the prefix, with rest_j of symbol j left, gives a chunk of
        composition c multinomial(rest) * prod_j rest_j^(c_j falling),
        which is multinomial(rest - c) times left^(t falling) for the left
        = n - depth symbols and a chunk of t.  The classes are summed as
        columns of exact Python ints."""
        prefix = [code // w % (self.n + 1) for w in self._weights]
        depth = sum(prefix)
        b, _, chunks = self._chunks
        comps, values = chunks[depth // b]
        left = self.n - depth
        t = min(b, left)
        rest = self.classes.counts[self.classes.typical] - prefix
        rest = rest[(rest >= 0).all(axis=1)].astype(object)
        scale = np.array([multinomial(r) for r in rest.tolist()], dtype=object)
        # each rest_j's falling factorials of orders 0..t, the first
        # symbol's times the multinomial
        falls = [list(itertools.accumulate(
            (rest[:, j] - i for i in range(t)), operator.mul,
            initial=scale if j == 0 else 1)) for j in range(rest.shape[1])]
        div = math.perm(left, t)
        per = [int(functools.reduce(operator.mul, map(operator.getitem, falls,
                                                      comp)).sum()) // div
               for comp in comps]
        row = self._rows[code] = tuple(
            itertools.accumulate((per[c] for _, _, c in values), initial=0))
        return row

    def _walk(self, seq) -> int:
        b, find, _ = self._chunks
        rows, code, z = self._rows, 0, 0
        for i in range(0, self.n, b):
            v, step = find[tuple(seq[i:i + b])]
            row = rows.get(code) or self._row(code)
            z += row[v]
            code += step
        return z if row[v + 1] > row[v] else self.m_count

    def xi_plus(self, seq) -> int:
        """Rank of a typical sequence, m_count for any other: per chunk the
        prefix's row gives the typical continuations with the smaller
        chunks, and the last row says whether the block's class is
        typical.  A block the walk misses (a chunk that is not a value of
        support symbols) is checked symbol by symbol and, when valid,
        walked again."""
        try:
            if len(seq) == self.n:
                return self._walk(seq)
        except (KeyError, TypeError):
            pass
        symbols = tuple(map(as_symbol, seq))
        if len(symbols) != self.n or min(symbols) < 0 or max(symbols) >= self.k:
            raise ValueError(f"a block is n={self.n} symbols in [0, {self.k}), "
                             f"not {symbols}")
        if not set(symbols) <= set(self._support):
            return self.m_count
        return self._walk(symbols)

    def contains(self, seq) -> bool:
        return self.xi_plus(seq) != self.m_count

    def rank(self, seq) -> int:
        z = self.xi_plus(seq)
        if z == self.m_count:
            raise KeyError(f"sequence {tuple(seq)} is not typical")
        return z

    def unrank(self, m: int) -> tuple[int, ...]:
        """The typical sequence of rank m: per chunk, the value at which
        the running sums of the prefix's row pass m."""
        m = operator.index(m)
        if not 0 <= m < self.m_count:
            raise IndexError(f"rank {m} outside [0, {self.m_count})")
        rows, code, out = self._rows, 0, []
        for _, values in self._chunks[2]:
            row = rows.get(code) or self._row(code)
            v = bisect.bisect_right(row, m) - 1
            m -= row[v]
            symbols, step, _ = values[v]
            out += symbols
            code += step
        return tuple(out)


def build_index(source: PMF, n: int, gamma: float) -> TypicalIndex:
    """Index the typical set; raises EmptyTypicalSetError when empty."""
    index = TypicalIndex(source, n, gamma, type_classes(source, n, gamma))
    if index.m_count == 0:
        raise EmptyTypicalSetError(
            f"no sequence is typical at n={n}, gamma={gamma}")
    return index


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(C = c) for c = 0..n of C ~ Binomial(n, p), 0 < p < 1: the ratios
    P(c+1)/P(c) = (n-c)/(c+1) * p/(1-p) multiplied outward from the mode,
    where the terms are largest, so none overflows; the result is
    normalised by its sum."""
    q, mode = 1.0 - p, min(int((n + 1) * p), n)
    c = np.arange(n, dtype=np.float64)
    down = (c[:mode] + 1.0) / (n - c[:mode]) * (q / p)
    up = (n - c[mode:]) / (c[mode:] + 1.0) * (p / q)
    pmf = np.concatenate((np.cumprod(down[::-1])[::-1], [1.0], np.cumprod(up)))
    return pmf / pmf.sum()


MISS, HIT, OPEN = 0, 1, 2


def _first_count_fates(classes: TypeClasses, n: int, g: int) -> np.ndarray:
    """Per count c = 0..n of support symbol g, the fate of a trial that
    draws it: MISS when every class with that count is typical, HIT when
    every one is atypical, OPEN when they are mixed."""
    seen = np.zeros((n + 1, 2), dtype=bool)
    seen[classes.counts[:, g], classes.typical.astype(np.intp)] = True
    fates = np.where(seen[:, 0], HIT, MISS).astype(np.int8)
    fates[seen.all(axis=1)] = OPEN
    return fates


def atypical_draw(source: PMF, n: int, classes: TypeClasses) -> tuple[
        float, float, Callable[[np.random.Generator, int], int] | None]:
    """The atypical mass as `_estimate`'s (hit, open, draw_open): a trial
    hits when its block's type class is atypical.  One support symbol's
    count often settles that alone, so the gate is the symbol whose count
    leaves the least mass undecided: `hit` and `open` are the masses of
    its Binomial(n, p) counts that decide a hit and that leave the class
    open.  `draw_open` draws an open trial's count from its pmf restricted
    to the open counts, by inversion, then the other counts with one
    multinomial on the rest of the block, and reads the class off its
    counts.  When every class is on one side, each trial's outcome is
    fixed, so `open` is 0 and `hit` is 0 or 1."""
    typical = classes.typical
    if typical.all() or not typical.any():
        return float(not typical[0]), 0.0, None
    support = source.probs[source.probs > 0.0]
    pmfs = [_binomial_pmf(n, float(p)) for p in support]
    fates = [_first_count_fates(classes, n, g) for g in range(len(support))]
    opens = [math.fsum(pmf[fate == OPEN]) for pmf, fate in zip(pmfs, fates)]
    g = int(np.argmin(opens))
    hit = math.fsum(pmfs[g][fates[g] == HIT])
    if not opens[g]:
        return hit, 0.0, None
    counts = np.flatnonzero(fates[g] == OPEN)
    cdf = np.cumsum(pmfs[g][counts])[:-1] / opens[g]
    rest = np.delete(support, g)
    rest /= rest.sum()
    atypical = prefix_lookup(classes.counts[:, :-1], ~typical, n)

    def draw_open(gen: np.random.Generator, take: int) -> int:
        c = counts[np.searchsorted(cdf, gen.random(take), side="right")]
        drawn = np.insert(gen.multinomial(n - c, rest), g, c, axis=1)
        return int(np.count_nonzero(atypical(drawn)))
    return hit, opens[g], draw_open


def atypical_mass_mc(source: PMF, n: int, gamma: float, trials: int,
                     rng: RandomStream) -> tuple[float, float]:
    """Monte Carlo estimate of the atypical mass with a 95% half-width.

    Zero observed hits fall back to the rule of three: the half-width is
    then the one-sided 95% upper bound 3/trials.
    """
    return _estimate(trials, rng,
                     *atypical_draw(source, n, type_classes(source, n, gamma)))
