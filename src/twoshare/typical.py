"""Typical sets over i.i.d. sources, ranked by their type classes.

Membership uses the window |mean surprisal - H(S)| <= gamma, decided by
composition, so the scalar test, the type classes, the rank index and the
Monte Carlo draw put each type class on one side of it.  Counts, masses
and ranks come from the type classes; none enumerates k**n sequences.
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
            if self.param <= 0.0:
                raise ValueError("constant slack must be positive")
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


def _surprisal_table(source: PMF) -> np.ndarray:
    p = source.probs
    return np.where(p > 0.0, -np.log2(np.where(p > 0.0, p, 1.0)), np.inf)


def _in_window(counts, surprisals, h: float, gamma: float) -> bool:
    """Window test on a composition: counts[j] positions of surprisal
    surprisals[j], in ascending symbol order.  Each surprisal is added
    counts[j] times in that order, the float sequence of a sum over the
    sorted block, so every member of a type class gets one verdict."""
    total = 0.0
    for w, c in zip(surprisals, counts):
        total = functools.reduce(operator.add, itertools.repeat(w, c), total)
    return bool(abs(total / sum(counts) - h) <= gamma)


def is_typical(seq, source: PMF, gamma: float) -> bool:
    """Window test on one sequence; zero-probability symbols fail, and
    symbols outside the alphabet or not integers raise ValueError.  Decided
    on the composition, so it matches `type_classes` bit for bit."""
    symbols, k = tuple(map(as_symbol, seq)), source.support_size
    if not symbols:
        raise ValueError("empty sequence")
    bad = min(symbols) if min(symbols) < 0 else max(symbols)
    if not 0 <= bad < k:
        raise ValueError(f"symbol {bad} outside [0, {k})")
    return _in_window([symbols.count(a) for a in range(k)],
                      _surprisal_table(source).tolist(), entropy(source), gamma)


class TypeClass(NamedTuple):
    """All length-n sequences sharing one composition (symbol counts)."""

    counts: tuple[int, ...]  # per support symbol, in alphabet order
    count: int       # members: the exact multinomial coefficient
    logp: float      # log2 probability of each member
    typical: bool

    @property
    def mass(self) -> float:
        # summed in the exponent, so a huge count times a tiny per-member
        # probability cannot overflow
        return 2.0 ** (math.log2(self.count) + self.logp)


def compositions(total: int, parts: int):
    """Every way to split `total` into `parts` ordered non-negative counts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def multinomial(counts) -> int:
    """Number of sequences with the given symbol counts, exactly."""
    out, rem = 1, sum(counts)
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def type_classes(source: PMF, n: int, gamma: float) -> list[TypeClass]:
    """Every composition of a length-n block over the source's support.

    Membership is decided once per class from its counts, by the window
    test `is_typical` applies.  Compositions that use a zero-probability
    symbol carry no mass and are never typical, so they are left out.
    Cost is O(C(n+k-1, k-1)) classes, not k**n sequences.
    """
    if n < 1:
        raise ValueError("blocklength must be positive")
    support = [a for a, p in enumerate(source.probs) if p > 0.0]
    logs = [math.log2(float(source.probs[a])) for a in support]
    surprisals = _surprisal_table(source)[support].tolist()
    h = entropy(source)
    return [TypeClass(counts, multinomial(counts),
                      math.fsum(c * lg for c, lg in zip(counts, logs)),
                      _in_window(counts, surprisals, h, gamma))
            for counts in compositions(n, len(support))]


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
        self.classes = tuple(classes)
        self.m_count = sum(c.count for c in self.classes if c.typical)
        self.delta = math.fsum(c.mass for c in self.classes if not c.typical)
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
            comps = list(compositions(t, parts))
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

    @functools.cached_property
    def _typical(self) -> np.ndarray:
        """The typical classes' counts over the support, one row each."""
        return np.array([c.counts for c in self.classes if c.typical],
                        dtype=np.int64).reshape(-1, len(self._support))

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
        rest = self._typical - prefix
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
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    index = TypicalIndex(source, n, gamma, type_classes(source, n, gamma))
    if index.m_count == 0:
        raise EmptyTypicalSetError(
            f"no sequence is typical at n={n}, gamma={gamma}")
    return index


def _prefix_rank(n: int, digits: int) -> Callable[[np.ndarray], np.ndarray]:
    """Rank of each row's prefix, its leading d = `digits` counts summing
    to at most n, onto [0, C(n+d, d)).  The running sums S_1 <= ... <= S_d
    <= n, shifted to S_i + i - 1, are a d-subset of [0, n+d), and its rank
    in the combinatorial number system is the sum of C(S_i + i - 1, i),
    read off one (n+1) x (d+1) table.  The first term, C(S_1, 1), is the
    first count itself, so a one-count prefix is its own rank."""
    table = np.array([[math.comb(t + i - 1, i) if t else 0
                       for i in range(digits + 1)] for t in range(n + 1)],
                     dtype=np.int64)

    def rank(rows: np.ndarray) -> np.ndarray:
        if not digits:
            return np.zeros(len(rows), dtype=np.int64)
        out = total = rows[:, 0]
        for i in range(1, digits):
            total = total + rows[:, i]
            out = out + table[total, i + 1]
        return out
    return rank


def prefix_lookup(prefixes, values, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The value of each row's prefix, for rows of count vectors that sum
    to n: a prefix is a row's leading counts, and `prefixes` holds every
    prefix a row can have, each once, with its value alongside; ValueError
    when they do not.  The values sit in an array by `_prefix_rank`, so a
    lookup is one gather per prefix count."""
    table = np.array(prefixes, dtype=np.int64)
    digits = table.shape[1]
    size = math.comb(n + digits, digits)
    rank = _prefix_rank(n, digits)
    # in range, each prefix has a rank below size: the ranks are then a
    # permutation exactly when none repeats
    if (len(table) != size or table.min(initial=0) < 0
            or table.sum(axis=1).max(initial=0) > n
            or np.bincount(ranks := rank(table), minlength=size).max() != 1):
        raise ValueError(f"prefixes must list each of the {size} prefixes of "
                         f"{digits} counts summing to at most {n} once")
    values = np.asarray(values)
    by_rank = np.empty(size, dtype=values.dtype)
    by_rank[ranks] = values
    return lambda counts: by_rank[rank(counts)]


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


def _first_counts(n: int, p: float) -> Callable[[np.random.Generator, int],
                                                np.ndarray]:
    """Draws of C ~ Binomial(n, p) by inversion, one uniform u each: C is
    the number of CDF values P(C <= c), c < n, at or below u.  A guide
    table of 2**e >= 8(n+1) equal cells of [0, 1) holds the count of each
    cell with no CDF value inside, which every u in it shares; a u in any
    other cell is searched for in the CDF (the guide table of H. C. Chen
    and Y. Asau, 1974; L. Devroye 1986, ch. III.2).  The
    uniforms and the CDF are scaled by 2**e in place, which is exact, and
    the counts are int32, so a chunk holds few temporaries."""
    cells = 1 << ((n + 1).bit_length() + 3)
    cdf = np.cumsum(_binomial_pmf(n, p))[:-1] * cells
    edges = np.searchsorted(cdf, np.arange(cells + 1), side="right")
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1).astype(np.int32)

    def draw(gen: np.random.Generator, take: int) -> np.ndarray:
        u = gen.random(take)
        u *= cells
        c = guide[u.astype(np.int32)]
        near = np.flatnonzero(c < 0)
        c[near] = np.searchsorted(cdf, u[near], side="right")
        return c
    return draw


MISS, HIT, OPEN = 0, 1, 2


def _first_count_fates(classes, n: int) -> np.ndarray:
    """Per first support count c0 = 0..n, the fate of a trial that draws
    it: MISS when every class with that count is typical, HIT when every
    one is atypical, OPEN when they are mixed."""
    seen = np.zeros((n + 1, 2), dtype=bool)
    for c in classes:
        seen[c.counts[0], int(c.typical)] = True
    fates = np.where(seen[:, 0], HIT, MISS).astype(np.int8)
    fates[seen.all(axis=1)] = OPEN
    return fates


def atypical_draw(source: PMF, n: int,
                  classes) -> Callable[[np.random.Generator, int], int]:
    """Trials of the atypical mass: each hits when its block's type class
    is atypical.  A trial draws the first support symbol's count by
    inversion; where that count leaves the class undecided, the other
    counts follow from one multinomial on the rest of the block, and the
    class is read off its counts.  When every class is on one side, each
    trial's outcome is fixed, so none is drawn."""
    sides = {c.typical for c in classes}
    if len(sides) == 1:
        hit = not sides.pop()
        return lambda gen, take: take * hit
    support = source.probs[source.probs > 0.0]
    first = _first_counts(n, float(support[0]))
    fates = _first_count_fates(classes, n)
    rest = support[1:] / support[1:].sum()
    hit = prefix_lookup([c.counts[:-1] for c in classes],
                        [not c.typical for c in classes], n)

    def draw(gen: np.random.Generator, take: int) -> int:
        c0 = first(gen, take)
        fate = fates[c0]
        hits = int(np.count_nonzero(fate == HIT))
        c0 = c0[fate == OPEN]
        if c0.size:
            counts = np.column_stack((c0, gen.multinomial(n - c0, rest)))
            hits += int(np.count_nonzero(hit(counts)))
        return hits
    return draw


def atypical_mass_mc(source: PMF, n: int, gamma: float, trials: int,
                     rng: RandomStream) -> tuple[float, float]:
    """Monte Carlo estimate of the atypical mass with a 95% half-width.

    Zero observed hits fall back to the rule of three: the half-width is
    then the one-sided 95% upper bound 3/trials.
    """
    return _estimate(trials, rng,
                     atypical_draw(source, n, type_classes(source, n, gamma)))
