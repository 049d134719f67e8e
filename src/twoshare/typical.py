"""Typical sets over i.i.d. sources, indexed by interval sums.

Membership uses the window |mean surprisal - H(S)| <= gamma, decided
exactly on a block's composition as an interval of one integer score
(`_window`), which the scalar test and the rank index both read.  No type
class list is built: fix every count but the last two and the typical
counts of the second-last form one interval between two `_comb.cut`s, so
counts and ranks sum exact binomial rows over those intervals, and the
masses add one term per class.  Two support symbols leave one prefix,
cut in Python ints; from three on the prefixes form a table, which
`_comb.cuts` cuts in numpy.  None enumerates k**n sequences.
"""
from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._comb import cut, cuts, multinomial, over_one_denominator
from .prob import PMF, RandomStream, _estimate, as_symbol


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


def _window(source: PMF, n: int, gamma: float) -> tuple[list[int], int, int]:
    """The window test of an n-block on its counts over the support
    symbols, exactly, as ints (surprisals, lo, hi).  The support's
    surprisals, H(S) and gamma are floats, so binary fractions: over one
    denominator they are ints w_j, h and g, and |sum_j c_j w_j / n - h| <= g
    reads lo = n (h - g) <= sum_j c_j w_j <= n (h + g) = hi, whatever order
    a float sum would take."""
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    *weights, h, g = over_one_denominator(
        [*source.surprisals, source.entropy, gamma])
    return weights, n * (h - g), n * (h + g)


def is_typical(seq, source: PMF, gamma: float) -> bool:
    """Window test on one sequence, decided on its composition by the
    test the index uses; zero-probability symbols fail, and symbols
    outside the alphabet or not integers raise ValueError."""
    symbols, k = tuple(map(as_symbol, seq)), source.support_size
    if not symbols:
        raise ValueError("empty sequence")
    bad = min(symbols) if min(symbols) < 0 else max(symbols)
    if not 0 <= bad < k:
        raise ValueError(f"symbol {bad} outside [0, {k})")
    weights, lo, hi = _window(source, len(symbols), gamma)
    counts = collections.Counter(symbols)
    return all(source.probs[a] > 0.0 for a in counts) and lo <= sum(
        map(operator.mul, (counts[a] for a in source.support), weights)) <= hi


class TypicalIndex:
    """The typical set of a source at blocklength n, with a rank bijection.

    Fix the counts of every support symbol but the last two (a prefix),
    and the typical counts of the second-last form one interval [lo, hi)
    between the two `cut`s of the window's bars.  `m_count` and each
    rank-map row add, per prefix, its multinomial times an interval of an
    exact binomial row; `delta` and `h_z` add one term per class.

    Rank m is the (m+1)-th typical sequence in lexicographic order, found
    by enumerative coding, b positions at a time: each lexicographically
    smaller chunk of b symbols adds the typical continuations of the
    prefix with it.  `xi_plus` sends every atypical sequence to m_count."""

    def __init__(self, source: PMF, n: int, gamma: float):
        self._surprisals, lo, hi = _window(source, n, gamma)
        if n < 1:
            raise ValueError("blocklength must be positive")
        self.source, self.n, self.gamma, self.k = (source, n, gamma,
                                                   source.support_size)
        self._bars = (lo - 1, hi)
        # the support symbols and the weights of their counts in a prefix
        # code; the chunk tables and the rank walk's rows, binomial rows
        # and prefix multinomials are built as first asked for
        self._support = source.support
        self._weights = [(n + 1) ** j for j in range(len(self._support))]
        self._rows, self._binomials, self._sizes = {}, {}, {}

    def _binomial_sums(self, r: int) -> list[int]:
        """0 and the running sums of the exact binomial row C(r, 0..r)."""
        if r not in self._binomials:
            row, c = [0], 1
            for a in range(r + 1):
                row.append(row[-1] + c)
                c = c * (r - a) // (a + 1)
            self._binomials[r] = row
        return self._binomials[r]

    def _prefixes(self, m: int, offsets=(0,)) -> tuple[list, ...]:
        """The cuts of the window for m positions over the support
        symbols in their order, as Python ints:
        per prefix its multinomial(m; r, head), head and r, then per offset
        in `offsets` each prefix's lo and hi.  A lone support symbol has
        one class, its count r = m, typical: w = H(S) = 0.  Two support
        symbols have one prefix, no head and r = m, and its two `cut`s per
        offset are a few int operations, where a numpy table would cost
        some twenty calls on one-element arrays.  From three on the
        prefixes form a table, which `cuts` decides in numpy: a Python
        loop of `cut`s over it runs several times slower."""
        if len(self._support) == 1:
            return ([1], [[]], [m], [[m]] * len(offsets),
                    [[m + 1]] * len(offsets))
        if len(self._support) == 2:
            w_i, w_j = self._surprisals
            lo, hi = [], []
            for offset in offsets:
                a, b = (cut(0, m * w_j + offset - bar, w_i - w_j, m + 1)
                        for bar in self._bars)
                lo.append([min(a, b)])
                hi.append([max(a, b)])
            return [1], [[]], [m], lo, hi
        # `cuts` reads an offset only through offset - bar, so one call
        # with each offset's two bars shifted by it serves every offset
        heads, r, ends = cuts(self._surprisals, [
            bar - offset for offset in offsets for bar in self._bars], m,
            range(len(self._support)))
        a, b = np.array(ends[0::2]), np.array(ends[1::2])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        heads, r = heads.tolist(), r.tolist()
        if m not in self._sizes:
            self._sizes[m] = [multinomial(h + [c]) for h, c in zip(heads, r)]
        return self._sizes[m], heads, r, lo.tolist(), hi.tolist()

    def _count(self, sizes: list, r: list, lo: list, hi: list) -> int:
        """Typical blocks over prefixes of `_prefixes` at one offset: per
        prefix, its multinomial times an interval of its exact binomial
        row."""
        total, rows = 0, self._binomials
        for size, t, a, b in zip(sizes, r, lo, hi):
            if a < b:
                sums = rows.get(t) or self._binomial_sums(t)
                total += size * (sums[b] - sums[a])
        return total

    @functools.cached_property
    def _block(self) -> tuple[list, ...]:
        """`_prefixes` of the whole block, read by `m_count` and `_masses`."""
        return self._prefixes(self.n)

    @functools.cached_property
    def m_count(self) -> int:
        sizes, _, r, (lo,), (hi,) = self._block
        return self._count(sizes, r, lo, hi)

    @functools.cached_property
    def _masses(self) -> tuple[float, float]:
        """(delta, H(Z)): the atypical mass, and the entropy of the rank z,
        each typical member's mass on its own value and delta on the
        sentinel.  A class's mass is log2 of its exact multinomial plus
        fsum of its c_j log2 p_j, raised in the exponent, so a huge count
        times a tiny probability cannot overflow.  With no typical block,
        delta is 1 exactly, and no rounding puts it above 1."""
        logs = [-v for v in self.source.surprisals]
        if len(logs) == 1:   # one block, of mass 1 and log2 p = 0
            return 0.0, 0.0
        if not self.m_count:   # every block is atypical
            return 1.0, 0.0
        *head_logs, log_i, log_j = logs
        sizes, heads, rs, (los,), (his,) = self._block

        def terms(typical: bool):
            # -mass log2 p per typical class (lo <= a < hi, a the count of
            # the second-last symbol) or the mass of each atypical one
            # (a < lo or a >= hi): lo <= hi, so each class is computed once
            for size, head, r, lo, hi in zip(sizes, heads, rs, los, his):
                sums = self._binomial_sums(r)
                fixed = list(map(operator.mul, head, head_logs))
                for a in (range(lo, hi) if typical else
                          itertools.chain(range(lo), range(hi, r + 1))):
                    logp = math.fsum(fixed + [a * log_i, (r - a) * log_j])
                    mass = 2.0 ** (math.log2(size * (sums[a + 1] - sums[a]))
                                   + logp)
                    yield -mass * logp if typical else mass

        # fsum rounds once, whatever order its terms come in, and holds no
        # list of them
        delta = min(math.fsum(terms(False)), 1.0)
        h_z = math.fsum(terms(True))
        return delta, h_z - delta * math.log2(delta) if delta > 0.0 else h_z

    @property
    def delta(self) -> float:
        return self._masses[0]

    @property
    def h_z(self) -> float:
        return self._masses[1]

    @functools.cached_property
    def _chunks(self):
        """The chunk length b, the largest with k'**b <= 256 values over the
        k' support symbols (at most n), and the chunks the walk reads: b
        positions per row, the last n mod b when that is not 0: one dict
        from a chunk value's symbols to (its position, its code step), per
        chunk of the walk its values in lexicographic order as (symbols,
        code step), and per chunk its span of positions, a slice."""
        support, n = self._support, self.n
        parts, b = len(support), 1
        while b < n and parts ** (b + 1) <= 256:
            b += 1
        find, tables = {}, {}
        for t in {b, n % b or b}:
            values = tables[t] = []
            for slots in itertools.product(range(parts), repeat=t):
                step = sum(self._weights[j] for j in slots)
                symbols = tuple(support[j] for j in slots)
                find[symbols] = (len(values), step)
                values.append((symbols, step))
        starts = range(0, n, b)
        return (b, find, [tables[min(b, n - d)] for d in starts],
                [slice(d, d + b) for d in starts])

    def _row(self, code: int) -> tuple[int, ...]:
        """Running sums, over the chunk values in lexicographic order, of
        the typical continuations of a prefix coded in base n+1 by its
        composition: a chunk value adds the typical blocks that extend the
        prefix with it, one count per chunk composition (its code step)."""
        (b, _, chunks, _), n = self._chunks, self.n
        values = chunks[sum(code // w % (n + 1) for w in self._weights) // b]
        steps = list({s for _, s in values})
        prefixes = [[(code + s) // w % (n + 1) for w in self._weights]
                    for s in steps]
        # every chunk composition leaves the same m positions: one set of
        # prefixes, at one score offset per composition
        sizes, _, r, lo, hi = self._prefixes(n - sum(prefixes[0]), [
            sum(map(operator.mul, prefix, self._surprisals))
            for prefix in prefixes])
        per = {s: self._count(sizes, r, a, b)
               for s, a, b in zip(steps, lo, hi)}
        row = self._rows[code] = tuple(
            itertools.accumulate((per[s] for _, s in values), initial=0))
        return row

    def _walk(self, seq) -> int:
        _, find, _, spans = self._chunks
        rows, code, z = self._rows, 0, 0
        if type(seq) is not tuple:
            seq = tuple(seq)
        for span in spans:
            v, step = find[seq[span]]
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

    def unrank(self, m: int) -> tuple[int, ...]:
        """The typical sequence of rank m: per chunk, the value at which
        the running sums of the prefix's row pass m."""
        m = m if type(m) is int else as_symbol(m, "rank")
        if not 0 <= m < self.m_count:
            raise IndexError(f"rank {m} outside [0, {self.m_count})")
        rows, code, out = self._rows, 0, []
        for values in self._chunks[2]:
            row = rows.get(code) or self._row(code)
            v = bisect.bisect_right(row, m) - 1
            m -= row[v]
            symbols, step = values[v]
            out += symbols
            code += step
        return tuple(out)


def build_index(source: PMF, n: int, gamma: float) -> TypicalIndex:
    """Index the typical set; raises EmptyTypicalSetError when empty."""
    index = TypicalIndex(source, n, gamma)
    if index.m_count == 0:
        raise EmptyTypicalSetError(
            f"no sequence is typical at n={n}, gamma={gamma}")
    return index


def atypical_mass_mc(source: PMF, n: int, gamma: float, trials: int,
                     rng: RandomStream) -> tuple[float, float]:
    """Monte Carlo estimate of the atypical mass with a 95% half-width:
    `trials` Bernoulli trials of the exact mass `TypicalIndex.delta`
    (`prob._estimate`).  Zero observed hits fall back to the rule of
    three: the half-width is then the one-sided 95% upper bound 3/trials.
    """
    return _estimate(trials, rng, TypicalIndex(source, n, gamma).delta)
