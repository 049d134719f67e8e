"""Typical sets over i.i.d. sources, ranked by their type classes.

Membership uses the window |mean surprisal - H(S)| <= gamma, decided by
composition, so the scalar test, the type classes, the rank index and the
Monte Carlo draw put each type class on one side of it.  Counts, masses
and ranks come from the type classes; none enumerates k**n sequences.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .prob import PMF, CapExceededError, RandomStream, _estimate, entropy


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


def is_typical(seq, source: PMF, gamma: float) -> bool:
    """Window test on one sequence; zero-probability symbols fail, and
    symbols outside the alphabet raise ValueError.  Surprisals are summed
    over the sorted sequence, so the verdict depends on the composition
    alone and matches `type_classes` bit for bit."""
    symbols = sorted(int(s) for s in seq)
    if not symbols:
        raise ValueError("empty sequence")
    if symbols[0] < 0 or symbols[-1] >= source.support_size:
        bad = symbols[0] if symbols[0] < 0 else symbols[-1]
        raise ValueError(f"symbol {bad} outside [0, {source.support_size})")
    w = _surprisal_table(source)
    total = 0.0
    for s in symbols:
        total += w[s]
    return bool(abs(total / len(symbols) - entropy(source)) <= gamma)


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

    Membership is decided once per class, by `is_typical` on the class's
    smallest member.  Compositions that use a zero-probability symbol
    carry no mass and are never typical, so they are left out.  Cost is
    O(C(n+k-1, k-1)) classes, not k**n sequences.
    """
    if n < 1:
        raise ValueError("blocklength must be positive")
    support = [a for a, p in enumerate(source.probs) if p > 0.0]
    logs = [math.log2(float(source.probs[a])) for a in support]
    out = []
    for counts in compositions(n, len(support)):
        member = [a for a, c in zip(support, counts) for _ in range(c)]
        out.append(TypeClass(
            counts, multinomial(counts),
            math.fsum(c * lg for c, lg in zip(counts, logs)),
            is_typical(member, source, gamma)))
    return out


class TypicalIndex:
    """The typical set of a source at blocklength n, with a rank bijection.

    Rank m is the (m+1)-th typical sequence in lexicographic order, found
    by enumerative coding: each smaller support symbol at a position adds
    the typical continuations of the prefix with it, a count fixed by the
    prefix's composition.  `xi_plus` sends every atypical sequence to
    m_count.  `delta` is the atypical mass."""

    def __init__(self, source: PMF, n: int, gamma: float, classes):
        self.source, self.n, self.gamma, self.k = (source, n, gamma,
                                                   source.support_size)
        self.classes = tuple(classes)
        self.m_count = sum(c.count for c in self.classes if c.typical)
        self.delta = math.fsum(c.mass for c in self.classes if not c.typical)
        self._continuations = functools.cache(self._count_continuations)
        # per symbol: None off the support, else the weight of its count in
        # a prefix code and the weights of the smaller support symbols
        support = [a for a, p in enumerate(source.probs) if p > 0.0]
        self._walk = [None] * self.k
        for j, a in enumerate(support):
            self._walk[a] = ((n + 1) ** j, [(n + 1) ** i for i in range(j)])

    def _count_continuations(self, code: int) -> int:
        """Typical sequences that continue a prefix, whose composition is
        coded in base n+1: a multinomial sum over the typical classes."""
        base = self.n + 1
        prefix = [code // base ** j % base
                  for j in range(len(self.classes[0].counts))]
        rests = ([c - p for c, p in zip(cls.counts, prefix)]
                 for cls in self.classes if cls.typical)
        return sum(multinomial(rest) for rest in rests if min(rest) >= 0)

    def xi_plus(self, seq) -> int:
        """Rank of a typical sequence, m_count for any other."""
        symbols = [int(s) for s in seq]
        if len(symbols) != self.n or min(symbols) < 0 or max(symbols) >= self.k:
            raise ValueError(f"a block is n={self.n} symbols in [0, {self.k}), "
                             f"not {tuple(symbols)}")
        walk, cont = self._walk, self._continuations
        code = z = 0
        for s in symbols:
            if walk[s] is None:
                return self.m_count
            w, smaller = walk[s]
            for v in smaller:
                z += cont(code + v)
            code += w
        return z if cont(code) else self.m_count

    def contains(self, seq) -> bool:
        return self.xi_plus(seq) != self.m_count

    def rank(self, seq) -> int:
        z = self.xi_plus(seq)
        if z == self.m_count:
            raise KeyError(f"sequence {tuple(seq)} is not typical")
        return z

    def unrank(self, m: int) -> tuple[int, ...]:
        m = operator.index(m)
        if not 0 <= m < self.m_count:
            raise IndexError(f"rank {m} outside [0, {self.m_count})")
        steps = [(a, e[0]) for a, e in enumerate(self._walk) if e]
        cont, code, out = self._continuations, 0, []
        for _ in range(self.n):
            for a, w in steps:
                here = cont(code + w)
                if m < here:
                    break
                m -= here
            code += w
            out.append(a)
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


def composition_lookup(members, n: int,
                       parts: int) -> Callable[[np.ndarray], np.ndarray]:
    """Membership in a set of compositions of n, for each row of an int
    array.  A vector is coded in base n+1 over all but its last count,
    which the others fix; raises CapExceededError past int64 codes."""
    if (n + 1) ** (parts - 1) > np.iinfo(np.int64).max:
        raise CapExceededError(f"n={n}: count vectors over {parts} values "
                               "overflow a 64-bit code; lower n")
    powers = np.array([(n + 1) ** j for j in range(parts - 2, -1, -1)],
                      dtype=np.int64)
    table = np.array(members, dtype=np.int64).reshape(-1, parts)
    table = table[:, :-1] @ powers
    return lambda counts: np.isin(counts[:, :-1] @ powers, table)


def atypical_draw(source: PMF, n: int,
                  classes) -> Callable[[np.random.Generator, int], int]:
    """Trials of the atypical mass: each draws one block's composition
    and hits when its type class is atypical."""
    support = source.probs[source.probs > 0.0]
    hit = composition_lookup([c.counts for c in classes if not c.typical],
                             n, support.size)
    return lambda gen, take: int(np.count_nonzero(
        hit(gen.multinomial(n, support, size=take))))


def atypical_mass(source: PMF, n: int, gamma: float) -> float:
    """Exact probability of the complement of the typical set."""
    return TypicalIndex(source, n, gamma, type_classes(source, n, gamma)).delta


def atypical_mass_mc(source: PMF, n: int, gamma: float, trials: int,
                     rng: RandomStream, chunk: int = 1 << 16) -> tuple[float, float]:
    """Monte Carlo estimate of the atypical mass with a 95% half-width.

    Zero observed hits fall back to the rule of three: the half-width is
    then the one-sided 95% upper bound 3/trials.
    """
    return _estimate(trials, rng, chunk,
                     atypical_draw(source, n, type_classes(source, n, gamma)))
