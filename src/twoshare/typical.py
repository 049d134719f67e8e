"""Typical sets over i.i.d. sources, with an indexable member list.

Membership uses the two-sided window |mean surprisal - H(S)| <= gamma.
Surprisals accumulate left to right everywhere (scalar and vectorized
paths), so a sequence lands on the same side of the window no matter
which path tests it.  Exact masses and counts come from the type classes
(compositions), whose number is polynomial in n, and Monte Carlo draws a
block's composition and reads its class's flag; only the rank index
enumerates all k**n sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .prob import (PMF, CapExceededError, DENSE_CAP, RandomStream, _estimate,
                   entropy)


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


def surprisal_totals(source: PMF, n: int, cap: int = DENSE_CAP) -> np.ndarray:
    """Total surprisal of every length-n sequence, lexicographic order."""
    if source.support_size ** n > cap:
        raise CapExceededError(
            f"{source.support_size ** n} sequences exceed the cap {cap}; "
            "use the Monte Carlo path")
    w = _surprisal_table(source)
    totals = w.copy()
    for _ in range(n - 1):
        totals = (totals[:, None] + w[None, :]).ravel()
    return totals


def is_typical(seq, source: PMF, gamma: float) -> bool:
    """Window test on one sequence; symbols outside the support fail."""
    w = _surprisal_table(source)
    total = 0.0
    n = 0
    for s in seq:
        total += w[int(s)]
        n += 1
    if n == 0:
        raise ValueError("empty sequence")
    return bool(abs(total / n - entropy(source)) <= gamma)


@dataclass(frozen=True)
class TypicalIndex:
    """The typical set of a source at blocklength n, with a rank bijection.

    `member_codes` holds the lexicographic codes of members in increasing
    order, so rank m corresponds to the (m+1)-th typical sequence in
    lexicographic order.  `xi_plus` extends the rank map by sending every
    atypical sequence to m_count.
    """

    source: PMF
    n: int
    gamma: float
    member_codes: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return self.source.support_size

    @property
    def m_count(self) -> int:
        return int(self.member_codes.shape[0])

    def _code(self, seq) -> int:
        code = 0
        for s in seq:
            s = int(s)
            if not 0 <= s < self.k:
                raise ValueError(f"symbol {s} outside alphabet of size {self.k}")
            code = code * self.k + s
        return code

    def contains(self, seq) -> bool:
        code = self._code(seq)
        i = int(np.searchsorted(self.member_codes, code))
        return i < self.m_count and int(self.member_codes[i]) == code

    def rank(self, seq) -> int:
        code = self._code(seq)
        i = int(np.searchsorted(self.member_codes, code))
        if i >= self.m_count or int(self.member_codes[i]) != code:
            raise KeyError(f"sequence {tuple(seq)} is not typical")
        return i

    def unrank(self, m: int) -> tuple[int, ...]:
        if not 0 <= m < self.m_count:
            raise IndexError(f"rank {m} outside [0, {self.m_count})")
        code = int(self.member_codes[m])
        digits = []
        for _ in range(self.n):
            code, d = divmod(code, self.k)
            digits.append(d)
        return tuple(reversed(digits))

    def xi_plus(self, seq) -> int:
        code = self._code(seq)
        i = int(np.searchsorted(self.member_codes, code))
        if i < self.m_count and int(self.member_codes[i]) == code:
            return i
        return self.m_count


def build_index(source: PMF, n: int, gamma: float,
                cap: int = DENSE_CAP) -> TypicalIndex:
    """Enumerate the typical set; raises EmptyTypicalSetError when empty."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    totals = surprisal_totals(source, n, cap)
    h = entropy(source)
    mask = np.abs(totals / n - h) <= gamma
    codes = np.nonzero(mask)[0].astype(np.int64)
    if codes.shape[0] == 0:
        raise EmptyTypicalSetError(
            f"no sequence is typical at n={n}, gamma={gamma}")
    return TypicalIndex(source, n, gamma, codes)


class TypeClass(NamedTuple):
    """All length-n sequences sharing one composition (symbol counts)."""

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


def type_classes(source: PMF, n: int, gamma: float) -> list[TypeClass]:
    """Every composition of a length-n block over the source's support.

    Membership depends on a sequence only through its composition, so it
    is decided once per class, by `is_typical` on the lexicographically
    smallest member: that is the same left-to-right surprisal sum the
    dense index takes for that sequence.  Compositions that use a
    zero-probability symbol carry no mass and are never typical, so they
    are left out.  Cost is O(C(n+k-1, k-1)) classes, not k**n sequences.
    """
    if n < 1:
        raise ValueError("blocklength must be positive")
    support = [a for a, p in enumerate(source.probs) if p > 0.0]
    logs = [math.log2(float(source.probs[a])) for a in support]
    out = []
    for counts in compositions(n, len(support)):
        count, rem = 1, n
        for c in counts:
            count *= math.comb(rem, c)
            rem -= c
        member = [a for a, c in zip(support, counts) for _ in range(c)]
        out.append(TypeClass(
            count, math.fsum(c * lg for c, lg in zip(counts, logs)),
            is_typical(member, source, gamma)))
    return out


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
                  gamma: float) -> Callable[[np.random.Generator, int], int]:
    """Trials of the atypical mass: each draws one block's composition
    and hits when its type class is atypical."""
    support = source.probs[source.probs > 0.0]
    # type_classes lists its classes in compositions() order
    atypical = [c for c, cls in zip(compositions(n, support.size),
                                    type_classes(source, n, gamma))
                if not cls.typical]
    hit = composition_lookup(atypical, n, support.size)
    return lambda gen, take: int(np.count_nonzero(
        hit(gen.multinomial(n, support, size=take))))


def typical_set_totals(classes: list[TypeClass]) -> tuple[int, float]:
    """Typical-set size M and atypical mass of a type-class list."""
    m_count = sum(c.count for c in classes if c.typical)
    return m_count, math.fsum(c.mass for c in classes if not c.typical)


def atypical_mass(source: PMF, n: int, gamma: float) -> float:
    """Exact probability of the complement of the typical set."""
    return typical_set_totals(type_classes(source, n, gamma))[1]


def atypical_mass_mc(source: PMF, n: int, gamma: float, trials: int,
                     rng: RandomStream, chunk: int = 1 << 16) -> tuple[float, float]:
    """Monte Carlo estimate of the atypical mass with a 95% half-width.

    Zero observed hits fall back to the rule of three: the half-width is
    then the one-sided 95% upper bound 3/trials.
    """
    return _estimate(trials, rng, chunk, atypical_draw(source, n, gamma))
