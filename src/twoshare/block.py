"""Blockwise two-share scheme over a typical-set index.

A secret block s^n is mapped through the typical-set rank (atypical blocks
collapse to the sentinel value M) and masked with one-time randomness:

    X = (u_l, (z - u_m) mod (M+1))        Y = (u_l, u_m)

with u_l uniform over L = floor(2**(n*ell)) values and u_m uniform over
M+1 values.  The decoder accepts when the first components match and the
modular sum of the second components is not the sentinel, in which case it
inverts the rank.  Either share alone is exactly uniform, so a single
share carries zero information about the secret.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .outcome import DecodeOutcome, REJECT
from .prob import CapExceededError, RandomStream, as_symbol
from .typical import TypicalIndex

# L = floor(2**bits) is an exact int at any size, but the attack success,
# beta and the direct cap divide by it as a float, which holds L < 2**1024.
MAX_MASK_BITS = 1023.0


class MaskBitsError(CapExceededError, ValueError):
    """n * ell asks for more masking bits than MAX_MASK_BITS."""


def floor_pow2(bits: float) -> int:
    """floor(2**bits), exactly: 2**(c/2**e), for bits = i + c/2**e, is e
    square roots y <- sqrt(y 2**bit), per bit of c from the lowest, bounded
    at p bits from below and above; p doubles until both floor alike."""
    if not bits >= 0.0:
        raise ValueError("exponent must be non-negative")
    if bits > MAX_MASK_BITS + 1e-9:
        raise MaskBitsError(f"exponent {bits} exceeds the {MAX_MASK_BITS}-bit "
                            "limit; lower n or ell")
    num, den = float(bits).as_integer_ratio()
    e, p = den.bit_length() - 1, 64
    while True:
        lo = hi = 1 << p
        for t in range(e):  # the low e bits of num are those of c
            lo = math.isqrt(lo << (p + (num >> t & 1)))
            hi = math.isqrt((hi << (p + (num >> t & 1))) - 1) + 1
        lo, hi = (lo << (num >> e)) >> p, (hi << (num >> e)) >> p
        if lo == hi:
            return lo
        p *= 2


class BlockShare(NamedTuple):
    """One share: a common-randomness component and a masked-rank component.
    A value: it compares and hashes as the tuple (l, m)."""
    l: int
    m: int


class BlockRandomness(NamedTuple):
    u_l: int
    u_m: int


# builds a share or an outcome from a tuple of checked ints, without the
# NamedTuple constructor's Python frame
_new = tuple.__new__


@dataclass(frozen=True)
class BlockwiseParams:
    """Scheme parameters tied to a concrete typical-set index.

    L = l_count and M + 1 = mp1 are read on every codec call, so they are
    stored at construction."""

    ell: float
    index: TypicalIndex
    l_count: int = field(init=False, repr=False, compare=False)
    mp1: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ell >= 0.0:
            raise ValueError("correlation level must be non-negative")
        # validates the n*ell <= MAX_MASK_BITS restriction as a side effect
        object.__setattr__(self, "l_count", floor_pow2(self.index.n * self.ell))
        object.__setattr__(self, "mp1", self.index.m_count + 1)

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def m_count(self) -> int:
        return self.index.m_count

    @property
    def share_size(self) -> int:
        """Number of distinct share values L * (M + 1)."""
        return self.l_count * self.mp1

    def check_shares(self, x: BlockShare, y: BlockShare) -> tuple[int, ...]:
        """x's l and m, then y's, as ints; ValueError naming the first that
        is not an integer or share outside the share alphabet.  Four ints
        in range pass on one type test and one range test each."""
        (xl, xm), (yl, ym) = x, y
        l_count, mp1 = self.l_count, self.mp1
        if (type(xl) is type(xm) is type(yl) is type(ym) is int
                and 0 <= xl < l_count and 0 <= yl < l_count
                and 0 <= xm < mp1 and 0 <= ym < mp1):
            return xl, xm, yl, ym
        out = ()
        for share in (x, y):
            l, m = (v if type(v) is int else as_symbol(v, f"share {name}")
                    for v, name in zip(share, "lm"))
            if not (0 <= l < l_count and 0 <= m < mp1):
                raise ValueError(f"share {share} outside the share alphabet")
            out += l, m
        return out

    def draw_randomness(self, rng: RandomStream) -> BlockRandomness:
        """Uniform u_l, then u_m, at any L and M + 1: the only mask draw."""
        return BlockRandomness(rng.integers(self.l_count),
                               rng.integers(self.mp1))


def encode(params: BlockwiseParams, secret, r: BlockRandomness) -> tuple[BlockShare, BlockShare]:
    """Split one secret block into two shares using randomness r: u_l and
    u_m as ints, ValueError naming the first that is not an integer or out
    of range."""
    u_l, u_m = r
    mp1 = params.mp1
    if not (type(u_l) is type(u_m) is int and 0 <= u_l < params.l_count
            and 0 <= u_m < mp1):
        u_l = u_l if type(u_l) is int else as_symbol(u_l, "u_l")
        u_m = u_m if type(u_m) is int else as_symbol(u_m, "u_m")
        if not 0 <= u_l < params.l_count:
            raise ValueError(f"u_l={u_l} outside [0, {params.l_count})")
        if not 0 <= u_m < mp1:
            raise ValueError(f"u_m={u_m} outside [0, {mp1})")
    z = params.index.xi_plus(secret)
    return (_new(BlockShare, (u_l, (z - u_m) % mp1)),
            _new(BlockShare, (u_l, u_m)))


def _rank(params: BlockwiseParams, x: BlockShare, y: BlockShare) -> int | None:
    """The rank z of an accepted share pair, from its checked components."""
    xl, xm, yl, ym = params.check_shares(x, y)
    z = (xm + ym) % params.mp1
    return z if xl == yl and z != params.mp1 - 1 else None


def accepts(params: BlockwiseParams, x: BlockShare, y: BlockShare) -> bool:
    """Share-pair acceptance test: matching mask, non-sentinel modular sum."""
    return _rank(params, x, y) is not None


def decode(params: BlockwiseParams, x: BlockShare, y: BlockShare) -> DecodeOutcome:
    z = _rank(params, x, y)
    return REJECT if z is None else _new(DecodeOutcome,
                                         (params.index.unrank(z),))


@dataclass(frozen=True)
class BlockQuantities:
    """Exact single-run quantities of a blockwise configuration.

    Information quantities are totals in bits over the whole block;
    rates are per-symbol.  `sandwich_lo`/`sandwich_hi` bound the
    per-symbol correlation (1/n) I(X;Y).
    """

    h_s: float
    delta: float
    i_xy: float
    rate_x: float
    h_s_given_xy: float
    sandwich_lo: float
    sandwich_hi: float


def _clamp_mi(value: float) -> float:
    # mutual information is nonnegative; differences of entropies pick up
    # rounding noise of order 1e-15
    if value < -1e-9:
        raise ArithmeticError(f"mutual information came out {value}")
    return max(value, 0.0)


def exact_quantities(params: BlockwiseParams) -> BlockQuantities:
    """Exact error, secrecy, and correlation from the typical-set index.

    Every quantity depends on the secret block only through its rank z,
    and z's law follows from the index: each typical member has its own
    rank, and the atypical mass delta sits on the sentinel M.
      - A legitimate pair is rejected exactly when z = M, so
        p_e = delta.
      - Either masked component alone is uniform over M+1 values given
        any secret, and u_l is independent of the secret, so
        I(S;X) = I(S;Y) = 0.
      - u_l appears in both shares and the masked pair is the circulant
        p_z[(x+y) mod (M+1)] / (M+1), so
        I(X;Y) = log2 L + log2(M+1) - H(Z).
      - The pair determines (u_l, u_m, z) and s^n -> (s^n, z) is a
        bijection, so H(S^n | X Y) = n H(S) - H(Z).
    """
    n, idx = params.n, params.index
    delta, h_z = idx.delta, idx.h_z
    i_l = math.log2(params.l_count)
    i_xy = i_l + _clamp_mi(math.log2(idx.m_count + 1) - h_z)
    h_s = idx.source.entropy
    lo = i_l / n
    penalty = (delta * math.log2(delta) if delta > 0.0 else 0.0) + 1.0
    hi = lo + delta * h_s + (2.0 - delta) * idx.gamma + penalty / n
    return BlockQuantities(
        h_s=h_s, delta=delta, i_xy=i_xy,
        rate_x=math.log2(params.share_size) / n,
        h_s_given_xy=max(n * h_s - h_z, 0.0), sandwich_lo=lo, sandwich_hi=hi)
