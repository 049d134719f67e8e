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

from .outcome import DecodeOutcome, REJECT
from .prob import CapExceededError, RandomStream, _estimate, entropy
from .typical import TypicalIndex, atypical_draw

# floor(2**bits) stays exactly representable as float64 up to 2**52; the
# exact evaluators cap far lower, at 40 bits of masking randomness.
MAX_MASK_BITS = 40.0


class MaskBitsError(CapExceededError, ValueError):
    """n * ell asks for more masking bits than MAX_MASK_BITS."""


class MaskDrawError(CapExceededError):
    """M + 1 mask values are more than one 64-bit integer draw covers."""


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


@dataclass(frozen=True)
class BlockShare:
    """One share: a common-randomness component and a masked-rank component."""
    l: int
    m: int


@dataclass(frozen=True)
class BlockRandomness:
    u_l: int
    u_m: int


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
        # validates the n*ell <= 40 restriction as a side effect
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

    def share_to_flat(self, share: BlockShare) -> int:
        return share.l * self.mp1 + share.m

    def flat_to_share(self, flat: int) -> BlockShare:
        l, m = divmod(int(flat), self.mp1)
        return BlockShare(l, m)

    def check_shares(self, *shares: BlockShare):
        """ValueError naming the first share outside the share alphabet."""
        l_count, mp1 = self.l_count, self.mp1
        for share in shares:
            if not (0 <= share.l < l_count and 0 <= share.m < mp1):
                raise ValueError(f"share {share} outside the share alphabet")

    def mask_range(self) -> int:
        """M + 1, the range of u_m: numpy draws it while M fits an int64."""
        if self.mp1 > 1 << 63:
            raise MaskDrawError(f"n={self.n}: {self.mp1} mask values "
                                "exceed a 64-bit integer draw; lower n")
        return self.mp1

    def draw_randomness(self, rng: RandomStream) -> BlockRandomness:
        u_l = int(rng.gen.integers(self.l_count))
        u_m = int(rng.gen.integers(self.mask_range()))
        return BlockRandomness(u_l, u_m)


def encode(params: BlockwiseParams, secret, r: BlockRandomness) -> tuple[BlockShare, BlockShare]:
    """Split one secret block into two shares using randomness r."""
    mp1 = params.mp1
    if not 0 <= r.u_l < params.l_count:
        raise ValueError(f"u_l={r.u_l} outside [0, {params.l_count})")
    if not 0 <= r.u_m < mp1:
        raise ValueError(f"u_m={r.u_m} outside [0, {mp1})")
    z = params.index.xi_plus(secret)
    x = BlockShare(r.u_l, (z - r.u_m) % mp1)
    y = BlockShare(r.u_l, r.u_m)
    return x, y


def accepts(params: BlockwiseParams, x: BlockShare, y: BlockShare) -> bool:
    """Share-pair acceptance test: matching mask, non-sentinel modular sum."""
    params.check_shares(x, y)
    if x.l != y.l:
        return False
    return (x.m + y.m) % params.mp1 != params.mp1 - 1


def decode(params: BlockwiseParams, x: BlockShare, y: BlockShare) -> DecodeOutcome:
    if not accepts(params, x, y):
        return REJECT
    z = (x.m + y.m) % params.mp1
    return DecodeOutcome(params.index.unrank(z))


@dataclass(frozen=True)
class BlockQuantities:
    """Exact single-run quantities of a blockwise configuration.

    Information quantities are totals in bits over the whole block;
    rates are per-symbol.  `sandwich_lo`/`sandwich_hi` bound the
    per-symbol correlation (1/n) I(X;Y).
    """

    n: int
    gamma: float
    l_count: int
    m_count: int
    h_s: float
    delta: float
    p_e: float
    i_sx: float
    i_sy: float
    i_xy: float
    rate_x: float
    rate_y: float
    rate_u: float
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
    """Exact error, secrecy, and correlation from the type classes.

    Every quantity depends on the secret block only through its rank z,
    and z's law follows from the type classes: each typical member has
    its own rank, and the atypical mass delta sits on the sentinel M.
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
    n = params.n
    idx = params.index
    source = idx.source
    m, delta = idx.m_count, idx.delta
    h_z = math.fsum(-c.mass * c.logp for c in idx.classes if c.typical)
    if delta > 0.0:
        h_z -= delta * math.log2(delta)
    i_l = math.log2(params.l_count)
    i_xy = i_l + _clamp_mi(math.log2(m + 1) - h_z)
    h_s = entropy(source)
    h_s_given_xy = max(n * h_s - h_z, 0.0)

    rate = math.log2(params.share_size) / n
    lo = i_l / n
    penalty = (delta * math.log2(delta) if delta > 0.0 else 0.0) + 1.0
    hi = lo + delta * h_s + (2.0 - delta) * idx.gamma + penalty / n
    return BlockQuantities(
        n=n, gamma=idx.gamma, l_count=params.l_count,
        m_count=m, h_s=h_s, delta=delta, p_e=delta,
        i_sx=0.0, i_sy=0.0, i_xy=i_xy,
        rate_x=rate, rate_y=rate, rate_u=rate,
        h_s_given_xy=h_s_given_xy, sandwich_lo=lo, sandwich_hi=hi)


def monte_carlo_error(params: BlockwiseParams, trials: int,
                      rng: RandomStream) -> tuple[float, float]:
    """MC estimate of the decoding error probability with a 95% half-width.

    A legitimate pair is rejected exactly when z = M, so a trial draws the
    secret's composition and reads its type class; the rank map is unused.
    """
    idx = params.index
    return _estimate(trials, rng, *atypical_draw(idx.source, idx.n, idx.classes))
