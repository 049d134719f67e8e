"""Impersonation attacks and information-theoretic bound checkers.

The attacker hands the combiner a forged share and hopes the legitimate
counterpart share makes the pair acceptable.  In both schemes each honest
share is uniform and independent of the forgery, so every forged share,
on either side, succeeds with one mass: that of an accepted independent
pair, beta.  Ties resolve to the lexicographically smallest forgery.

Bound checkers take exact or estimated test quantities as floats:
  alpha = P{legitimate pair rejected},  beta = P{independent pair accepted}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .block import BlockwiseParams
from .prob import binary_entropy
from .symbol import SymbolwiseCodec


@dataclass(frozen=True)
class AttackResult:
    success_prob: float
    optimal_forgery: tuple
    side: str


def _check_side(side: str):
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")


# ---------------------------------------------------------------------------
# Blockwise attacks


def blockwise_attack(params: BlockwiseParams, side: str = "x") -> AttackResult:
    """Exact optimal forgery against the blockwise acceptance test.

    Both components of either honest share are uniform (the masked X
    component is the rank shifted by a uniform mask), so every forged
    share succeeds with the same mass M / ((M+1) L), which is also beta.
    The tie resolves to the lexicographically least forgery (0, 0).
    """
    _check_side(side)
    # a forged share matches the uniform honest u_l with mass 1/L, and its
    # masked component is rejected by exactly one of the M+1 honest masked
    # values, each of which has mass 1/(M+1) whichever share is honest
    m = params.m_count
    return AttackResult(success_prob=m / (m + 1) / params.l_count,
                        optimal_forgery=(0, 0), side=side)


# ---------------------------------------------------------------------------
# Symbolwise attacks


def symbolwise_attack(codec: SymbolwiseCodec, side: str = "x") -> AttackResult:
    """Exact optimal forged sequence on the score lattice.

    Against the modular splitter the honest share meets each secret
    symbol once whichever symbol is forged, on either side, so every
    forged symbol puts the same mass on each lattice value
    (`laws.forged`) and every forged sequence succeeds with one interval
    sum over n positions, which is also beta.  The tie resolves to the
    least forgery, all zeros.  Raises LatticeCapError past
    `symbol.LATTICE_CAP` prefixes.
    """
    _check_side(side)
    return AttackResult(success_prob=codec.lattice.mass(codec.laws.forged),
                        optimal_forgery=(0,) * codec.n, side=side)


# ---------------------------------------------------------------------------
# Test quantities and converse checkers


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool = False


# slack of every bound verdict, here and in the harness
BOUND_TOL = 1e-9


def logsum_bound_check(i_xy_bits: float, alpha: float,
                       beta: float) -> BoundCheck:
    """Correlation lower bound I(X;Y) >= -h(alpha) - (1-alpha) log2 beta.

    beta = 0 makes the right side infinite in principle but the acceptance
    region then has no independent mass at all and the bound is vacuous.
    """
    if beta <= 0.0:
        return BoundCheck(lhs=i_xy_bits, rhs=math.inf, holds=True, vacuous=True)
    rhs = -binary_entropy(min(max(alpha, 0.0), 1.0)) \
        - (1.0 - alpha) * math.log2(beta)
    return BoundCheck(lhs=i_xy_bits, rhs=rhs,
                      holds=i_xy_bits >= rhs - BOUND_TOL)


def fano_check(p_e: float, h_s_given_xy_bits: float, n: int,
               secret_size: int) -> BoundCheck:
    """(1/n) H(S^n | X Y) <= (1/n) h(P_e) + P_e log2 |S|."""
    lhs = h_s_given_xy_bits / n
    rhs = binary_entropy(min(max(p_e, 0.0), 1.0)) / n + p_e * math.log2(secret_size)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + BOUND_TOL)


def converse_exponent_check(i_xy_bits: float, alpha: float, p_x: float,
                            p_y: float, n: int) -> BoundCheck:
    """Attack exponents cannot outrun the correlation rate.

    Rearranges the correlation lower bound into
    max exponent <= [ (1/n) I(X;Y) + (1/n) h(alpha) ] / (1 - alpha).
    """
    if alpha >= 1.0 - 1e-12:
        return BoundCheck(lhs=math.inf, rhs=math.inf, holds=True, vacuous=True)
    if p_x <= 0.0 or p_y <= 0.0:
        # a zero attack probability has no finite exponent to bound
        return BoundCheck(lhs=math.inf, rhs=math.inf, holds=True, vacuous=True)
    lhs = max(-math.log2(p_x) / n, -math.log2(p_y) / n)
    rhs = (i_xy_bits / n + binary_entropy(min(max(alpha, 0.0), 1.0)) / n) \
        / (1.0 - alpha)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + BOUND_TOL)
