"""Impersonation attacks and information-theoretic bound checkers.

The attacker hands the combiner a forged share and hopes the legitimate
counterpart share makes the pair acceptable.  Success probability is linear
in the forgery distribution, so an optimal attack sits on a point mass and
exact search only needs to scan forged share values; ties resolve to the
lexicographically smallest forgery.

Bound checkers take exact or estimated test quantities as floats:
  alpha = P{legitimate pair rejected},  beta = P{independent pair accepted}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._comb import composition_count, compositions
from .block import BlockwiseParams
from .prob import binary_entropy
from .symbol import SymbolwiseCodec, check_lattice_points, walk_size


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


def blockwise_forgery_success(params: BlockwiseParams) -> float:
    """M / ((M+1) L), the success of every forged share, and also beta:
    an independent X is uniform like any forged share."""
    # a forged share matches the uniform honest u_l with mass 1/L, and its
    # masked component is rejected by exactly one of the M+1 honest masked
    # values, each of which has mass 1/(M+1) whichever share is honest
    return params.m_count / (params.m_count + 1) / params.l_count


def blockwise_attack(params: BlockwiseParams, side: str = "x") -> AttackResult:
    """Exact optimal forgery against the blockwise acceptance test.

    Both components of either honest share are uniform (the masked X
    component is the rank shifted by a uniform mask), so every forged
    share succeeds with the same mass M / ((M+1) L).  The tie resolves to
    the lexicographically least forgery (0, 0).
    """
    _check_side(side)
    return AttackResult(success_prob=blockwise_forgery_success(params),
                        optimal_forgery=(0, 0), side=side)


# ---------------------------------------------------------------------------
# Symbolwise attacks


def _classes(codec: SymbolwiseCodec, side: str) -> tuple[list, ...]:
    """The forged symbols of one side in classes of equal mass vectors,
    the honest share's mass on each lattice value against them, in order
    of their least symbols: per class its mass vector, least symbol, count
    of values of positive mass, and score law keyed by lattice weight."""
    classes: dict[tuple[float, ...], int] = {}   # mass vector -> least symbol
    for a, row in enumerate(codec.laws.forged[side]):
        classes.setdefault(row, a)
    masses, weights = list(classes), codec.lattice.weights
    return (masses, list(classes.values()),
            [sum(q > 0.0 for q in ms) for ms in masses],
            [{w: q for w, q in zip(weights, ms) if q > 0.0} for ms in masses])


def _points(sizes: list, counts) -> int:
    """Lattice points `_success` walks for the class counts of a forgery:
    the count vectors of the other classes times the prefixes of the
    last, by each class's count of values of positive mass (`sizes`)."""
    *rest, last = zip(counts, sizes)
    return walk_size(*last) * math.prod(
        composition_count(c, d) if d else 1 for c, d in rest)


def _success(lat, last: tuple[float, ...], steps: list, counts) -> float:
    """Exact success of a forgery that fills counts[i] positions with
    symbols of class i: the other classes' score laws (`steps`) convolved,
    keyed by their exact integer score, and the last class, of mass
    vector `last`, summed by intervals against the bar shifted by each
    key."""
    law = {0: 1.0}   # integer score of the other classes' positions
    for step, cnt in zip(steps, counts[:-1]):
        for _ in range(cnt):
            law = _convolve_scores(law, step)
    return math.fsum(p * lat.mass(last, counts[-1], offset=key)
                     for key, p in law.items())


def symbolwise_attack(codec: SymbolwiseCodec, side: str = "x") -> AttackResult:
    """Exact optimal forged sequence on the score lattice.

    A forged symbol fixes the mass the honest share puts on each lattice
    value, so forged symbols with equal mass vectors are interchangeable
    and success depends only on how many positions each such class fills
    (`_classes`).  Each forged composition is scored by `_success`.
    Against the modular splitter every forged symbol falls in one class,
    so this is one interval sum.  `symbol.LATTICE_CAP` bounds the points
    walked: per composition, the count vectors of the other classes times
    the prefixes of the last.
    """
    _check_side(side)
    n = codec.n
    masses, least, sizes, steps = _classes(codec, side)
    # each composition walks at least one point: bound the scan first
    check_lattice_points(n, composition_count(n, len(masses)))
    scan = compositions(n, len(masses)).tolist()
    check_lattice_points(n, sum(_points(sizes, c) for c in scan))
    best_prob = -1.0
    best_seq: tuple[int, ...] | None = None
    for counts in scan:
        prob = _success(codec.lattice, masses[-1], steps, counts)
        seq = tuple(sorted(sym for ci, cnt in enumerate(counts)
                           for sym in [least[ci]] * cnt))
        if prob > best_prob or (prob == best_prob and best_seq is not None
                                and seq < best_seq):
            best_prob = prob
            best_seq = seq
    return AttackResult(success_prob=float(best_prob), optimal_forgery=best_seq,
                        side=side)


def _convolve_scores(a: dict, b: dict) -> dict:
    out: dict[int, float] = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            out[ka + kb] = out.get(ka + kb, 0.0) + pa * pb
    return out


def optimal_attack(scheme, side: str = "x") -> AttackResult:
    """The exact optimal attack on either scheme object."""
    if isinstance(scheme, BlockwiseParams):
        return blockwise_attack(scheme, side)
    if isinstance(scheme, SymbolwiseCodec):
        return symbolwise_attack(scheme, side)
    raise TypeError(f"unsupported scheme object {type(scheme)!r}")


# ---------------------------------------------------------------------------
# Test quantities and converse checkers


def symbolwise_beta(codec: SymbolwiseCodec) -> float:
    """Exact beta: the lattice mass of accepted independent pairs."""
    return codec.lattice.mass(codec.laws.indep, codec.n)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool = False


LOGSUM_TOL = 1e-9


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
                      holds=i_xy_bits >= rhs - LOGSUM_TOL)


def fano_check(p_e: float, h_s_given_xy_bits: float, n: int,
               secret_size: int) -> BoundCheck:
    """(1/n) H(S^n | X Y) <= (1/n) h(P_e) + P_e log2 |S|."""
    lhs = h_s_given_xy_bits / n
    rhs = binary_entropy(min(max(p_e, 0.0), 1.0)) / n + p_e * math.log2(secret_size)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + LOGSUM_TOL)


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
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + LOGSUM_TOL)
