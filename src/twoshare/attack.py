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

import numpy as np

from ._comb import composition_count, compositions
from .block import BlockShare, BlockwiseParams
from .prob import RandomStream, _estimate, as_symbol, binary_entropy
from .symbol import SymbolwiseCodec, check_lattice_points, walk_size


@dataclass(frozen=True)
class AttackResult:
    success_prob: float
    optimal_forgery: tuple
    side: str
    mode: str
    trials: int | None = None
    ci_halfwidth: float | None = None


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
                        optimal_forgery=(0, 0), side=side, mode="exact")


# ---------------------------------------------------------------------------
# Symbolwise attacks


def symbolwise_attack(codec: SymbolwiseCodec, side: str = "x") -> AttackResult:
    """Exact optimal forged sequence on the score lattice.

    A forged symbol fixes the mass the honest share puts on each lattice
    value, so forged symbols with equal mass vectors are interchangeable
    and success depends only on how many positions each such class fills.
    Per forged composition, the other classes' laws are convolved keyed by
    their exact integer score, and the last class is summed by intervals
    against the bar shifted by each key.  Against the modular splitter
    every forged symbol falls in one class, so this is one interval sum.
    `symbol.LATTICE_CAP` bounds the points walked: per composition, the
    count vectors of the other classes times the prefixes of the last.
    """
    _check_side(side)
    n = codec.n
    lat = codec.lattice
    classes: dict[tuple[float, ...], int] = {}   # mass vector -> least symbol
    for a, row in enumerate(codec.laws.forged[side]):
        classes.setdefault(row, a)
    masses, class_min = list(classes), list(classes.values())
    kc = len(masses)
    sizes = [sum(q > 0.0 for q in ms) for ms in masses]

    def points(counts) -> int:
        *rest, last = zip(counts, sizes)
        return walk_size(*last) * math.prod(
            composition_count(c, d) if d else 1 for c, d in rest)

    # each composition walks at least one point: bound the scan first
    check_lattice_points(n, composition_count(n, kc))
    scan = compositions(n, kc).tolist()
    check_lattice_points(n, sum(map(points, scan)))
    steps = [{w: q for w, q in zip(lat.weights, ms) if q > 0.0}
             for ms in masses]
    best_prob = -1.0
    best_seq: tuple[int, ...] | None = None
    for counts in scan:
        law = {0: 1.0}   # integer score of the other classes' positions
        for step, cnt in zip(steps, counts[:-1]):
            for _ in range(cnt):
                law = _convolve_scores(law, step)
        prob = math.fsum(p * lat.mass(masses[-1], counts[-1], offset=key)
                         for key, p in law.items())
        seq = tuple(sorted(sym for ci, cnt in enumerate(counts)
                           for sym in [class_min[ci]] * cnt))
        if prob > best_prob or (prob == best_prob and best_seq is not None
                                and seq < best_seq):
            best_prob = prob
            best_seq = seq
    return AttackResult(success_prob=float(best_prob), optimal_forgery=best_seq,
                        side=side, mode="exact")


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
# Monte Carlo


def _clear_gate(groups) -> tuple[float, list]:
    """The -inf gate of a forged block, from (bucket row, positions) groups
    whose rows put the -inf mass first.  Returns the probability that no
    position scores -inf, prod (1 - q_inf)**c, and each group's finite law
    given that.  A row with no finite mass closes the gate."""
    if any(row[0] >= 1.0 or not row[1:].any() for row, _ in groups):
        return 0.0, []
    clear = math.exp(math.fsum(c * math.log1p(-row[0]) for row, c in groups))
    return clear, [(row[1:] / math.fsum(row[1:]), c) for row, c in groups]


def _symbolwise_gate(codec: SymbolwiseCodec, side: str, forgery):
    """The -inf gate of a symbolwise forgery (`_clear_gate`), and a draw of
    the cleared trials' hits: one score-bucket count vector each, from the
    rows conditioned on no -inf score."""
    n = codec.n
    forged, minus_inf = codec.laws.forged[side], codec.laws.minus_inf[side]
    size = len(forged)
    if np.ndim(forgery) != 1 or len(forgery) != n:
        raise ValueError(f"forged sequence must have length {n}")
    seq = [as_symbol(v, "share symbol") for v in forgery]
    bad = [v for v in seq if not 0 <= v < size]
    if bad:
        raise ValueError(f"share symbol {bad[0]} outside [0, {size})")
    # only the rows of the symbols the sequence uses: the honest mass on
    # -inf, then on each value
    symbols, positions = np.unique(seq, return_counts=True)
    groups = [(np.array((minus_inf[a], *forged[a])), int(c))
              for a, c in zip(symbols.tolist(), positions)]
    clear, laws = _clear_gate(groups)

    def draw_live(gen, live):
        counts = sum(gen.multinomial(c, law, size=live) for law, c in laws)
        return int(np.count_nonzero(codec.lattice.accepted(counts)))
    return clear, draw_live


def monte_carlo_attack(scheme, side: str, forgery, trials: int,
                       rng: RandomStream) -> AttackResult:
    """Estimate a forgery's acceptance probability by sampling honest shares.

    `forgery` is one concrete share: blockwise an (l, m) pair, symbolwise
    a sequence of n symbols.  Success is linear in the forger's law, so a
    fixed share is also what the exact attacks optimise over.  ValueError
    when it is anything else (a PMF, say) or falls outside the share
    alphabet.  Blockwise, every share hits with the same mass M / ((M+1) L)
    (`blockwise_forgery_success`), so a trial is one Bernoulli of it:
    `_estimate`'s `hit`, split off by one multinomial per chunk, and no
    mask is drawn.  Symbolwise, a trial can hit only when no position
    scores -inf: that gate is `_estimate`'s live mass, a chunk draws how
    many trials pass it, one binomial (none when it is certain), and only
    those draw one score-bucket count vector (one multinomial per distinct
    forged symbol against its row).
    """
    _check_side(side)
    if isinstance(scheme, BlockwiseParams):
        if np.ndim(forgery) != 1 or len(forgery) != 2:
            raise ValueError("forged share must be an (l, m) pair")
        scheme.check_shares(BlockShare(*(as_symbol(v, "share symbol")
                                         for v in forgery)))
        est, half = _estimate(trials, rng, blockwise_forgery_success(scheme))
    elif isinstance(scheme, SymbolwiseCodec):
        clear, draw_live = _symbolwise_gate(scheme, side, forgery)
        est, half = _estimate(trials, rng, 0.0, clear, draw_live)
    else:
        raise TypeError(f"unsupported scheme object {type(scheme)!r}")
    return AttackResult(success_prob=est, optimal_forgery=tuple(forgery),
                        side=side, mode="mc", trials=trials, ci_halfwidth=half)


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
