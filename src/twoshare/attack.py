"""Impersonation attacks and information-theoretic bound checkers.

The attacker hands the combiner a forged share and hopes the legitimate
counterpart share makes the pair acceptable.  Success probability is linear
in the forgery distribution, so an optimal attack sits on a point mass and
exact search only needs to scan forged share values; ties resolve to the
lexicographically smallest forgery.

Bound checkers operate on exact or estimated test quantities:
  alpha = P{legitimate pair rejected},  beta = P{independent pair accepted}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .block import BlockShare, BlockwiseParams
from .prob import PMF, RandomStream, _estimate, as_symbol, binary_entropy
from .symbol import (LATTICE_CAP, SymbolwiseCodec, check_lattice_points,
                     walk_size)
from .typical import compositions


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


def _blockwise_forgery_success(params: BlockwiseParams) -> float:
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
    return AttackResult(success_prob=_blockwise_forgery_success(params),
                        optimal_forgery=(0, 0), side=side, mode="exact")


# ---------------------------------------------------------------------------
# Symbolwise attacks


def symbolwise_attack(codec: SymbolwiseCodec, side: str = "x",
                      type_cap: int = LATTICE_CAP) -> AttackResult:
    """Exact optimal forged sequence on the score lattice.

    A forged symbol fixes the mass the honest share puts on each lattice
    value, so forged symbols with equal mass vectors are interchangeable
    and success depends only on how many positions each such class fills.
    Per forged composition, the other classes' laws are convolved keyed by
    their exact integer score, and the last class is summed by intervals
    against the bar shifted by each key.  Against the modular splitter
    every forged symbol falls in one class, so this is one interval sum.
    `type_cap` bounds the points walked: per composition, the count
    vectors of the other classes times the prefixes of the last.
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
            math.comb(c + d - 1, d - 1) if d else 1 for c, d in rest)

    # each composition walks at least one point: bound the scan first
    check_lattice_points(n, math.comb(n + kc - 1, kc - 1), type_cap)
    check_lattice_points(n, sum(map(points, compositions(n, kc))), type_cap)
    steps = [{w: q for w, q in zip(lat.weights, ms) if q > 0.0}
             for ms in masses]
    best_prob = -1.0
    best_seq: tuple[int, ...] | None = None
    for counts in compositions(n, kc):
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


def _check_pmf_size(forgery: PMF, size: int):
    if forgery.support_size != size:
        raise ValueError(f"forgery PMF has {forgery.support_size} values; "
                         f"the share alphabet has {size}")


def _blockwise_gate(params: BlockwiseParams, forgery):
    """The u_l match of a blockwise forgery: it holds with probability 1/L
    whatever the forged share, since the honest u_l is uniform and
    independent of it.  A matched trial then draws its forged masked
    component and the honest u_m, and hits unless their sum is the
    sentinel."""
    m, mp1 = params.m_count, params.mask_range()
    if isinstance(forgery, PMF):
        _check_pmf_size(forgery, params.share_size)
        # once u_l matches, only the masked component's law matters
        law = forgery.probs.reshape(params.l_count, mp1).sum(axis=0)
    else:
        f_l, f_m = (as_symbol(v, "share symbol") for v in forgery)
        params.check_shares(BlockShare(f_l, f_m))

    def draw_live(gen, live):
        if isinstance(forgery, PMF):
            f_ms = np.repeat(np.arange(mp1), gen.multinomial(live, law))
        else:
            f_ms = f_m
        h_m = gen.integers(mp1, size=live)
        # the one rejected honest value; f_m + h_m could overflow int64
        return int(np.count_nonzero(h_m != (m - f_ms) % mp1))
    return 1.0 / params.l_count, draw_live


def _symbolwise_gate(codec: SymbolwiseCodec, side: str, forgery):
    """The -inf gate of a symbolwise forgery (`_clear_gate`), and a draw of
    the cleared trials' hits: one score-bucket count vector each, from the
    rows conditioned on no -inf score."""
    n = codec.n
    forged, minus_inf = codec.laws.forged[side], codec.laws.minus_inf[side]
    size = len(forged)

    def row(a):   # the honest mass on -inf, then on each value
        return (minus_inf[a], *forged[a])
    if isinstance(forgery, PMF):
        _check_pmf_size(forgery, size)
        rows = np.array([row(a) for a in range(size)])
        groups = [(forgery.probs @ rows, n)]
    else:
        if np.ndim(forgery) != 1 or len(forgery) != n:
            raise ValueError(f"forged sequence must have length {n}")
        seq = [as_symbol(v, "share symbol") for v in forgery]
        bad = [v for v in seq if not 0 <= v < size]
        if bad:
            raise ValueError(f"share symbol {bad[0]} outside [0, {size})")
        # only the rows of the symbols the sequence uses
        symbols, positions = np.unique(seq, return_counts=True)
        groups = [(np.array(row(a)), int(c))
                  for a, c in zip(symbols.tolist(), positions)]
    clear, laws = _clear_gate(groups)

    def draw_live(gen, live):
        counts = sum(gen.multinomial(c, law, size=live) for law, c in laws)
        return int(np.count_nonzero(codec.lattice.accepted(counts)))
    return clear, draw_live


def monte_carlo_attack(scheme, side: str, forgery, trials: int,
                       rng: RandomStream) -> AttackResult:
    """Estimate a forgery's acceptance probability by sampling honest shares.

    `forgery` is a concrete share (blockwise: (l, m) pair; symbolwise: a
    symbol sequence) or a PMF sampled per trial (blockwise: over the flat
    share alphabet of L (M+1) values; symbolwise: per position over the M
    symbols); ValueError when it falls outside the share alphabet.
    A trial can hit only past a gate that ignores the rest of the trial:
    blockwise, the honest u_l must match the forged one (probability 1/L);
    symbolwise, no position may score -inf.  The gate is `_estimate`'s
    live mass: a chunk draws how many trials pass it, one binomial (none
    when it is certain), and only those draw the rest: blockwise the forged
    masked component and the honest u_m, symbolwise one score-bucket count
    vector (one multinomial per distinct forged symbol against its row, or
    one from the forgery-weighted mixture of the rows).
    """
    _check_side(side)
    if isinstance(scheme, BlockwiseParams):
        clear, draw_live = _blockwise_gate(scheme, forgery)
    elif isinstance(scheme, SymbolwiseCodec):
        clear, draw_live = _symbolwise_gate(scheme, side, forgery)
    else:
        raise TypeError(f"unsupported scheme object {type(scheme)!r}")
    est, half = _estimate(trials, rng, 0.0, clear, draw_live)
    forged = tuple(forgery) if not isinstance(forgery, PMF) else ("sampled",)
    return AttackResult(success_prob=est, optimal_forgery=forged, side=side,
                        mode="mc", trials=trials, ci_halfwidth=half)


# ---------------------------------------------------------------------------
# Exponents


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fits of -log2(P) against n.

    `slope` is the through-origin fit; the affine fit is reported alongside
    because a through-origin fit picks up an n-independent bias at small n.
    Points with zero probability are excluded and listed in `excluded`.
    """

    slope: float
    affine_slope: float
    affine_intercept: float
    points: tuple[tuple[int, float], ...]
    excluded: tuple[int, ...]


def exponent_points(pairs: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    """Per-point exponents -(1/n) log2 P; zero probabilities map to inf."""
    out = []
    for n, p in pairs:
        if p < 0.0 or p > 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        out.append((n, math.inf if p == 0.0 else -math.log2(p) / n))
    return out


def exponent_fit(pairs: Sequence[tuple[int, float]]) -> ExponentFit:
    used = [(n, p) for n, p in pairs if p > 0.0]
    excluded = tuple(n for n, p in pairs if p == 0.0)
    if len(used) < 2:
        raise ValueError("need at least two positive-probability points")
    ns = np.array([n for n, _ in used], dtype=np.float64)
    ys = np.array([-math.log2(p) for _, p in used])
    slope = float(np.dot(ns, ys) / np.dot(ns, ns))
    affine_slope, affine_intercept = (float(v) for v in np.polyfit(ns, ys, 1))
    points = tuple((int(n), float(y / n)) for n, y in zip(ns, ys))
    return ExponentFit(slope=slope, affine_slope=affine_slope,
                       affine_intercept=affine_intercept, points=points,
                       excluded=excluded)


# ---------------------------------------------------------------------------
# Test quantities and converse checkers


@dataclass(frozen=True)
class TestQuantities:
    alpha: float   # P{legitimate pair rejected}
    beta: float    # P{independent pair accepted}


def blockwise_test_quantities(params: BlockwiseParams) -> TestQuantities:
    """Exact alpha and beta from the type classes.

    A legitimate pair is rejected exactly when the secret is atypical, so
    alpha is the atypical mass.  An independent X is uniform like any
    forged share, so beta equals the forgery success M / ((M+1) L).
    """
    return TestQuantities(alpha=params.index.delta,
                          beta=_blockwise_forgery_success(params))


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


def logsum_bound_check(i_xy_bits: float, tq: TestQuantities,
                       tol: float = LOGSUM_TOL) -> BoundCheck:
    """Correlation lower bound I(X;Y) >= -h(alpha) - (1-alpha) log2 beta.

    beta = 0 makes the right side infinite in principle but the acceptance
    region then has no independent mass at all and the bound is vacuous.
    """
    if tq.beta <= 0.0:
        return BoundCheck(lhs=i_xy_bits, rhs=math.inf, holds=True, vacuous=True)
    rhs = -binary_entropy(min(max(tq.alpha, 0.0), 1.0)) \
        - (1.0 - tq.alpha) * math.log2(tq.beta)
    return BoundCheck(lhs=i_xy_bits, rhs=rhs, holds=i_xy_bits >= rhs - tol)


def fano_check(p_e: float, h_s_given_xy_bits: float, n: int,
               secret_size: int, tol: float = LOGSUM_TOL) -> BoundCheck:
    """(1/n) H(S^n | X Y) <= (1/n) h(P_e) + P_e log2 |S|."""
    lhs = h_s_given_xy_bits / n
    rhs = binary_entropy(min(max(p_e, 0.0), 1.0)) / n + p_e * math.log2(secret_size)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)


def converse_exponent_check(i_xy_bits: float, alpha: float, p_x: float,
                            p_y: float, n: int,
                            tol: float = LOGSUM_TOL) -> BoundCheck:
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
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)
